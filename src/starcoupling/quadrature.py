"""Gauss-Legendre rules for the kernel integrals.

The double integrals all live on [0,1]^2 after rescaling and carry
integrands that are analytic per cell except for a crease along x = y.
Cells on the diagonal are therefore split into two triangles, each mapped
to the unit square (x = s, y = s*t and its mirror image), which restores
spectral accuracy of the tensor rule. A double integral whose integrand
is separable on each triangle is instead a 1-d running integral, taken at
a cell's nodes with the matrix of ``_running01``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged


@lru_cache(maxsize=None)
def _gauss01(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=None)
def _running01(order):
    # Q[i, j] = int_0^{x_i} l_j for the Lagrange basis l_j on the order's
    # nodes x in [0, 1], so that a + h x_i -> h (Q @ f)_i is the running
    # integral of the interpolant of f over a cell [a, a + h]. With t = 2x - 1,
    # l_j = w_j sum_{k<m} (2k+1) P_k(t_j) P_k(t) (discrete orthogonality of
    # Gauss-Legendre), and (2k+1) int_0^x P_k(2s-1) ds = (P_{k+1} - P_{k-1})(t)/2
    # with P_{-1} = -1
    x, w = _gauss01(order)
    P = np.polynomial.legendre.legvander(2.0 * x - 1.0, order)
    J = 0.5 * (P[:, 1:] - np.hstack([-P[:, :1], P[:, : order - 1]]))
    Q = J @ (w[:, None] * P[:, :order]).T
    Q.setflags(write=False)
    return Q


@lru_cache(maxsize=64)
def _cell(rule, a, b):
    # the rule's nodes on [a, b] as a column X and a row, their weights, and
    # the lower triangle a<=y<=x<=b via x = a+(b-a)s, y = a+(b-a)s*t,
    # Jacobian (b-a)^2 s; the same few cells recur in every pairing call, so
    # they are kept per rule (not per order: other nodes get their own)
    x, w = rule.points(a, b)
    s, ws = rule.points(0.0, 1.0)
    h = b - a
    S = s[:, None]
    Y = a + h * S * s[None, :]
    wgt = (h * h) * (ws[:, None] * ws[None, :]) * S
    arrays = (x[:, None], x[None, :], w, Y, wgt)
    for arr in arrays:
        arr.setflags(write=False)
    return arrays


@lru_cache(maxsize=256)
def _cell_rows(rule, *breaks):
    # ``cell_points`` of each 1-d breaks (as bytes) stacked, read-only, and each row's breaks
    cells = [rule.cell_points(np.frombuffer(b)) for b in breaks]
    x, w = (np.concatenate(arrays) for arrays in zip(*cells))
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w, tuple(i for i, (nodes, _) in enumerate(cells) for _ in nodes)


#: a break closer than this to an end of the interval is dropped
BREAK_MARGIN = 1e-14


def merge_breaks(lo, hi, *extra):
    """Sorted unique breakpoints covering [lo, hi], including any of
    ``extra`` that fall strictly inside, by more than BREAK_MARGIN."""
    pts = [lo, hi]
    for arr in extra:
        for t in np.atleast_1d(arr):
            if lo + BREAK_MARGIN < t < hi - BREAK_MARGIN:
                pts.append(float(t))
    return np.array(sorted(set(pts)), dtype=float)


@dataclass(frozen=True, eq=False, init=False)
class QuadratureRule:
    """Per-cell Gauss-Legendre rule of fixed order, one rule per (class, order),
    also unpickled (``--parallel``): the memo keys holding it stay class-aware
    (other nodes, other tables) and hash and compare by identity, in C."""

    order: int = 32
    _rules = {}

    def __new__(cls, order=32):
        if order < 1:
            raise ValueError("order must be positive")
        if (cls, order) not in cls._rules:
            cls._rules[cls, order] = super().__new__(cls)
            object.__setattr__(cls._rules[cls, order], "order", order)
        return cls._rules[cls, order]

    def __reduce__(self):
        return type(self), (self.order,)

    def doubled(self):
        return type(self)(2 * self.order)

    def points(self, a, b):
        x, w = _gauss01(self.order)
        return a + (b - a) * x, (b - a) * w

    def cell_points(self, breaks):
        """The rule's nodes and weights on each cell of the 1-d ``breaks``,
        one row per cell."""
        edges = np.asarray(breaks, dtype=float)[:, None]
        return self.points(edges[:-1], edges[1:])

    def integrate(self, f, breaks):
        """Integral of a vectorized f over the cells of the 1-d ``breaks``, or of each of a
        list of them, on the last axis: f is called once, on all their cells' nodes in the
        order of ``cell_points``; each cell is summed, and each breaks' cells added in order."""
        parts = breaks if np.ndim(breaks[0]) else [breaks]
        x, w, interval = _cell_rows(self, *(np.asarray(b, dtype=float).tobytes() for b in parts))
        values = f(x.ravel())
        batch = np.shape(values)[:-1]
        sums = np.sum(w * np.reshape(values, batch + w.shape), axis=-1).reshape(-1, len(w))
        out = np.zeros((len(parts), len(sums)), dtype=sums.dtype)
        for i, cell in zip(interval, sums.T):
            out[i] += cell
        out = out.T.reshape(batch + (len(parts),))
        return out if parts is breaks else out[..., 0][()]

    def cells(self, breaks):
        """The cells of ``double_integral`` over ``breaks``^2 in its order, as
        (lo, hi, weights, diagonal) with read-only nodes lo <= hi elementwise.
        A diagonal cell is its lower triangle, lo the grid and hi the column
        of shape (order, 1); an off-diagonal cell has the lower cell's nodes
        as lo, the upper one's as hi, and rows indexing the first of the pair.
        """
        breaks = np.asarray(breaks, dtype=float)
        for i in range(breaks.size - 1):
            for j in range(breaks.size - 1):
                if i == j:
                    X, _, _, Y, wgt = _cell(self, breaks[i], breaks[i + 1])
                    yield Y, X, wgt, True
                else:
                    x, _, wx = _cell(self, breaks[i], breaks[i + 1])[:3]
                    _, y, wy = _cell(self, breaks[j], breaks[j + 1])[:3]
                    yield *((x, y) if i < j else (y, x)), wx[:, None] * wy[None, :], False

    def double_integral(self, f, breaks):
        """Integral over ``breaks``^2 of a symmetric integrand that f(lo, hi)
        gives at nodes lo <= hi: f is called once per cell of ``cells``, in
        that order. A diagonal
        cell counts its lower triangle twice: the upper one mirrors it.
        """
        total = 0.0
        for lo, hi, w, diagonal in self.cells(breaks):
            part = np.sum(w * f(lo, hi), axis=(-2, -1))
            total = total + (2.0 * part if diagonal else part)
        return total


def converged_value(compute, rule, rtol=1e-10, atol=0.0, context="", batch=0):
    """Evaluate ``compute(rule)`` and verify against the doubled order.

    Returns the doubled-order value, a scalar or an array; raises
    QuadratureNotConverged when the two disagree beyond ``rtol`` (relative
    to the largest magnitude) plus ``atol``, in the max-norm for arrays, or
    when either is not finite: a NaN fails every comparison and an infinite
    size admits any gap, so the gap must be finite first, and is formed only
    from a finite fine value (inf - inf would warn). The first ``batch`` axes
    index values each checked on its own, relative to its own largest
    magnitude, as a call on it alone would check it.
    """
    coarse = compute(rule)
    fine = compute(rule.doubled())
    axes = tuple(range(batch, np.ndim(fine)))
    size = np.abs(fine).max(axis=axes)
    gap = np.abs(fine - coarse).max(axis=axes) if np.isfinite(size).all() else size
    if not np.isfinite(gap).all():
        raise QuadratureNotConverged(
            f"{context or 'integral'} or its change from order {rule.order} "
            f"to {2 * rule.order} is not finite"
        )
    if (over := gap > rtol * size + atol).any():
        gap, size = np.asarray(gap)[over][0], np.asarray(size)[over][0]
        raise QuadratureNotConverged(
            f"order {rule.order}->{2 * rule.order} changed "
            f"{context or 'integral'} by {gap:.3e} (value {size:.3e})"
        )
    return fine
