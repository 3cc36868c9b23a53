"""Gauss-Legendre rules for the kernel integrals.

The double integrals all live on [0,1]^2 after rescaling and carry
integrands that are analytic per cell except for a crease along x = y.
Cells on the diagonal are therefore split into two triangles, each mapped
to the unit square (x = s, y = s*t and its mirror image), which restores
spectral accuracy of the tensor rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged


@lru_cache(maxsize=None)
def _gauss01(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


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


def merge_breaks(lo, hi, *extra):
    """Sorted unique breakpoints covering [lo, hi], including any of
    ``extra`` that fall strictly inside."""
    pts = [lo, hi]
    for arr in extra:
        for t in np.atleast_1d(arr):
            if lo + 1e-14 < t < hi - 1e-14:
                pts.append(float(t))
    return np.array(sorted(set(pts)), dtype=float)


@dataclass(frozen=True)
class QuadratureRule:
    """Per-cell Gauss-Legendre rule of fixed order."""

    order: int = 32

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be positive")

    def doubled(self):
        return replace(self, order=2 * self.order)

    def points(self, a, b):
        x, w = _gauss01(self.order)
        return a + (b - a) * x, (b - a) * w

    def integrate(self, f, breaks):
        """Integral of a vectorized f over the cells of the 1-d ``breaks``."""
        edges = np.asarray(breaks, dtype=float)[:, None]
        nodes, weights = self.points(edges[:-1], edges[1:])
        total = 0.0
        for x, w in zip(nodes, weights):
            total = total + np.sum(w * f(x), axis=-1)
        return total

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


def converged_value(compute, rule, rtol=1e-10, atol=0.0, context=""):
    """Evaluate ``compute(rule)`` and verify against the doubled order.

    Returns the doubled-order value, a scalar or an array; raises
    QuadratureNotConverged when the two disagree beyond ``rtol`` (relative
    to the largest magnitude) plus ``atol``, in the max-norm for arrays, or
    when either is not finite: a NaN fails every comparison and an infinite
    size admits any gap, so the gap must be finite first, and is formed only
    from a finite fine value (inf - inf would warn).
    """
    coarse = compute(rule)
    fine = compute(rule.doubled())
    size = np.max(np.abs(fine))
    gap = np.max(np.abs(fine - coarse)) if math.isfinite(size) else size
    if not math.isfinite(gap):
        raise QuadratureNotConverged(
            f"{context or 'integral'} or its change from order {rule.order} "
            f"to {2 * rule.order} is not finite"
        )
    if gap > rtol * size + atol:
        raise QuadratureNotConverged(
            f"order {rule.order}->{2 * rule.order} changed "
            f"{context or 'integral'} by {gap:.3e} (value {size:.3e})"
        )
    return fine
