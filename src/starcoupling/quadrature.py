"""Gauss-Legendre rules for the kernel integrals.

The double integrals all live on [0,1]^2 after rescaling and carry
integrands that are analytic per cell except for a crease along x = y.
Cells on the diagonal are therefore split into two triangles, each mapped
to the unit square (x = s, y = s*t and its mirror image), which restores
spectral accuracy of the tensor rule.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import QuadratureNotConverged


@lru_cache(maxsize=None)
def _gauss01(order):
    x, w = np.polynomial.legendre.leggauss(order)
    return 0.5 * (x + 1.0), 0.5 * w


@lru_cache(maxsize=64)
def _lower_triangle(rule, a, b):
    # nodes and weights of the lower triangle a<=y<=x<=b via x = a+(b-a)s,
    # y = a+(b-a)s*t, Jacobian (b-a)^2 s, with s and t the rule's nodes on
    # [0, 1]; the same few cells recur in every pairing call, so they are
    # kept per rule (not per order: a rule with other nodes gets its own)
    s, ws = rule.points(0.0, 1.0)
    h = b - a
    S = s[:, None]
    X = a + h * S
    Y = a + h * S * s[None, :]
    wgt = (h * h) * (ws[:, None] * ws[None, :]) * S
    for arr in (X, Y, wgt):
        arr.setflags(write=False)
    return X, Y, wgt


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
        """Integral of a vectorized f over the cells of ``breaks``, per leading axis.

        ``breaks`` may be 2-d, one row of cell edges per integral; f then
        gets one row of nodes per row of ``breaks``.
        """
        edges = np.asarray(breaks, dtype=float).T[..., None]
        nodes, weights = self.points(edges[:-1], edges[1:])
        total = 0.0
        for x, w in zip(nodes, weights):
            total = total + np.sum(w * f(x), axis=-1)
        return total

    def _tensor_cell(self, f, ax, bx, ay, by):
        x, wx = self.points(ax, bx)
        y, wy = self.points(ay, by)
        vals = f(x[:, None], y[None, :])
        return np.sum(wx[:, None] * wy[None, :] * vals, axis=(-2, -1))

    def _triangle_pair(self, f, a, b):
        # the upper triangle is the lower one's mirror image, and since
        # f(x, y) == f(y, x) its sum is the lower one's, bit for bit
        X, Y, wgt = _lower_triangle(self, a, b)
        return 2.0 * np.sum(wgt * f(X, Y), axis=(-2, -1))

    def double_integral(self, f, breaks):
        """Integral of f(x, y) over the square spanned by ``breaks``^2.

        ``f`` must accept broadcasting 2-d arrays and may add leading axes,
        one integral each. It must be symmetric bit for bit,
        f(x, y) == f(y, x): a diagonal cell is split into two triangles
        and counts its lower one twice.
        """
        breaks = np.asarray(breaks, dtype=float)
        total = 0.0
        ncell = breaks.size - 1
        for i in range(ncell):
            for j in range(ncell):
                if i == j:
                    total = total + self._triangle_pair(f, breaks[i], breaks[i + 1])
                else:
                    total = total + self._tensor_cell(
                        f, breaks[i], breaks[i + 1], breaks[j], breaks[j + 1]
                    )
        return total


def converged_value(compute, rule, rtol=1e-10, atol=0.0, context="", batch=False):
    """Evaluate ``compute(rule)`` and verify against the doubled order.

    Returns the doubled-order value, a scalar or an array; raises
    QuadratureNotConverged when the two disagree beyond ``rtol`` (relative
    to the largest magnitude) plus ``atol``, in the max-norm for arrays.
    With ``batch`` each slice along the leading axis is checked on its own.
    """
    coarse = compute(rule)
    fine = compute(rule.doubled())
    axes = tuple(range(1, np.ndim(fine))) if batch else None
    gap = np.max(np.abs(fine - coarse), axis=axes)
    size = np.max(np.abs(fine), axis=axes)
    failed = np.flatnonzero(gap > rtol * size + atol)
    if failed.size:
        gap, size = np.ravel(gap)[failed[0]], np.ravel(size)[failed[0]]
        raise QuadratureNotConverged(
            f"order {rule.order}->{2 * rule.order} changed "
            f"{context or 'integral'} by {gap:.3e} (value {size:.3e})"
        )
    return fine
