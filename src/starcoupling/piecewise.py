"""Compactly supported piecewise polynomials with exact moment algebra.

Edge potentials are represented as piecewise polynomials so that every
derived constant (means, first moments, the min-kernel double integral)
comes out of closed-form polynomial arithmetic instead of quadrature.
Coefficients are stored per piece in ascending powers of the local
variable ``u = x - breakpoints[j]``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly


@dataclass(frozen=True)
class PiecewisePolynomial:
    """Polynomial pieces on consecutive intervals, zero outside the span.

    Parameters
    ----------
    breakpoints : array_like, shape (m+1,)
        Strictly increasing cell boundaries.
    coefficients : sequence of array_like
        One ascending-order coefficient array per cell, in the local
        variable ``x - breakpoints[j]``.
    """

    breakpoints: np.ndarray
    coefficients: tuple

    def __init__(self, breakpoints, coefficients):
        bp = np.asarray(breakpoints, dtype=float)
        if bp.ndim != 1 or bp.size < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.diff(bp) > 0):
            raise ValueError("breakpoints must be strictly increasing")
        coeffs = tuple(np.atleast_1d(np.asarray(c, dtype=float)) for c in coefficients)
        if len(coeffs) != bp.size - 1:
            raise ValueError("need one coefficient array per cell")
        bp.setflags(write=False)
        for c in coeffs:
            c.setflags(write=False)
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "coefficients", coeffs)
        # immutable, so decided once: the pipeline asks per edge in every routine
        object.__setattr__(self, "_zero", all(np.all(c == 0.0) for c in coeffs))

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, value, support=(0.0, 1.0)):
        return cls([support[0], support[1]], [[float(value)]])

    @classmethod
    def zero(cls, support=(0.0, 1.0)):
        return cls.constant(0.0, support)

    @classmethod
    def from_global_coeffs(cls, pieces):
        """Build from ``[(a, b), coeffs]`` pairs with global-coordinate coeffs.

        ``coeffs`` are ascending powers of x itself; consecutive intervals
        must share endpoints.
        """
        intervals = [p[0] for p in pieces]
        bp = [intervals[0][0]]
        locals_ = []
        for (a, b), coeffs in pieces:
            if abs(a - bp[-1]) > 1e-14:
                raise ValueError("pieces must cover consecutive intervals")
            bp.append(b)
            shift = np.polynomial.Polynomial(np.atleast_1d(coeffs))(
                np.polynomial.Polynomial([a, 1.0])
            )
            locals_.append(shift.coef)
        return cls(bp, locals_)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self):
        return max(len(c) - 1 for c in self.coefficients)

    @property
    def support(self):
        return float(self.breakpoints[0]), float(self.breakpoints[-1])

    def is_zero(self):
        return self._zero

    def evaluate(self, x):
        """Pointwise values; zero outside the breakpoint span.

        At interior breakpoints the right-continuous piece wins; the last
        breakpoint belongs to the last piece.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.zeros_like(x)
        bp = self.breakpoints
        inside = (x >= bp[0]) & (x <= bp[-1])
        idx = np.clip(np.searchsorted(bp, x[inside], side="right") - 1, 0, len(bp) - 2)
        vals = np.empty(idx.shape)
        xin = x[inside]
        for j in range(len(bp) - 1):
            sel = idx == j
            if sel.any():
                vals[sel] = npoly.polyval(xin[sel] - bp[j], self.coefficients[j])
        out[inside] = vals
        return float(out[0]) if scalar else out

    def evaluate_symmetric(self, x):
        """Like :meth:`evaluate` but averaging one-sided limits at jumps.

        Grid-sampling discontinuous profiles (finite differences, trapezoid
        sums) needs the mean value at a jump to stay second-order accurate.
        The halfline starts at 0, so a breakpoint at 0 is a domain boundary,
        not a jump.
        """
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        out = np.atleast_1d(self.evaluate(x)).copy()
        bp = self.breakpoints
        for j, t in enumerate(bp):
            at = np.abs(x - t) < 1e-13
            if not np.any(at):
                continue
            if j == 0:
                if t <= 1e-13:
                    continue
                left = 0.0
            else:
                left = npoly.polyval(t - bp[j - 1], self.coefficients[j - 1])
            right = npoly.polyval(0.0, self.coefficients[j]) if j < len(bp) - 1 else 0.0
            out[at] = 0.5 * (left + right)
        return float(out[0]) if scalar else out

    # -- exact calculus -----------------------------------------------

    def integral(self):
        """Exact integral over the whole support."""
        total = 0.0
        for j, c in enumerate(self.coefficients):
            h = self.breakpoints[j + 1] - self.breakpoints[j]
            total += npoly.polyval(h, npoly.polyint(c))
        return float(total)

    def times_x(self):
        """Exact product with the global coordinate x."""
        coeffs = [
            npoly.polymul([self.breakpoints[j], 1.0], c)
            for j, c in enumerate(self.coefficients)
        ]
        return PiecewisePolynomial(self.breakpoints, coeffs)

    def moment(self, order):
        """Exact moment ``int x^order p(x) dx``."""
        p = self
        for _ in range(order):
            p = p.times_x()
        return p.integral()

    def antiderivative(self):
        """Cumulative integral from the left end of the support.

        The result is only meaningful on the breakpoint span (this class
        evaluates to zero outside it).
        """
        coeffs = []
        acc = 0.0
        for j, c in enumerate(self.coefficients):
            prim = npoly.polyint(c)
            prim = np.concatenate(([acc], prim[1:])) if prim.size > 1 else np.array([acc])
            coeffs.append(prim)
            h = self.breakpoints[j + 1] - self.breakpoints[j]
            acc = npoly.polyval(h, prim)
        return PiecewisePolynomial(self.breakpoints, coeffs)

    def multiply(self, other):
        """Exact product with another piecewise polynomial on the same cells."""
        if self.breakpoints.shape != other.breakpoints.shape or not np.allclose(
            self.breakpoints, other.breakpoints, atol=1e-14, rtol=0.0
        ):
            raise ValueError("operands must share breakpoints")
        coeffs = [
            npoly.polymul(a, b) for a, b in zip(self.coefficients, other.coefficients)
        ]
        return PiecewisePolynomial(self.breakpoints, coeffs)

    def min_kernel_self_integral(self):
        """Exact ``int int min(x, y) p(x) p(y) dx dy`` over the support square.

        Uses the symmetric split: twice the integral of ``p(x)`` against the
        cumulative first moment of ``p`` up to x.
        """
        cumulative = self.times_x().antiderivative()
        return 2.0 * self.multiply(cumulative).integral()
