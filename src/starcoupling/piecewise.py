"""Compactly supported piecewise polynomials with exact moment algebra.

Edge potentials are represented as piecewise polynomials so that every
derived constant (means, first moments, the min-kernel double integral)
comes out of closed-form polynomial arithmetic instead of quadrature.
Coefficients are stored per piece in ascending powers of the local
variable ``u = x - breakpoints[j]``.

Every exact constant is a sum over the pieces of one closed form,
``power_integral``: int_0^h u^p c(u) du = sum_k c_k h^(k+p+1) / (k+p+1) on
a piece of width h. Powers of the global coordinate x = a + u, a the
piece's left breakpoint, enter by the binomial theorem: the local
coefficients of ``from_global_coeffs`` are sum_k binom(k, j) a^(k-j) c_k,
and ``moment`` of order m is sum_j binom(m, j) a^(m-j) times the form with
p = j. The forms run in scalar float arithmetic on coefficient lists,
microseconds a piece. ``evaluate`` looks up each point's piece once and
makes one ``npoly.polyval`` call per piece: its values at the quadrature
nodes feed the pairing, whose bits the stored pole rows hold.
``multiply`` keeps ``npoly.polymul``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

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
        # the closed forms run on Python floats: widths bp[j+1] - bp[j]
        # and one coefficient list per piece
        object.__setattr__(self, "_widths", np.diff(bp).tolist())
        object.__setattr__(self, "_lists", tuple(c.tolist() for c in coeffs))
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
        bp = [pieces[0][0][0]]
        locals_ = []
        for (a, b), coeffs in pieces:
            if abs(a - bp[-1]) > 1e-14:
                raise ValueError("pieces must cover consecutive intervals")
            bp.append(b)
            coeffs = np.atleast_1d(np.asarray(coeffs, dtype=float))
            if coeffs.ndim != 1 or coeffs.size == 0:
                raise ValueError("coefficients must be a nonempty 1-d array")
            c, a, n = coeffs.tolist(), float(a), coeffs.size
            # c(a + u) in powers of u, by the binomial theorem
            locals_.append(
                [sum(comb(k, j) * a ** (k - j) * c[k] for k in range(j, n)) for j in range(n)]
            )
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
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = np.zeros_like(x)
        bp = self.breakpoints
        # each point's piece: -1 below the span, bp.size - 1 above it or NaN
        piece = np.where(x == bp[-1], bp.size - 2, np.searchsorted(bp, x, side="right") - 1)
        for j, c in enumerate(self.coefficients):
            sel = piece == j
            out[sel] = npoly.polyval(x[sel] - bp[j], c)
        return float(out[0]) if scalar else out

    def evaluate_symmetric(self, x):
        """Like :meth:`evaluate` but averaging one-sided limits at jumps.

        Grid-sampling discontinuous profiles (finite differences, trapezoid
        sums) needs the mean value at a jump to stay second-order accurate.
        The halfline starts at 0, so a breakpoint at 0 is a domain boundary,
        not a jump.
        """
        scalar = np.ndim(x) == 0
        x = np.atleast_1d(np.asarray(x, dtype=float))
        out = self.evaluate(x)
        bp = self.breakpoints
        for j, t in enumerate(bp):
            at = np.abs(x - t) < 1e-13
            if not np.any(at) or (j == 0 and t <= 1e-13):
                continue
            left = npoly.polyval(t - bp[j - 1], self.coefficients[j - 1]) if j else 0.0
            right = npoly.polyval(0.0, self.coefficients[j]) if j < len(bp) - 1 else 0.0
            out[at] = 0.5 * (left + right)
        return float(out[0]) if scalar else out

    # -- exact calculus -----------------------------------------------

    def integral(self):
        """Exact integral over the whole support."""
        return sum(power_integral(c, h) for h, c in zip(self._widths, self._lists))

    def _times_x(self, lists):
        # pieces times the global coordinate x = a + u: a c_k + c_(k-1)
        return [
            [a * ck + prev for ck, prev in zip([*c, 0.0], [0.0, *c])]
            for a, c in zip(self.breakpoints.tolist(), lists)
        ]

    def times_x(self):
        """Exact product with the global coordinate x."""
        return PiecewisePolynomial(self.breakpoints, self._times_x(self._lists))

    def moment(self, order):
        """Exact moment ``int x^order p(x) dx``: on a piece at a, x^order is
        sum_j binom(order, j) a^(order-j) u^j."""
        return sum(
            comb(order, j) * a ** (order - j) * power_integral(c, h, j)
            for a, h, c in zip(self.breakpoints.tolist(), self._widths, self._lists)
            for j in range(order + 1)
        )

    def _antiderivative(self, lists):
        # each piece: the integral over the pieces before it plus int_0^u c
        out, acc = [], 0.0
        for h, c in zip(self._widths, lists):
            out.append([acc, *(ck / (k + 1) for k, ck in enumerate(c))])
            acc += power_integral(c, h)
        return out

    def antiderivative(self):
        """Cumulative integral from the left end of the support.

        The result is only meaningful on the breakpoint span (this class
        evaluates to zero outside it).
        """
        return PiecewisePolynomial(self.breakpoints, self._antiderivative(self._lists))

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
        cumulative first moment F of ``p`` up to x, on each piece
        sum_k c_k int_0^h u^k F(u) du.
        """
        cumulative = self._antiderivative(self._times_x(self._lists))
        return 2.0 * sum(
            ck * power_integral(f, h, k)
            for h, c, f in zip(self._widths, self._lists, cumulative)
            for k, ck in enumerate(c)
        )



def power_integral(c, h, p=0):
    """int_0^h u^p c(u) du = sum_k c_k h^(k+p+1) / (k+p+1), for the ascending
    coefficient list c of a piece of width h."""
    return sum(ck * h ** (k + p + 1) / (k + p + 1) for k, ck in enumerate(c))
