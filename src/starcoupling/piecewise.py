"""Compactly supported piecewise polynomials with exact moment algebra.

Edge potentials are represented as piecewise polynomials so that every
derived constant (means, first moments, the min-kernel double integral)
comes out of closed-form polynomial arithmetic instead of quadrature.
Coefficients are stored per piece in ascending powers of the local
variable ``u = x - breakpoints[j]``.

The exact calculus (the local coefficients of ``from_global_coeffs``,
``integral``, ``times_x``, ``antiderivative`` and the size bound of
``graph.validate_potential``) runs in scalar float arithmetic on
coefficient lists, repeating numpy.polynomial's own sequence of operations:
Horner steps, sums of two-term products started at +0.0, and trailing-zero
trimming. The stored benchmark references pin the bits of theta, A and the
edge means, so the order cannot change. The scalar route takes microseconds
a piece; the ``Polynomial`` composition it replaces in ``from_global_coeffs``
took about 0.5 ms a piece. The general products (``multiply`` and the one
inside ``min_kernel_self_integral``) keep ``npoly.polymul``: its sums of
three or more products run in BLAS order.
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
        # the scalar calculus works on Python floats: widths bp[j+1] - bp[j]
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
            locals_.append(_shift(coeffs.tolist(), float(a)))
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
        return _integral(self._widths, self._lists)

    def _times_x(self, lists):
        # pieces times the global coordinate x = breakpoints[j] + u
        return [_times_line(c, a) for a, c in zip(self.breakpoints.tolist(), lists)]

    def times_x(self):
        """Exact product with the global coordinate x."""
        return PiecewisePolynomial(self.breakpoints, self._times_x(self._lists))

    def moment(self, order):
        """Exact moment ``int x^order p(x) dx``."""
        lists = self._lists
        for _ in range(order):
            lists = self._times_x(lists)
        return _integral(self._widths, lists)

    def _antiderivative(self, lists):
        out, acc = [], 0.0
        for h, c in zip(self._widths, lists):
            out.append([acc, *_polyint(c)[1:]])
            acc = _polyval(h, out[-1])
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
        cumulative first moment of ``p`` up to x.
        """
        cumulative = self._antiderivative(self._times_x(self._lists))
        product = [npoly.polymul(a, b).tolist() for a, b in zip(self._lists, cumulative)]
        return 2.0 * _integral(self._widths, product)


# -- scalar polynomial arithmetic in numpy.polynomial's order -----------


def _trim(c):
    # pu.trimseq: drop trailing zeros, keeping at least one coefficient
    n = len(c)
    while n > 1 and c[n - 1] == 0:
        n -= 1
    return c[:n]


def _times_line(c, a):
    """c times (a + u) as ``npoly.polymul`` forms it: the trimmed operands'
    convolution, each sum of at most two products started at +0.0 the way
    numpy's dot starts, then trimmed."""
    c = _trim(c)
    out = [0.0 + c[0] * a]
    out += [0.0 + c[k] * a + c[k - 1] for k in range(1, len(c))]
    out.append(0.0 + c[-1])
    return _trim(out)


def _shift(c, a):
    """c(a + u) in powers of u, as ``Polynomial(c)(Polynomial([a, 1]))``
    forms it: Horner's rule in Polynomial arithmetic, each step a product
    by (a + u) and the next coefficient added to the constant term."""
    out = [0.0 + c[-1]]
    for ck in reversed(c[:-1]):
        out = _times_line(out, a)
        out[0] += ck
    return out


def _polyval(x, c):
    """``npoly.polyval`` at one point x."""
    acc = c[-1] + x * 0.0
    for ck in reversed(c[:-1]):
        acc = ck + acc * x
    return acc


def _polyint(c):
    """``npoly.polyint(c)``: the primitive vanishing at 0. A lone zero
    coefficient stays one coefficient, as numpy keeps it."""
    if len(c) == 1 and c[0] == 0:
        return [c[0] + 0.0]
    prim = [c[0] * 0.0, c[0], *(ck / (k + 1) for k, ck in enumerate(c[1:], start=1))]
    prim[0] += 0.0 - _polyval(0.0, prim)
    return prim


def definite_integral(c, h):
    """int_0^h of the polynomial with ascending coefficient list c, as
    ``npoly.polyval(h, npoly.polyint(c))`` forms it."""
    return _polyval(h, _polyint(c))


def _integral(widths, lists):
    total = 0.0
    for h, c in zip(widths, lists):
        total += definite_integral(c, h)
    return total
