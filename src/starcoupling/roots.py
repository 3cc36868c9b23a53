"""Brent's bracketed root search, ported line for line from SciPy's ``brentq.c``.

The iteration is Brent's (*Algorithms for Minimization without
Derivatives*, 1973, ch. 4): inverse quadratic or secant steps, accepted
only while they shrink the bracket fast enough, else bisection. Every
operation runs in the order of SciPy's C code, so the roots equal
``scipy.optimize.brentq``'s bit for bit. It is kept here so that no
command imports ``scipy.optimize`` (about 0.6 s) for one scalar routine.
"""

from __future__ import annotations

import math
import sys

from .errors import RootSearchFailed

#: default absolute tolerance, as in SciPy
XTOL = 2e-12
#: smallest admissible relative tolerance, 4 machine epsilons, as in SciPy
RTOL = 4 * sys.float_info.epsilon
#: default iteration budget, as in SciPy
MAXITER = 100


def brentq(f, a, b, xtol=XTOL, rtol=RTOL, maxiter=MAXITER):
    """Root of the scalar function f in [a, b], as a float.

    f(a) and f(b) must differ in sign (ValueError otherwise). Converged
    when the bracket half-width falls below (xtol + rtol |x|)/2 or f
    vanishes. A NaN value of f, or no convergence within ``maxiter``
    steps, raises RootSearchFailed (exit 3).
    """
    if xtol <= 0:
        raise ValueError(f"xtol too small ({xtol:g} <= 0)")
    if rtol < RTOL:
        raise ValueError(f"rtol too small ({rtol:g} < {RTOL:g})")

    def value(x):
        fx = float(f(x))
        if math.isnan(fx):
            raise RootSearchFailed(f"function value at x = {x} is NaN")
        return fx

    xpre, xcur = float(a), float(b)
    fpre, fcur = value(xpre), value(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if (fpre < 0) == (fcur < 0):
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur

        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur

        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:
                # secant step
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:
                # inverse quadratic step
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                try:
                    stry = (
                        -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
                    )
                except ZeroDivisionError:
                    # the slopes' product underflowed: C gets an infinite or
                    # NaN step here, which the test below always rejects
                    stry = math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
                # the step shrinks the bracket fast enough
                spre, scur = scur, stry
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis

        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = value(xcur)
    raise RootSearchFailed(f"no convergence after {maxiter} Brent steps, x = {xcur}")
