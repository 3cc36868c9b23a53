import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import quad

import starcoupling as sc
import starcoupling.epsilon as eps_mod

#: drawn polynomial coefficients on a grid of 1e-3, so that a drawn
#: potential is either zero or far from underflowing A
coefficient = st.integers(-1000, 1000).map(lambda m: m / 1000.0)


@pytest.fixture
def vstar():
    """Reference potential: +1 and -1 on the first two edges, zero on the third."""
    return sc.StarPotential.from_constants([1.0, -1.0, 0.0])


@pytest.fixture
def lam_neg():
    return sc.ScalingFunction(lambda1=-1.0, resonant=True)


@pytest.fixture
def lam_pos():
    return sc.ScalingFunction(lambda1=1.0, resonant=True)


@pytest.fixture
def cc_neg(vstar, lam_neg):
    return sc.coupling_constants(vstar, lam_neg)


@pytest.fixture
def cc_pos(vstar, lam_pos):
    return sc.coupling_constants(vstar, lam_pos)


@pytest.fixture
def zero_potential():
    return sc.StarPotential([sc.PiecewisePolynomial.zero() for _ in range(3)])


@pytest.fixture
def free_scaling():
    return sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0)


@pytest.fixture(scope="module")
def bumpy_potential():
    """Two edges: a piecewise (x^2 + 1 | -1) profile with an interior breakpoint."""
    rising = sc.PiecewisePolynomial.from_global_coeffs(
        [((0.0, 0.5), [1.0, 0.0, 1.0]), ((0.5, 1.0), [-1.0])]
    )
    # constant edge balancing the total mean to zero exactly
    balance = sc.PiecewisePolynomial.constant(-rising.integral())
    return sc.StarPotential([rising, balance])


@pytest.fixture(scope="module")
def shifted_potential():
    # support detached from the vertex: [0.3, 0.8] instead of [0, 1]
    bump = sc.PiecewisePolynomial.from_global_coeffs([((0.3, 0.8), [2.0])])
    balance = sc.PiecewisePolynomial.constant(-bump.integral())
    return sc.StarPotential([bump, balance])


def distinct_theta(rng, n, low=-2.0, high=2.0, gap=1e-3):
    """Random moment vector with all pairwise gaps above ``gap``."""
    while True:
        theta = rng.uniform(low, high, n)
        offdiag = np.abs(np.subtract.outer(theta, theta))[~np.eye(n, dtype=bool)]
        if offdiag.min() > gap:
            return theta


def pairing_of_W_with_potential(op, k):
    """Independent oracle for the Fredholm denominator D at real momentum k.

    Integrates sum_j int_0^eps W_j V_eps with adaptive quadrature per profile
    cell, real and imaginary parts apart, calling the public W column.
    """
    total = 0.0 + 0.0j
    for j, p in enumerate(op.potential.profiles, start=1):
        if p.is_zero():
            continue
        for a, b in zip(p.breakpoints[:-1], p.breakpoints[1:]):
            for part, unit in ((np.real, 1.0), (np.imag, 1j)):
                value, _ = quad(
                    lambda u: part(sc.assemble_W(op, k, j, op.eps * u)) * p.evaluate(u),
                    a,
                    b,
                    epsabs=1e-14,
                    epsrel=1e-13,
                    limit=200,
                )
                total += unit * op.eps * value
    return total


def symmetric_same_edge_integrand(c):
    """The pairing's same-edge integrand in the symmetric min/max form that
    ``epsilon._same_edge_integrand`` took before its nodes came ordered:
    g(Vx, Vy, x, y) == g(Vy, Vx, y, x) bit for bit, at any two nodes."""
    if np.iscomplexobj(c) and not np.any(c.real):
        theta = -c.imag

        def real_k(Vx, Vy, x, y):
            s = Vx * Vy * (2.0 * np.sin(theta * np.minimum(x, y)))
            phase = theta * np.maximum(x, y)
            out = np.empty(s.shape, dtype=complex)
            np.multiply(s, np.sin(phase), out=out.real)
            np.multiply(s, np.cos(phase), out=out.imag)
            np.negative(out.imag, out=out.imag)
            return out

        return real_k
    return lambda Vx, Vy, x, y: (
        Vx * Vy * np.exp(-c * (x + y)) * np.expm1(2.0 * c * np.minimum(x, y))
    )


def symmetric_cell_loop(rule, f, breaks):
    """The double integral of a symmetric f summed as the cell loop did
    before it passed ordered nodes: a diagonal cell counts f(X, Y) on its
    lower triangle twice, an off-diagonal cell takes f(x[:, None], y[None, :])."""
    breaks = np.asarray(breaks, dtype=float)
    total = 0.0
    for i in range(breaks.size - 1):
        for j in range(breaks.size - 1):
            if i == j:
                a, b = breaks[i], breaks[i + 1]
                s, ws = rule.points(0.0, 1.0)
                h = b - a
                S = s[:, None]
                X = a + h * S
                Y = a + h * S * s[None, :]
                wgt = (h * h) * (ws[:, None] * ws[None, :]) * S
                total = total + 2.0 * np.sum(wgt * f(X, Y), axis=(-2, -1))
            else:
                x, wx = rule.points(breaks[i], breaks[i + 1])
                y, wy = rule.points(breaks[j], breaks[j + 1])
                vals = f(x[:, None], y[None, :])
                total = total + np.sum(wx[:, None] * wy[None, :] * vals, axis=(-2, -1))
    return total


def symmetric_pairing_raw(op, a, rule, double_integral=symmetric_cell_loop):
    """``epsilon._pairing_raw`` with the symmetric same-edge integrand summed
    by ``double_integral(rule, f, breaks)``, profiles evaluated in place."""
    c = np.asarray(a * op.eps)
    g = symmetric_same_edge_integrand(c)
    diag = 0.0
    for p in op.potential.profiles:
        if not p.is_zero():

            def f(x, y, p=p):
                return g(p.evaluate(x), p.evaluate(y), x, y)

            diag += double_integral(rule, f, p.breakpoints)
    residuals = eps_mod._shared_in_c(op, eps_mod._moment_residuals, a * op.eps, rule)
    smoment = eps_mod._moment_sum(op, residuals)
    return (op.eps**2 / (2.0 * a)) * (diag + (2.0 / op.n) * smoment**2)
