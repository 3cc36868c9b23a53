import numpy as np
import pytest
from scipy.integrate import quad

import starcoupling as sc


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
