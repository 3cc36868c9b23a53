"""End-to-end consistency on a two-edge graph with nonuniform profiles.

Everything upstream is exercised with multi-piece, non-constant profiles:
exact moments, the diagonal-split double integrals, the degenerate
Fredholm solve, the pole search, and the dual closed-form/dense-solve
routes, all against each other.
"""

import numpy as np
import pytest

import starcoupling as sc
from conftest import pairing_of_W_with_potential
from starcoupling import EdgeCoordinate


@pytest.fixture(scope="module")
def bumpy_scaling():
    return sc.ScalingFunction(lambda1=-1.0, resonant=True, higher=(0.5,))


@pytest.fixture(scope="module")
def bumpy_cc(bumpy_potential, bumpy_scaling):
    return sc.coupling_constants(bumpy_potential, bumpy_scaling)


def test_exact_moments(bumpy_potential, bumpy_cc):
    # int_0^0.5 x(x^2+1) dx - int_0.5^1 x dx and the balancing edge moment
    theta1 = (0.5**4 / 4.0 + 0.5**2 / 2.0) - (1.0 - 0.25) / 2.0
    mean1 = 0.5**3 / 3.0 + 0.5 - 0.5
    assert bumpy_cc.theta[0] == pytest.approx(theta1, abs=1e-15)
    assert bumpy_cc.theta[1] == pytest.approx(-mean1 / 2.0, abs=1e-15)
    assert bumpy_potential.total_mean() == pytest.approx(0.0, abs=1e-15)


def test_closed_forms_match_dense_solves(bumpy_cc):
    bp = sc.boundary_matrices(bumpy_cc.theta, bumpy_cc.beta)
    assert sc.check_selfadjoint(bp)
    for k in (0.3, 1.7, 6.0):
        s_closed = sc.smatrix_limit(k, bumpy_cc)
        s_direct = sc.smatrix_direct(k, bp)
        np.testing.assert_allclose(s_closed.entries, s_direct.entries, atol=1e-10)
        lam_closed = sc.lambda_matrix(k, bumpy_cc)
        lam_direct = sc.lambda_matrix_direct(k, bp)
        np.testing.assert_allclose(lam_closed, lam_direct, atol=1e-10)


def test_pole_approaches_limit(bumpy_potential, bumpy_scaling, bumpy_cc):
    kappa_limit, kind = sc.limit_pole(bumpy_cc)
    assert kind == "bound"
    gaps = []
    for eps in (0.04, 0.02):
        op = sc.EpsOperator(potential=bumpy_potential, scaling=bumpy_scaling, eps=eps)
        pole = sc.find_pole(op)
        gaps.append(abs(pole.kappa - kappa_limit))
    assert gaps[1] < 0.6 * gaps[0]
    assert gaps[1] <= 0.05 * kappa_limit


def test_eps_smatrix_converges_linearly(bumpy_potential, bumpy_scaling, bumpy_cc):
    epss = [2**-3, 2**-4, 2**-5, 2**-6]
    errors = []
    for eps in epss:
        op = sc.EpsOperator(potential=bumpy_potential, scaling=bumpy_scaling, eps=eps)
        s_eps = sc.smatrix_eps(op, 1.3)
        assert s_eps.unitarity_defect() <= 1e-8
        assert s_eps.symmetry_defect() <= 1e-8
        errors.append(
            float(np.linalg.norm(s_eps.entries - sc.smatrix_limit(1.3, bumpy_cc).entries, 2))
        )
    fit = sc.fit_rate("bumpy_smatrix", epss, errors)
    assert 0.8 <= fit.slope <= 1.2


def test_eps_kernel_pointwise_limit(bumpy_potential, bumpy_scaling, bumpy_cc):
    lk = sc.LimitKernel(bumpy_cc, 1.0)
    target = lk.on_grid(1, 2, [1.5], [2.5])[0, 0]
    gaps = []
    for eps in (0.1, 0.05, 0.025):
        op = sc.EpsOperator(potential=bumpy_potential, scaling=bumpy_scaling, eps=eps)
        ek = sc.EpsKernel(op, 1.0)
        gaps.append(abs(ek.on_grid(1, 2, [1.5], [2.5])[0, 0] - target))
    assert gaps[2] < gaps[1] < gaps[0]
    assert gaps[2] <= 0.35 * gaps[0]


def test_fredholm_identity_holds(bumpy_potential, bumpy_scaling):
    op = sc.EpsOperator(potential=bumpy_potential, scaling=bumpy_scaling, eps=0.05)
    N, D = sc.fredholm(op, 1.3)
    for i in (1, 2):
        inner = sc.scattering_solution(op, i, 1.3).inner_v
        assert abs(inner * (1.0 - D) - N[i - 1]) <= 1e-12
    assert D == pytest.approx(pairing_of_W_with_potential(op, 1.3), abs=1e-10)


@pytest.mark.parametrize("k", [0.5, 1.0, 5.0])
@pytest.mark.parametrize("potential", ["vstar", "bumpy_potential", "shifted_potential"])
def test_denominator_matches_adaptive_pairing(request, potential, k):
    # D of every solve against sum_j int W_j V_eps integrated by scipy's
    # adaptive quadrature from the public W columns
    op = sc.EpsOperator(
        potential=request.getfixturevalue(potential),
        scaling=sc.ScalingFunction(lambda1=-1.0, resonant=True),
        eps=0.05,
    )
    _, D = sc.fredholm(op, k)
    assert pairing_of_W_with_potential(op, k) == pytest.approx(D, rel=1e-10, abs=1e-10)


def test_shifted_support_profile_pipeline(shifted_potential):
    V = shifted_potential
    sc.validate_potential(V)
    scaling = sc.ScalingFunction(lambda1=-1.0, resonant=True)
    cc = sc.coupling_constants(V, scaling)
    assert cc.theta[0] == pytest.approx(0.8**2 - 0.3**2, abs=1e-15)

    op = sc.EpsOperator(potential=V, scaling=scaling, eps=0.1)
    assert sc.smatrix_eps(op, 1.0).unitarity_defect() <= 1e-8
    pole = sc.find_pole(op)
    kappa_limit, kind = sc.limit_pole(cc)
    assert kind == "bound"
    assert abs(pole.kappa - kappa_limit) <= 0.05 * kappa_limit
    fd = sc.oracle_eigenvalue(op, L=20.0, h=5e-3)
    assert abs(fd - pole.eigenvalue) <= 1e-2 * abs(pole.eigenvalue)


def test_vertex_conditions_of_scattering_wave(bumpy_potential, bumpy_scaling):
    op = sc.EpsOperator(potential=bumpy_potential, scaling=bumpy_scaling, eps=0.05)
    sol = sc.scattering_solution(op, 2, 1.3)
    vals = [sc.scattering_solution_eval(sol, EdgeCoordinate(j, 0.0)) for j in (1, 2)]
    ders = [sc.scattering_solution_deriv(sol, EdgeCoordinate(j, 0.0)) for j in (1, 2)]
    assert abs(vals[0] - vals[1]) <= 1e-9
    assert abs(sum(ders)) <= 1e-9
