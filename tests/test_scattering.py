import numpy as np
import pytest

import starcoupling as sc
from conftest import pairing_of_W_with_potential
from starcoupling import (
    EdgeCoordinate,
    FredholmSingular,
    PiecewisePolynomial,
    StarPotential,
)


@pytest.fixture
def op_small(vstar, lam_neg):
    return sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.01)


@pytest.fixture
def op_zero(zero_potential, free_scaling):
    return sc.EpsOperator(potential=zero_potential, scaling=free_scaling, eps=0.1)


class TestAssembleF:
    def test_vertex_value(self):
        assert sc.assemble_F(1, 2.0, EdgeCoordinate(2, 0.0), 3) == pytest.approx(2.0 / 3.0)

    def test_other_edge_plane_wave(self):
        got = sc.assemble_F(1, 2.0, EdgeCoordinate(2, 0.4), 4)
        assert got == pytest.approx(0.5 * np.exp(0.8j), abs=1e-15)

    def test_incoming_edge_combination(self):
        got = sc.assemble_F(1, np.pi, EdgeCoordinate(1, 0.5), 2)
        assert got == pytest.approx(-1j, abs=1e-14)


class TestAssembleW:
    def test_zero_potential(self, op_zero):
        assert sc.assemble_W(op_zero, 1.0, 1, 0.05) == 0.0

    def test_out_of_range_rejected(self, op_small):
        with pytest.raises(ValueError):
            sc.assemble_W(op_small, 1.0, 1, 0.5)

    def test_second_derivative_identity(self, vstar, lam_neg):
        # W solves W'' + k^2 W = (lambda(eps)/eps^3) V_eps on each edge
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.5)
        k, j, x0, h = 1.3, 1, 0.2, 1e-4
        w = lambda x: sc.assemble_W(op, k, j, x)
        lhs = (w(x0 - h) - 2.0 * w(x0) + w(x0 + h)) / h**2 + k**2 * w(x0)
        rhs = op.lambda_value / op.eps**3 * vstar.profiles[0].evaluate(x0 / op.eps)
        assert lhs == pytest.approx(rhs, rel=1e-6)

    def test_pairing_with_potential_matches_bilinear_form(self, op_small):
        # D from the bilinear form against sum_j int W V_eps integrated
        # adaptively from the W columns
        _, D = sc.fredholm(op_small, 1.0)
        assert D == pytest.approx(pairing_of_W_with_potential(op_small, 1.0), abs=1e-10)


class TestFredholm:
    def test_zero_potential(self, op_zero):
        N, D = sc.fredholm(op_zero, 1.0)
        assert np.all(N == 0.0) and D == 0.0

    def test_numerator_asymptotics(self, vstar, lam_neg):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=1e-3)
        k, i = 1.0, 1
        N = sc.fredholm(op, k)[0][i - 1]
        theta = op.constants.theta
        weights = np.full(3, 1.0 / 3.0)
        weights[i - 1] -= 1.0
        predicted = 2j * k * op.eps**2 * float(weights @ theta)
        assert abs(N / predicted - 1.0) <= 0.01

    def test_denominator_asymptotics(self, vstar, lam_neg):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=1e-3)
        k = 1.0
        _, D = sc.fredholm(op, k)
        cc = op.constants
        predicted = op.lambda_value * (cc.A + 1j * k * op.eps * cc.B)
        assert abs(D / predicted - 1.0) <= 0.01

    def test_one_denominator_serves_every_incoming_edge(self, op_small):
        # every edge's solve divides by the one D of the bilinear form
        N, D = sc.fredholm(op_small, 1.0)
        assert D == sc.fredholm_D_direct(op_small, 1.0)
        for i in (1, 3):
            inner = sc.scattering_solution(op_small, i, 1.0).inner_v
            assert abs(inner * (1.0 - D) - N[i - 1]) <= 1e-12


class TestFredholmSolve:
    def test_zero_potential(self, op_zero):
        assert sc.scattering_solution(op_zero, 1, 1.0).inner_v == 0.0

    def test_fredholm_identity(self, op_small):
        inner = sc.scattering_solution(op_small, 1, 1.0).inner_v
        N, D = sc.fredholm(op_small, 1.0)
        assert abs(inner * (1.0 - D) - N[0]) <= 1e-12

    def test_denominator_vanishes_at_resolvent_pole(self, vstar, lam_neg):
        # continue D to k = i kappa: 1 - D then equals (lambda/eps^3) times
        # the pole equation, so it changes sign across the bound state
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.05)
        pole = sc.find_pole(op)
        g = lambda kappa: (1.0 - sc.fredholm_D_direct(op, 1j * kappa)).real
        assert g(pole.kappa - 1e-3) * g(pole.kappa + 1e-3) < 0
        scale = op.lambda_value / op.eps**3
        for kappa in (0.5, pole.kappa + 0.1):
            lhs = 1.0 - sc.fredholm_D_direct(op, 1j * kappa)
            rhs = scale * sc.pole_equation(op, kappa)
            assert lhs.real == pytest.approx(rhs, rel=1e-9)
            assert abs(lhs.imag) <= 1e-9 * abs(rhs)

    def test_singular_denominator_raises(self, op_small, monkeypatch):
        import starcoupling.scattering as scat

        monkeypatch.setattr(scat, "fredholm", lambda op, k: (np.ones(op.n), 1.0))
        with pytest.raises(FredholmSingular):
            sc.scattering_solution(op_small, 1, 1.0)
        with pytest.raises(FredholmSingular):
            sc.smatrix_eps(op_small, 1.0)


class TestSMatrixEps:
    def test_zero_potential_kirchhoff(self, op_zero):
        s = sc.smatrix_eps(op_zero, 1.0)
        expected = (2.0 / 3.0) * np.ones((3, 3)) - np.eye(3)
        np.testing.assert_allclose(s.entries, expected, atol=1e-15)

    def test_convergence_to_limit(self, vstar, lam_neg):
        epss = [2**-3, 2**-4, 2**-5, 2**-6, 2**-7]
        errors = []
        for eps in epss:
            op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=eps)
            s_eps = sc.smatrix_eps(op, 1.0)
            s_lim = sc.smatrix_limit(1.0, op.constants)
            errors.append(np.linalg.norm(s_eps.entries - s_lim.entries, 2))
        fit = sc.fit_rate("smatrix", epss, errors)
        assert 0.8 <= fit.slope <= 1.2

    def test_unitary_and_symmetric_at_finite_eps(self, vstar, lam_neg):
        for eps, k in [(0.1, 0.5), (0.01, 1.0), (0.25, 5.0)]:
            op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=eps)
            s = sc.smatrix_eps(op, k)
            assert s.unitarity_defect() <= 1e-8
            assert s.symmetry_defect() <= 1e-8

    def test_rejects_nonpositive_momentum(self, op_small):
        with pytest.raises(ValueError):
            sc.smatrix_eps(op_small, 0.0)


class TestScatteringSolution:
    def test_row_matches_smatrix(self, op_small):
        sol = sc.scattering_solution(op_small, 2, 1.0)
        s = sc.smatrix_eps(op_small, 1.0)
        np.testing.assert_allclose(sol.amplitudes, s.entries[1], atol=1e-12)

    def test_plane_wave_beyond_support(self, op_small):
        sol = sc.scattering_solution(op_small, 1, 1.0)
        k = 1.0
        for j, x in [(1, 0.5), (2, 0.02), (3, 1.7)]:
            got = sc.scattering_solution_eval(sol, EdgeCoordinate(j, x))
            delta = 1.0 if j == 1 else 0.0
            expected = delta * np.exp(-1j * k * x) + sol.amplitudes[j - 1] * np.exp(1j * k * x)
            assert got == pytest.approx(expected, abs=1e-14)

    def test_fredholm_identity_of_pieces(self, op_small):
        N, D = sc.fredholm(op_small, 1.0)
        sol = sc.scattering_solution(op_small, 1, 1.0)
        inner = sol.inner_v
        assert abs(inner * (1.0 - D) - N[0]) <= 1e-12
        # the pieces reproduce the solution pointwise inside the support
        for j, x in [(1, 0.004), (2, 0.008)]:
            lhs = sc.scattering_solution_eval(sol, EdgeCoordinate(j, x))
            W = sc.assemble_W(op_small, 1.0, j, x)
            F = sc.assemble_F(1, 1.0, EdgeCoordinate(j, x), op_small.n)
            rhs = inner * W + F
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_vertex_continuity(self, vstar, lam_neg):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.05)
        for i in (1, 2):
            sol = sc.scattering_solution(op, i, 1.0)
            vals = [
                sc.scattering_solution_eval(sol, EdgeCoordinate(j, 0.0)) for j in (1, 2, 3)
            ]
            assert max(abs(v - vals[0]) for v in vals) <= 1e-9

    def test_vertex_derivative_sum(self, vstar, lam_neg):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.05)
        for i in (1, 3):
            sol = sc.scattering_solution(op, i, 1.0)
            total = sum(
                sc.scattering_solution_deriv(sol, EdgeCoordinate(j, 0.0)) for j in (1, 2, 3)
            )
            assert abs(total) <= 1e-9

    @pytest.mark.parametrize(
        "values, supports",
        [
            ([1.0, -1.0, 0.0], [1.0, 1.0, 1.0]),
            ([1.0, -0.5, -0.5], [1.0, 1.0, 1.0]),
            ([2.0, -1.0, -1.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
            ([1.0, -0.5, 0.0], [0.5, 1.0, 1.0]),
        ],
    )
    def test_interior_term_at_vertex_and_inside(self, lam_neg, values, supports):
        # for constant profiles the integral over the rest of the support has
        # a closed form: int_u^s sin k(x - eps v) dv = (cos k(x - eps s) - 1)/(k eps)
        # and int_u^s cos k(x - eps v) dv = sin k(eps s - x)/(k eps), u = x/eps
        potential = StarPotential(
            [PiecewisePolynomial.constant(v, (0.0, s)) for v, s in zip(values, supports)]
        )
        eps, k = 2**-5, 1.0
        op = sc.EpsOperator(potential=potential, scaling=lam_neg, eps=eps)
        sol = sc.scattering_solution(op, 1, k)
        scale = op.lambda_value * sol.inner_v / eps**2
        for j, (v, s) in enumerate(zip(values, supports), start=1):
            for x in (0.0, 0.25 * eps):
                delta = 1.0 if j == 1 else 0.0
                out = sol.amplitudes[j - 1] * np.exp(1j * k * x)
                tail_sin = v * (np.cos(k * (x - eps * s)) - 1.0) / (k * eps)
                tail_cos = v * np.sin(k * (eps * s - x)) / (k * eps)
                value = delta * np.exp(-1j * k * x) + out - scale / k * tail_sin
                deriv = 1j * k * (out - delta * np.exp(-1j * k * x)) - scale * tail_cos
                point = EdgeCoordinate(j, x)
                got = sc.scattering_solution_eval(sol, point)
                assert got == pytest.approx(value, abs=1e-12)
                assert sc.scattering_solution_deriv(sol, point) == pytest.approx(
                    deriv, abs=1e-12
                )

    def test_derivative_matches_finite_difference(self, op_small):
        sol = sc.scattering_solution(op_small, 1, 1.0)
        h = 1e-6
        for j, x in [(1, 0.004), (2, 0.5)]:
            fd = (
                sc.scattering_solution_eval(sol, EdgeCoordinate(j, x + h))
                - sc.scattering_solution_eval(sol, EdgeCoordinate(j, x - h))
            ) / (2.0 * h)
            exact = sc.scattering_solution_deriv(sol, EdgeCoordinate(j, x))
            assert fd == pytest.approx(exact, rel=1e-5, abs=1e-6)
