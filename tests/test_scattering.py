from pathlib import Path

import numpy as np
import pytest

import starcoupling as sc
import starcoupling.epsilon as eps_mod
import truth_vstar
from conftest import pairing_of_W_with_potential
from starcoupling import (
    AtPole,
    EdgeCoordinate,
    PiecewisePolynomial,
    StarPotential,
)
from starcoupling.epsilon import denominator
from starcoupling.scattering import numerators

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


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
        # d = (eps^3/lambda)(1 - D) from the bilinear form against D = sum_j
        # int W V_eps integrated adaptively from the W columns
        lead = op_small.eps**3 / op_small.lambda_value
        want = lead * (1.0 - pairing_of_W_with_potential(op_small, 1.0))
        assert abs(denominator(op_small, 1.0) - want) <= 1e-10 * abs(lead)


class TestFredholm:
    def test_zero_potential(self, op_zero):
        N, d = numerators(op_zero, 1.0), denominator(op_zero, 1.0)
        assert np.all(N == 0.0) and d == op_zero.eps**3 / op_zero.lambda_value

    def test_numerator_asymptotics(self, vstar, lam_neg):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=1e-3)
        k, i = 1.0, 1
        N = numerators(op, k)[i - 1]
        theta = op.constants.theta
        weights = np.full(3, 1.0 / 3.0)
        weights[i - 1] -= 1.0
        predicted = 2j * k * op.eps**2 * float(weights @ theta)
        assert abs(N / predicted - 1.0) <= 0.01

    def test_denominator_asymptotics(self, vstar, lam_neg):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=1e-3)
        k = 1.0
        D = 1.0 - op.lambda_value / op.eps**3 * denominator(op, k)
        cc = op.constants
        predicted = op.lambda_value * (cc.A + 1j * k * op.eps * cc.B)
        assert abs(D / predicted - 1.0) <= 0.01

    def test_one_denominator_serves_every_incoming_edge(self, op_small):
        # every edge's solve, and every row of S, divides by the one d
        N, d = numerators(op_small, 1.0), denominator(op_small, 1.0)
        strength = op_small.lambda_value / op_small.eps**3
        for i in (1, 3):
            inner = sc.scattering_solution(op_small, i, 1.0).inner_v
            assert abs(strength * inner * d - N[i - 1]) <= 1e-12
        want = N[:, None] * N[None, :] / (2j * 1.0 * d) + 2.0 / 3.0 - np.eye(3)
        assert np.array_equal(sc.smatrix_eps(op_small, 1.0).entries, want)


class TestFredholmSolve:
    def test_zero_potential(self, op_zero):
        assert sc.scattering_solution(op_zero, 1, 1.0).inner_v == 0.0

    def test_fredholm_identity(self, op_small):
        # <psi, V_eps> (1 - D) = N with 1 - D = (lambda/eps^3) d
        inner = sc.scattering_solution(op_small, 1, 1.0).inner_v
        N, d = numerators(op_small, 1.0), denominator(op_small, 1.0)
        assert abs(op_small.lambda_value * inner * d / op_small.eps**3 - N[0]) <= 1e-12

    def test_denominator_vanishes_at_resolvent_pole(self, vstar, lam_neg):
        # continued to k = i kappa, d is the pole equation bit for bit, so it
        # changes sign across the bound state
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.05)
        pole = sc.find_pole(op)
        g = lambda kappa: denominator(op, 1j * kappa)
        assert g(pole.kappa - 1e-3) * g(pole.kappa + 1e-3) < 0
        for kappa in (0.5, pole.kappa + 0.1):
            assert g(kappa) == sc.pole_equation(op, kappa)

    def test_singular_denominator_raises(self, op_small, monkeypatch):
        # a pairing that cancels eps^3/lambda exactly: d = 0 at every k
        cancel = lambda op, k, rule: np.full(np.shape(k), -op.eps**3 / op.lambda_value + 0j)
        monkeypatch.setattr(eps_mod, "_pairing", cancel)
        with pytest.raises(AtPole, match="S-matrix denominator .* at k = 1.0"):
            sc.scattering_solution(op_small, 1, 1.0)
        with pytest.raises(AtPole, match="S-matrix denominator .* at k = 2.0"):
            sc.smatrix_eps(op_small, [2.0, 3.0])


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
        N, d = numerators(op_small, 1.0), denominator(op_small, 1.0)
        sol = sc.scattering_solution(op_small, 1, 1.0)
        inner = sol.inner_v
        assert abs(op_small.lambda_value * inner * d / op_small.eps**3 - N[0]) <= 1e-12
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


class TestClosedFormTruth:
    # ``truth_vstar``: the S-matrix of the shipped constant profiles at 40 digits

    def test_smatrix_eps_on_the_shipped_triples(self):
        # every entry on all 42 shipped (config, eps, k), each rung's momenta one
        # batch as ``converge`` forms them; 7.4e-14 at worst, 8.8e-14 through 1 - D
        rungs = {}
        for name, amplitudes, lam, eps, k in truth_vstar.shipped_triples():
            truth = truth_vstar.smatrix_eps(amplitudes, lam, eps, k)
            rungs.setdefault((name, eps), []).append((k, [list(map(complex, r)) for r in truth]))
        assert sum(map(len, rungs.values())) == 42
        for (name, eps), cells in rungs.items():
            config = sc.load_config(CONFIG_DIR / f"{name}.json")
            rule = sc.QuadratureRule(order=config.quad_order)
            op = sc.EpsOperator(config.build_potential(), config.build_scaling(), eps, rule)
            got = sc.smatrix_eps(op, np.array([k for k, _ in cells])).entries
            assert np.abs(got - np.array([s for _, s in cells])).max() <= 1e-12

    def test_truth_tends_to_the_limit_at_rate_one(self, vstar):
        # the closed form against the limit's own closed form: the gap halves
        # with eps, as S_eps - S_lim = eps S_1 + O(eps^2)
        for scaling in ({"resonant": True, "lambda1": -1.0}, {"resonant": True, "lambda1": 1.0}):
            cc = sc.coupling_constants(vstar, sc.ScalingFunction(**scaling))
            limit = sc.smatrix_limit(1.0, cc).entries
            gaps = []
            for eps in (2.0**-12, 2.0**-13):
                lam = truth_vstar.lambda_value(scaling, [1.0, -1.0, 0.0], eps)
                truth = truth_vstar.smatrix_eps([1.0, -1.0, 0.0], lam, eps, 1.0)
                gaps.append(np.abs(np.array([list(map(complex, r)) for r in truth]) - limit).max())
            assert gaps[0] / gaps[1] == pytest.approx(2.0, rel=1e-2)
