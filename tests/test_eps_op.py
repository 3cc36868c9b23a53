import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import cumulative_trapezoid, trapezoid
from scipy.optimize import brentq

import starcoupling as sc
from starcoupling import (
    AtPole,
    PiecewisePolynomial,
    QuadratureNotConverged,
    StarPotential,
)
import starcoupling.epsilon as eps_mod
from conftest import coefficient
from starcoupling.config import parse_config
from starcoupling.quadrature import converged_value, merge_breaks

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


@pytest.fixture
def op_factory(vstar, lam_neg):
    def make(eps, scaling=None, potential=None):
        return sc.EpsOperator(
            potential=potential if potential is not None else vstar,
            scaling=scaling if scaling is not None else lam_neg,
            eps=eps,
        )

    return make


def trapezoid_pairing(profile_fn, c, n_edges, active_weight, n_grid=2_000_000):
    """Independent oracle for the resolvent pairing with one active edge.

    Uses the plain-exponential arrangement on a fine trapezoid grid:
    II f f e^{-c|x-y|} via a cumulative integral, minus the separable terms.
    """
    x = np.linspace(0.0, 1.0, n_grid)
    f = profile_fn(x)
    inner_cum = cumulative_trapezoid(f * np.exp(c * x), x, initial=0.0)
    double_abs = 2.0 * trapezoid(f * np.exp(-c * x) * inner_cum, x)
    g = trapezoid(f * np.exp(-c * x), x)
    return double_abs - g**2 + active_weight * g**2


class TestEpsOperator:
    def test_rejects_bad_eps(self, vstar, lam_neg):
        with pytest.raises(ValueError):
            sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.0)
        with pytest.raises(ValueError):
            sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=1.5)

    def test_rejects_vanishing_lambda(self, vstar):
        # lambda(eps) = -1 + eps vanishes at eps = 1
        lam = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=-1.0)
        with pytest.raises(ValueError):
            sc.EpsOperator(potential=vstar, scaling=lam, eps=1.0)

    def test_resolves_resonant_lambda0(self, op_factory):
        op = op_factory(0.1)
        assert op.lambda0 == pytest.approx(-1.5)
        assert op.lambda_value == pytest.approx(-1.6)


class TestInnerRVV:
    def test_zero_potential(self, zero_potential, free_scaling):
        op = sc.EpsOperator(potential=zero_potential, scaling=free_scaling, eps=0.25)
        assert sc.inner_RV_V(1.0, op) == 0.0

    def test_constant_profile_closed_form(self, op_factory):
        op = op_factory(0.25)
        c = 0.25
        double_abs = 2.0 * (c - 1.0 + np.exp(-c)) / c**2
        g = (1.0 - np.exp(-c)) / c
        expected = (0.25**2 / 2.0) * (2.0 * double_abs - 2.0 * g**2)
        assert sc.inner_RV_V(1.0, op) == pytest.approx(expected, abs=1e-14)

    def test_polynomial_profile_against_riemann_refinement(self, lam_neg):
        odd = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-0.5, 1.0])])
        V = StarPotential([odd, PiecewisePolynomial.zero(), PiecewisePolynomial.zero()])
        lam = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0)
        op = sc.EpsOperator(potential=V, scaling=lam, eps=0.25)
        kappa = 1.0
        c = op.eps * kappa
        bracket = trapezoid_pairing(odd.evaluate, c, 3, 2.0 / 3.0)
        expected = (op.eps**2 / (2.0 * kappa)) * bracket
        assert sc.inner_RV_V(kappa, op) == pytest.approx(expected, abs=1e-9)

    def test_small_eps_leading_term(self, op_factory):
        op = op_factory(1e-3)
        value = sc.inner_RV_V(1.0, op)
        ratio = value / (-op.constants.A * 1e-9)
        assert abs(ratio - 1.0) <= 5e-3

    def test_order_doubling_stability(self, op_factory):
        op32 = dataclasses.replace(op_factory(0.1), quad=sc.QuadratureRule(order=32))
        op64 = dataclasses.replace(op32, quad=sc.QuadratureRule(order=64))
        coarse = sc.inner_RV_V(2.0, op32)
        fine = sc.inner_RV_V(2.0, op64)
        assert abs(fine - coarse) <= 1e-10 * abs(fine)

    def test_rejects_nonpositive_kappa(self, op_factory):
        with pytest.raises(ValueError):
            sc.inner_RV_V(0.0, op_factory(0.1))

    @pytest.mark.parametrize("potential", ["vstar", "bumpy_potential", "shifted_potential"])
    def test_node_values_match_direct_evaluation(self, request, potential, lam_neg):
        # the pairing, D and the edge moments read the profiles from a table
        # of node values; evaluating them inside the integrand, in the same
        # products, must give the same bits at real c and for the moments.
        # D at real k is the running-integral sweep: the 2-d rule on the
        # complex form, profiles evaluated in place, agrees to rounding
        op = sc.EpsOperator(
            potential=request.getfixturevalue(potential), scaling=lam_neg, eps=0.1
        )
        rule = op.quad
        strength = op.lambda_value / op.eps**3
        for kappa in (0.7, 3.0):
            direct = converged_value(lambda r: _direct_pairing(op, kappa, r), rule)
            assert sc.inner_RV_V(kappa, op) == direct
        for k in (0.5, 5.0):
            direct = -strength * converged_value(
                lambda r: _direct_pairing(op, -1j * k, r), rule
            )
            assert abs(sc.fredholm_D_direct(op, k) - direct) <= 1e-13 * abs(direct)
        for k, a in ((0.7j, 0.7), (3.0j, 3.0), (0.5, -0.5j), (5.0, -5.0j)):
            direct = converged_value(lambda r: _direct_moments(op, a, r), rule)
            assert np.array_equal(eps_mod._edge_moments(op, k, rule), direct)


def _direct_moments(op, a, rule):
    # int V_j (e^{-a eps v} - 1) dv with the profile evaluated in the integrand
    c = a * op.eps
    out = np.zeros(op.n, dtype=np.result_type(c, 1.0))
    for j, p in enumerate(op.potential.profiles):
        if not p.is_zero():
            out[j] = rule.integrate(lambda v: p.evaluate(v) * np.expm1(-c * v), p.breakpoints)
    return out


def _direct_pairing(op, a, rule):
    # the pairing bracket at decay rate a, profiles evaluated in the
    # integrand of the 2-d rule, which the pairing takes at real c
    c = a * op.eps
    g = eps_mod._same_edge_integrand(c)
    diag = 0.0
    for p in op.potential.profiles:
        if p.is_zero():
            continue

        def f(lo, hi, p=p):
            return g(p.evaluate(lo), p.evaluate(hi), lo, hi)

        diag += rule.double_integral(f, p.breakpoints)
    smoment = sum(_direct_moments(op, a, rule)) + op.potential.total_mean()
    return (op.eps**2 / (2.0 * a)) * (diag + (2.0 / op.n) * smoment**2)


class TestSameEdgeIntegrand:
    # the pairing's same-edge integrand V(lo) V(hi) e^{-c(lo+hi)} expm1(2c lo)
    # on the ordered nodes lo <= hi that double_integral passes: triangle
    # cells' grids and columns, and tensor cells' rows and columns
    @staticmethod
    def _cells(rule):
        return [cell[:2] for cell in rule.cells([0.0, 0.25, 0.75, 1.0])]

    @staticmethod
    def _complex_form(c, Vx, Vy, x, y):
        return Vx * Vy * np.exp(-c * (x + y)) * np.expm1(2.0 * c * np.minimum(x, y))

    @pytest.mark.parametrize("c", [0.3, 2.0, 0.2 - 0.5j, -0.1 + 1j])
    def test_other_c_keeps_the_complex_form(self, bumpy_potential, c):
        # real c (the resolvent) and c with both parts nonzero keep the
        # complex form, in the same product order, bit for bit, with the
        # nodes taken in either order
        p = bumpy_potential.profiles[0]
        c = np.array([[c]])
        g = eps_mod._same_edge_integrand(c)
        for lo, hi in self._cells(sc.QuadratureRule(order=32)):
            Vlo, Vhi = p.evaluate(lo), p.evaluate(hi)
            got = g(Vlo, Vhi, lo, hi)
            assert np.array_equal(got, self._complex_form(c, Vlo, Vhi, lo, hi))
            assert np.array_equal(got, self._complex_form(c, Vhi, Vlo, hi, lo))

    @pytest.mark.parametrize("theta", np.geomspace(1e-4, 20.0, 13))
    def test_real_k_sweep_matches_the_complex_form(self, lam_neg, bumpy_potential, theta):
        # at real k, c = -i theta, the same-edge integrals are running
        # integrals swept over the cells; the 2-d rule on the complex
        # exp/expm1 form, with the profiles evaluated in place, agrees to
        # rounding at each of the two orders the check compares
        op = sc.EpsOperator(bumpy_potential, lam_neg, 0.5)
        c = np.asarray(-1j * theta)
        for rule in (op.quad, op.quad.doubled()):
            want = 0.0
            for p in bumpy_potential.profiles:
                if not p.is_zero():
                    want += rule.double_integral(
                        lambda lo, hi, p=p: self._complex_form(
                            c, p.evaluate(lo), p.evaluate(hi), lo, hi
                        ),
                        p.breakpoints,
                    )
            got = eps_mod._same_edge_integrals(op, c.reshape(1), rule)[0] / eps_mod._scale(op) ** 2
            assert abs(got - want) <= 1e-13 * abs(want)


def test_real_k_pairing_trig_count(monkeypatch, vstar, lam_neg):
    # the running-integral sweep takes sin and cos of theta x once per node
    # of each cell: 2 profiles x 2m at m = 32 and at the doubled 64, where
    # the 2-d rule took m^2 + 2m per triangle (10,624 values) and the
    # min/max form 3 m^2 (30,720)
    sc.fredholm_D_direct(sc.EpsOperator(vstar, lam_neg, 0.1), 1.0)  # rule caches warm
    counted = []
    for name in ("sin", "cos"):

        def counting(x, *args, trig=getattr(np, name), **kwargs):
            counted.append(np.size(x))
            return trig(x, *args, **kwargs)

        monkeypatch.setattr(np, name, counting)
    fresh = sc.StarPotential.from_constants([1.0, -1.0, 0.0])
    op = sc.EpsOperator(fresh, lam_neg, 0.1, sc.QuadratureRule(order=32))
    sc.fredholm_D_direct(op, 1.0)
    assert sum(counted) == 2 * (2 * 32 + 2 * 64) == 384


class TestZeta:
    def test_resonant_asymptotic_ratio(self, op_factory):
        op = op_factory(1e-3)
        cc = op.constants
        kappa = 1.0
        z = sc.zeta(op, kappa)
        ratio = z * op.eps**4 * (1.0 - kappa * cc.beta * cc.B) / (-cc.beta)
        assert abs(ratio - 1.0) <= 0.01

    def test_off_resonance_scales_like_eps_cubed(self, vstar):
        lam = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=-1.0)
        values = []
        for eps in (1e-2, 1e-3):
            op = sc.EpsOperator(potential=vstar, scaling=lam, eps=eps)
            values.append(sc.zeta(op, 1.0) * eps**3)
        expected = 1.0 / (1.0 / -1.0 - (-2.0 / 3.0))
        assert values[1] == pytest.approx(expected, rel=5e-2)
        assert values[0] == pytest.approx(values[1], rel=5e-2)

    def test_asymptotic_ratio_improves_linearly(self, op_factory):
        kappa = 1.0
        epss = [2**-3, 2**-4, 2**-5, 2**-6, 2**-7]
        deviations = []
        for eps in epss:
            op = op_factory(eps)
            cc = op.constants
            z = sc.zeta(op, kappa)
            ratio = z * op.eps**4 * (1.0 - kappa * cc.beta * cc.B) / (-cc.beta)
            deviations.append(abs(ratio - 1.0))
        fit = sc.fit_rate("zeta_ratio", epss, deviations)
        assert fit.slope >= 0.8

    def test_pole_guard_fires_at_root(self, op_factory):
        op = op_factory(0.05)
        pole = sc.find_pole(op)
        with pytest.raises(AtPole):
            sc.zeta(op, pole.kappa)

    def test_denominator_sign_change_brackets_pole(self, op_factory):
        op = op_factory(0.05)
        pole = sc.find_pole(op)
        below = sc.pole_equation(op, pole.kappa - 1e-3)
        above = sc.pole_equation(op, pole.kappa + 1e-3)
        assert below * above < 0


class TestEpsKernel:
    def test_zero_potential_reduces_to_free(self, zero_potential, free_scaling):
        op = sc.EpsOperator(potential=zero_potential, scaling=free_scaling, eps=0.25)
        ek = sc.EpsKernel(op, 1.0)
        fk = sc.FreeKernel(3, 1.0)
        for (i, x), (j, y) in [((1, 0.1), (2, 2.0)), ((3, 0.5), (3, 0.5))]:
            assert ek.on_grid(i, j, [x], [y])[0, 0] == pytest.approx(
                fk.on_grid(i, j, [x], [y])[0, 0], abs=1e-15
            )

    def test_pointwise_limit_off_support(self, op_factory, cc_neg):
        lk = sc.LimitKernel(cc_neg, 1.0)
        target = lk.on_grid(1, 2, [2.0], [3.0])[0, 0]
        errors = []
        for eps in (2**-3, 2**-4, 2**-5, 2**-6):
            ek = sc.EpsKernel(op_factory(eps), 1.0)
            got = ek.on_grid(1, 2, [2.0], [3.0])[0, 0]
            errors.append(abs(got - target))
        # linear-in-eps convergence: error drops by roughly half per halving
        assert all(e2 < 0.75 * e1 for e1, e2 in zip(errors, errors[1:]))
        assert errors[-1] <= 8.0 * (2**-6) * errors[0] / (2**-3)

    @pytest.mark.parametrize("kappa", [0.0, -1.0, float("nan")])
    def test_needs_positive_kappa(self, op_factory, kappa):
        with pytest.raises(ValueError):
            sc.EpsKernel(op_factory(0.1), kappa)

    def test_rank_one_factor_asymptotics(self, op_factory):
        op = op_factory(1e-3)
        cc = op.constants
        kappa, x, y = 1.0, 2.0, 3.0
        f1 = sc.rank_one_factor(op, kappa, 1, np.array([x]))[0]
        f2 = sc.rank_one_factor(op, kappa, 2, np.array([y]))[0]
        ratio = (f1 * f2) / (op.eps**4 * np.exp(-kappa * (x + y)) * cc.Pi[0, 1])
        assert abs(ratio - 1.0) <= 0.01

    @pytest.mark.parametrize(
        "values, supports",
        [
            ([1.0, -1.0, 0.0], [1.0, 1.0, 1.0]),
            ([1.0, -0.5, -0.5], [1.0, 1.0, 1.0]),
            ([2.0, -1.0, -1.0, 0.0], [1.0, 1.0, 1.0, 1.0]),
            ([1.0, -0.5, 0.0], [0.5, 1.0, 1.0]),
        ],
    )
    @pytest.mark.parametrize("eps", [2**-3, 2**-5, 2**-7])
    def test_rank_one_factor_at_vertex(self, lam_neg, values, supports, eps):
        # at x = 0 the factor is (eps/2kappa)(2/n) sum_j int V_j e^{-eps kappa v},
        # the same on every edge (Kirchhoff continuity) and O(eps^2) or zero
        # because the total mean vanishes; the order-doubling check must not
        # be relative to this cancelled sum
        potential = StarPotential(
            [PiecewisePolynomial.constant(v, (0.0, s)) for v, s in zip(values, supports)]
        )
        op = sc.EpsOperator(potential=potential, scaling=lam_neg, eps=eps)
        kappa = 1.0
        a = eps * kappa
        moments = [v * -np.expm1(-a * s) / a for v, s in zip(values, supports)]
        closed = (eps / (2.0 * kappa)) * (2.0 / op.n) * sum(moments)
        tol = 1e-12 * eps / (2.0 * kappa)
        factors = [
            sc.rank_one_factor(op, kappa, edge, [0.0])[0] for edge in range(1, op.n + 1)
        ]
        assert max(factors) - min(factors) <= tol
        assert all(abs(f - closed) <= tol for f in factors)

    def test_symmetry_under_swap(self, op_factory):
        ek = sc.EpsKernel(op_factory(0.1), 1.5)
        rng = np.random.default_rng(3)
        for _ in range(10):
            i, j = (int(v) for v in rng.integers(1, 4, 2))
            x, y = rng.uniform(0.0, 2.0, 2)
            a = ek.on_grid(i, j, [x], [y])[0, 0]
            b = ek.on_grid(j, i, [y], [x])[0, 0]
            assert a == pytest.approx(b, abs=1e-13)

    def test_column_solves_operator_equation(self, op_factory):
        # away from the source, a kernel column u satisfies
        # -u'' + kappa^2 u + (lambda/eps^3) V_eps(x) <u, V_eps> = 0;
        # checked by finite differences at a point inside the support
        op = op_factory(0.5)
        kappa = 1.1
        ek = sc.EpsKernel(op, kappa)
        j, y = 2, 1.7

        def column(edge, x):
            return ek.on_grid(edge, j, np.atleast_1d(x), np.array([y]))[:, 0].real

        rule = sc.QuadratureRule(order=64)
        pairing = 0.0
        for e in (1, 2, 3):
            p = op.potential.profiles[e - 1]
            if p.is_zero():
                continue
            pairing += op.eps * rule.integrate(
                lambda v, e=e, p=p: column(e, op.eps * v) * p.evaluate(v),
                p.breakpoints,
            )
        x0, h = 0.2, 1e-4
        d2 = (column(1, x0 - h)[0] - 2.0 * column(1, x0)[0] + column(1, x0 + h)[0]) / h**2
        rank_one = (
            op.lambda_value
            / op.eps**3
            * op.potential.profiles[0].evaluate(x0 / op.eps)
            * pairing
        )
        residual = -d2 + kappa**2 * column(1, x0)[0] + rank_one
        scale = max(abs(rank_one), kappa**2 * abs(column(1, x0)[0]))
        assert abs(residual) <= 1e-5 * scale


class TestFindPole:
    def test_pole_result_requires_positive_kappa(self):
        with pytest.raises(ValueError):
            sc.PoleResult(kappa=-1.0, eigenvalue=-1.0, residual=0.0)

    def test_resonant_root_near_limit_pole(self, op_factory):
        pole = sc.find_pole(op_factory(0.01))
        assert pole is not None
        assert abs(pole.kappa - 8.0 / 9.0) <= 0.05
        assert abs(pole.residual) <= eps_mod.TOL_ROOT
        assert pole.eigenvalue == -pole.kappa**2

    def test_positive_coupling_has_no_root(self, vstar, lam_pos):
        op = sc.EpsOperator(potential=vstar, scaling=lam_pos, eps=0.01)
        assert sc.find_pole(op) is None

    def test_non_resonant_above_threshold_has_no_root(self, vstar):
        lam = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=-1.0)
        op = sc.EpsOperator(potential=vstar, scaling=lam, eps=0.1)
        assert sc.find_pole(op) is None

    def test_explicit_bracket(self, op_factory):
        pole = sc.find_pole(op_factory(0.01), bracket=(0.5, 1.5))
        assert abs(pole.kappa - 8.0 / 9.0) <= 0.05

    def test_invalid_bracket(self, op_factory):
        with pytest.raises(ValueError):
            sc.find_pole(op_factory(0.01), bracket=(-1.0, 1.0))

    @pytest.mark.parametrize("name", ["vstar_resonant_neg", "vstar_nonresonant"])
    def test_default_search_bisects_with_scalar_calls(self, name, monkeypatch):
        # the predictor bracket's sign change is found from its two ends and
        # six midpoints, each a scalar call, and brentq starts from those
        config = sc.load_config(CONFIG_DIR / f"{name}.json")
        pole_equation, brent = eps_mod.pole_equation, eps_mod.brentq
        calls, before_brentq = [], []

        def counting(op, kappa):
            calls.append(np.ndim(kappa))
            return pole_equation(op, kappa)

        def brentq(f, a, b, **kwargs):
            before_brentq.append(len(calls))
            return brent(f, a, b, **kwargs)

        monkeypatch.setattr(eps_mod, "pole_equation", counting)
        monkeypatch.setattr(eps_mod, "brentq", brentq)
        for eps in (2**-3, 2**-5, 2**-7):
            calls.clear()
            before_brentq.clear()
            op = sc.EpsOperator(config.build_potential(), config.build_scaling(), eps)
            assert sc.find_pole(op) is not None
            assert set(calls) == {0}
            assert before_brentq == [8]

    def test_positive_coupling_evaluates_nothing(self, vstar, monkeypatch):
        # lambda(eps) > 0: g > 0 for every kappa, so there is nothing to search
        lam = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0)
        op = sc.EpsOperator(potential=vstar, scaling=lam, eps=0.1)
        monkeypatch.setattr(eps_mod, "pole_equation", None)
        assert sc.find_pole(op) is None

    @pytest.mark.parametrize(
        "lambda1, eps, kappa",
        [(-300.0, 0.125, 63.650), (-300.0, 0.0625, 86.686), (-30000.0, 0.125, 686.879)],
    )
    def test_root_below_the_predictor_bracket(self, lambda1, eps, kappa):
        # lambda1 = -300: the predictor bracket (133.3, 534.3) lies above the
        # root, so g(lo) <= 0, and the root is searched on [TOL_KAPPA, lo];
        # at -30000 the bracket starts at eps kappa = 1667, where the real-c
        # pairing overflows to NaN, and [TOL_KAPPA, kappa_max] is searched
        raw = json.loads((CONFIG_DIR / "vstar_resonant_neg.json").read_text())
        raw["scaling"]["lambda1"] = lambda1
        config = parse_config(raw)
        op = sc.EpsOperator(config.build_potential(), config.build_scaling(), eps)
        assert 0.5 * eps_mod.pole_asymptotic(op) > kappa
        with np.errstate(over="ignore", invalid="ignore"):
            pole = sc.find_pole(op)
        assert pole.kappa == pytest.approx(kappa, abs=1e-3)
        g = lambda kappa: eps_mod.pole_equation(op, kappa)
        assert g(pole.kappa * (1.0 - 1e-9)) > 0.0 > g(pole.kappa * (1.0 + 1e-9))
        assert pole.kappa < eps_mod.kappa_max(op)

    def test_nan_pole_equation_is_not_read_as_no_root(self):
        # lambda1 = -1e6 at eps 0.125: the predictor bracket and kappa_max =
        # 4000 lie past eps kappa of about 355, where the real-c pairing
        # overflows to NaN; the order-doubling check refuses a value that
        # is not finite, so the search fails
        raw = json.loads((CONFIG_DIR / "vstar_resonant_neg.json").read_text())
        raw["scaling"]["lambda1"] = -1e6
        config = parse_config(raw)
        op = sc.EpsOperator(config.build_potential(), config.build_scaling(), 0.125)
        assert op.eps * eps_mod.kappa_max(op) > 400.0
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(QuadratureNotConverged, match="not finite"):
                eps_mod.pole_equation(op, eps_mod.kappa_max(op))
            with pytest.raises(QuadratureNotConverged, match="not finite"):
                sc.find_pole(op)

    def test_root_above_the_predictor_bracket(self, op_factory, monkeypatch):
        # a bracket below the root: g(hi) > 0, and the root is searched on
        # [hi, kappa_max]; a raising bracket searches [TOL_KAPPA, kappa_max]
        op = op_factory(2**-3)
        # ||V||^2 = 2 for the +1, -1, 0 potential
        assert eps_mod.kappa_max(op) == math.sqrt(2.0 * abs(op.lambda_value)) / op.eps
        expected = sc.find_pole(op).kappa
        assert sc.find_pole(op, bracket=(0.1, 0.5)).kappa == pytest.approx(expected, rel=1e-12)
        pole_equation = eps_mod.pole_equation

        def raising_above(op, kappa):
            if kappa > 1.0:
                raise QuadratureNotConverged("above the bracket")
            return pole_equation(op, kappa)

        monkeypatch.setattr(eps_mod, "pole_equation", raising_above)
        monkeypatch.setattr(eps_mod, "kappa_max", lambda op: 1.0)
        assert sc.find_pole(op, bracket=(0.1, 2.0)).kappa == pytest.approx(expected, rel=1e-12)

    def test_eigenvalue_error_halves_with_eps(self, op_factory):
        limit_ev = -64.0 / 81.0
        errors = []
        for eps in (2**-3, 2**-4, 2**-5, 2**-6, 2**-7):
            pole = sc.find_pole(op_factory(eps))
            errors.append(abs(pole.eigenvalue - limit_ev))
        for e1, e2 in zip(errors, errors[1:]):
            assert 0.35 <= e2 / e1 <= 0.65


BRANCHES = {
    "resonant_neg": sc.ScalingFunction(lambda1=-1.0, resonant=True),
    "resonant_pos": sc.ScalingFunction(lambda1=1.0, resonant=True),
    "nonresonant": sc.ScalingFunction(lambda1=0.1, resonant=False, lambda0=-1.6),
}


def _drawn_cubic(seed=3):
    # three cubics on [0, 1], coefficients uniform in [-1, 1], the constant
    # terms shifted equally so that the total mean is zero
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, 4))
    coeffs[:, 0] -= np.sum(coeffs @ (1.0 / np.arange(1, 5))) / 3.0
    return StarPotential(
        [PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), list(c))]) for c in coeffs]
    )


def _default_grid(op):
    # the 65 points of find_pole's default bracket
    predicted = sc.pole_asymptotic(op)
    if predicted is not None and predicted > 0:
        lo, hi = max(eps_mod.TOL_KAPPA, 0.5 * predicted), 2.0 * predicted + 1.0
    else:
        lo, hi = eps_mod.TOL_KAPPA, 10.0
    return np.linspace(lo, hi, eps_mod.POLE_SCAN_SAMPLES + 1)


def _scalar_search(op, grid):
    # the pole search as a scan of every grid point with scalar calls, then
    # the same brentq on the one sign change
    def f(kappa):
        return sc.pole_equation(op, kappa)

    signs = np.sign([f(kappa) for kappa in grid])
    changes = [
        i for i in range(grid.size - 1) if signs[i] != signs[i + 1] and signs[i] != 0
    ]
    assert len(changes) <= 1
    if not changes:
        return None
    lo, hi = grid[changes[0]], grid[changes[0] + 1]
    root = float(brentq(f, lo, hi, xtol=1e-14, rtol=8.9e-16))
    return sc.PoleResult(kappa=root, eigenvalue=-root**2, residual=f(root))


class TestBatchedPoleScan:
    @pytest.mark.parametrize("branch", sorted(BRANCHES))
    @pytest.mark.parametrize(
        "potential", ["vstar", "bumpy_potential", "shifted_potential", "drawn_cubic"]
    )
    def test_scan_and_search_equal_scalar_loop(self, request, potential, branch):
        # bisecting the grid for its one sign change hands brentq the pair
        # that a scan of all 65 scalar values finds, so the root is the same
        # bit for bit
        if potential == "drawn_cubic":
            V = _drawn_cubic()
        else:
            V = request.getfixturevalue(potential)
        for eps in (2**-3, 2**-4, 2**-5):
            op = sc.EpsOperator(potential=V, scaling=BRANCHES[branch], eps=eps)
            assert sc.find_pole(op) == _scalar_search(op, _default_grid(op))

    @pytest.mark.parametrize("hi, scalar_fails", [(100.0, True), (50.0, False)])
    def test_each_momentum_verified_on_its_own(self, op_factory, hi, scalar_fails):
        # at order 12 only the large-kappa end of [0.5, 100] misses the
        # doubling tolerance, measured against its own |P|
        op = dataclasses.replace(op_factory(0.125), quad=sc.QuadratureRule(order=12))
        failed = []
        for kappa in np.linspace(0.5, hi, 65):
            try:
                sc.inner_RV_V(kappa, op)
            except QuadratureNotConverged:
                failed.append(kappa)
        assert bool(failed) == scalar_fails
        assert all(kappa > 0.8 * hi for kappa in failed)


def _drawn_piecewise_cubic(seed=5):
    # three edges, each a cubic on [0, 0.4], [0.4, 0.7] and [0.7, 1] with
    # coefficients uniform in [-1, 1], constant terms shifted to zero total mean
    cells = ((0.0, 0.4), (0.4, 0.7), (0.7, 1.0))
    coeffs = np.random.default_rng(seed).uniform(-1.0, 1.0, (3, len(cells), 4))

    def build(edge):
        return PiecewisePolynomial.from_global_coeffs(list(zip(cells, edge.tolist())))

    coeffs[:, :, 0] -= sum(build(edge).integral() for edge in coeffs) / 3.0
    return StarPotential([build(edge) for edge in coeffs])


def _direct_loop(profile, a, eps, xs, rule):
    # one point at a time, each crease-split integral summed cell by cell
    lo, hi = profile.support
    out = np.empty(xs.shape, dtype=np.result_type(a, 1.0))
    for idx, x in enumerate(xs):
        breaks = merge_breaks(lo, hi, profile.breakpoints, [x / eps])
        total = 0.0
        for lo_cell, hi_cell in zip(breaks[:-1], breaks[1:]):
            v, w = rule.points(lo_cell, hi_cell)
            f = profile.evaluate(v) * np.exp(-a * np.abs(x - eps * v))
            total = total + np.sum(w * f, axis=-1)
        out[idx] = total
    return out


class TestBatchedCreaseIntegrals:
    @pytest.mark.parametrize(
        "potential", ["vstar", "bumpy_potential", "shifted_potential", "drawn_piecewise"]
    )
    def test_factor_equals_per_point_loop(self, request, potential, lam_neg, monkeypatch):
        # the points of one call fall into several cell layouts (the crease
        # inside a cell, on a breakpoint, or off the support); each batched
        # row must sum exactly as its one-point integral does
        if potential == "drawn_piecewise":
            V = _drawn_piecewise_cubic()
        else:
            V = request.getfixturevalue(potential)
        eps = 2**-3
        op = sc.EpsOperator(potential=V, scaling=lam_neg, eps=eps)
        rule = op.quad
        for edge, profile in enumerate(V.profiles, start=1):
            if profile.is_zero():
                continue
            lo, hi = profile.support
            ts = np.concatenate([np.linspace(0.0, hi, 37), profile.breakpoints])
            xs = eps * np.sort(ts)
            layouts = {merge_breaks(lo, hi, profile.breakpoints, [x / eps]).size for x in xs}
            assert len(layouts) > 1
            for a in (0.7, 3.0, -0.5j, -5.0j, 1.0 - 2.0j):
                for r in (rule, rule.doubled()):
                    assert np.array_equal(
                        eps_mod._direct_raw(op, (edge - 1,), a, xs, r)[0],
                        _direct_loop(profile, a, eps, xs, r),
                    )
            batched = {kappa: sc.rank_one_factor(op, kappa, edge, xs) for kappa in (0.7, 3.0)}
            W = {k: [sc.assemble_W(op, k, edge, x) for x in xs[::3]] for k in (0.5, 5.0)}
            with monkeypatch.context() as m:
                def loop(op, edges, a, xs, r):
                    profiles = [op.potential.profiles[i] for i in edges]
                    return np.array([_direct_loop(p, a, op.eps, xs, r) for p in profiles])

                m.setattr(eps_mod, "_direct_raw", loop)
                for kappa, values in batched.items():
                    assert np.array_equal(values, sc.rank_one_factor(op, kappa, edge, xs))
                for k, values in W.items():
                    assert values == [sc.assemble_W(op, k, edge, x) for x in xs[::3]]


@st.composite
def _profile_and_points(draw):
    # a profile of 1-3 pieces on a support of 1/20-grid points, and points
    # on its breaks, within 2e-14 of its ends on either side, outside it,
    # and anywhere between
    ends = draw(st.lists(st.integers(0, 20), min_size=2, max_size=4, unique=True))
    breaks = [m / 20.0 for m in sorted(ends)]
    coeffs = [draw(st.lists(coefficient, min_size=4, max_size=4)) for _ in breaks[1:]]
    lo, hi = breaks[0], breaks[-1]
    offset = st.sampled_from([0.0, 5e-15, 1e-14, 1.5e-14, 2e-14])
    point = st.one_of(
        st.sampled_from(breaks),
        st.builds(lambda d: lo + d, offset),
        st.builds(lambda d: hi - d, offset),
        st.builds(lambda d: lo - d, offset),
        st.builds(lambda d: hi + d, offset),
        st.floats(-1.0, 2.0).filter(lambda t: not lo <= t <= hi),
        st.floats(lo, hi),
    )
    return PiecewisePolynomial(breaks, coeffs), np.array(draw(st.lists(point, min_size=1, max_size=12)))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(drawn=_profile_and_points(), order=st.sampled_from([4, 8]))
def test_direct_integrals_equal_per_point_merge_breaks(drawn, order):
    # one table of crease cells per call, an empty cell where a point adds no
    # break, gives each point's integral over its own merge_breaks cells, summed
    # in order, bit for bit
    profile, u = drawn
    other = PiecewisePolynomial([0.0, 1.0], [[-profile.integral()]])
    eps = 0.5
    op = sc.EpsOperator(
        potential=StarPotential([profile, other]),
        scaling=sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0),
        eps=eps,
    )
    rule = sc.QuadratureRule(order=order)
    xs = eps * u
    for a in (2.0, -12.0j, 0.5 - 3.0j):
        got = eps_mod._direct_raw(op, (0,), a, xs, rule)[0]
        assert np.array_equal(got, _direct_loop(profile, a, eps, xs, rule))


def _factor_per_edge(op, kappa, edge, xs):
    # one edge's factor as the per-edge route formed it: its own far field, its own
    # direct-integral check, and the per-point merge_breaks loop for the integrals
    k, rule, eps, i = 1j * kappa, op.quad, op.eps, edge - 1
    profile = op.potential.profiles[i]
    r, reverse = eps_mod._edge_moments(op, np.array([k, -k]), rule)
    shared = (2.0 / op.n) * eps_mod._moment_sum(op, r)
    far = reverse - r + shared
    decay = np.exp(-kappa * xs)
    bracket = decay * (shared - op.potential.edge_means[i] - r[i])
    if not profile.is_zero():
        outside = xs >= eps * profile.support[1]
        bracket[outside] = far[i] * decay[outside]
        inside = xs[~outside]
        if inside.size:
            bracket[~outside] += converged_value(
                lambda q: _direct_loop(profile, kappa, eps, inside, q), rule, rtol=1e-10
            )
    return (eps / (2.0 * kappa)) * bracket


#: breakpoint layouts the drawn edges choose from, so that some edges share one
LAYOUTS = ((0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 0.3, 0.6), (0.25, 0.5, 0.75, 1.0))


@st.composite
def _star_potentials(draw):
    # n = 2..5 edges, one of them zero, the others of 1-3 cubic pieces on a drawn
    # layout, the first piece's constant term shifted to zero total mean
    n = draw(st.integers(2, 5))
    edges = []
    for _ in range(n - 1):
        breaks = draw(st.sampled_from(LAYOUTS))
        coeffs = [draw(st.lists(coefficient, min_size=4, max_size=4)) for _ in breaks[1:]]
        edges.append([list(zip(breaks, breaks[1:])), coeffs])
    profiles = [PiecewisePolynomial.from_global_coeffs(list(zip(*edge))) for edge in edges]
    (a, b), first = edges[0][0][0], edges[0][1][0]
    first[0] -= sum(p.integral() for p in profiles) / (b - a)
    profiles = [PiecewisePolynomial.from_global_coeffs(list(zip(*edge))) for edge in edges]
    profiles.insert(draw(st.integers(0, n - 1)), PiecewisePolynomial.zero())
    return StarPotential(profiles)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    potential=_star_potentials(),
    eps=st.sampled_from([2.0**-3, 0.1]),
    kappa=st.sampled_from([0.7, 3.0]),
    ts=st.lists(st.floats(0.0, 1.5), min_size=1, max_size=8),
)
def test_batched_factors_equal_per_edge_factors(potential, eps, kappa, ts):
    # every edge in one call, edges on equal and on different breakpoints mixed, and the
    # edges of one breakpoint layout as a kernel groups them: each row is the bits of the
    # edge's own factor, at the layout's HS grid points and at drawn points
    scaling = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0)
    op = sc.EpsOperator(potential=potential, scaling=scaling, eps=eps)
    for e, profile in enumerate(potential.profiles, start=1):
        grid = np.concatenate([eps * profile.breakpoints, eps * np.asarray(ts)])
        edges = list(range(1, op.n + 1))
        want = [_factor_per_edge(op, kappa, edge, grid) for edge in edges]
        got = sc.rank_one_factor(op, kappa, edges, grid)
        assert all(np.array_equal(g, w) for g, w in zip(got, want))
        kernel = sc.EpsKernel(op, kappa)
        assert np.array_equal(kernel._factor(e, grid), want[e - 1])
        assert np.array_equal(sc.rank_one_factor(op, kappa, e, grid), want[e - 1])


def test_each_edge_of_a_factor_call_is_checked_on_its_own():
    # edge 2's direct integrals miss the order-4 check relative to their own size;
    # beside edge 1, a million times larger on the same layout, they must still miss it
    big = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [1e6])])
    wiggly = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [0.3, -2.0, 1.0, 1.5])])
    mean = -(big.integral() + wiggly.integral()) / 0.5
    potential = StarPotential([big, wiggly, PiecewisePolynomial.constant(mean, (0.0, 0.5))])
    scaling = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=1.0)
    op = sc.EpsOperator(potential, scaling, 0.125, sc.QuadratureRule(order=4))
    xs = 0.125 * np.linspace(0.0, 1.0, 9)
    sc.rank_one_factor(op, 3.0, 1, xs)
    for edges in (2, [1, 2]):
        with pytest.raises(QuadratureNotConverged, match="direct integrals"):
            sc.rank_one_factor(op, 3.0, edges, xs)


class TestPoleAsymptotic:
    def test_resonant_matches_limit_pole(self, op_factory, cc_neg):
        predictor = sc.pole_asymptotic(op_factory(0.3))
        kappa_limit, _ = sc.limit_pole(cc_neg)
        assert predictor == pytest.approx(kappa_limit, abs=1e-12)

    def test_non_resonant_two_term_value(self, vstar):
        lam = sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=-1.0)
        op = sc.EpsOperator(potential=vstar, scaling=lam, eps=0.1)
        assert sc.pole_asymptotic(op) == pytest.approx(-26.0 / 3.0, abs=1e-12)

    def test_escaping_predictor_positive(self, vstar):
        lam = sc.ScalingFunction(lambda1=0.1, resonant=False, lambda0=-1.6)
        op = sc.EpsOperator(potential=vstar, scaling=lam, eps=0.05)
        assert sc.pole_asymptotic(op) > 0

    def test_vanishing_B_gives_no_predictor(self, lam_neg):
        # equal first moments on both active edges: B = 0 but A != 0, the
        # Kirchhoff limit; the pole search falls back to [TOL_KAPPA, 10]
        same = PiecewisePolynomial.constant(1.0)
        balanced = PiecewisePolynomial.from_global_coeffs([((0.0, 1.0), [-7.0, 12.0])])
        V = StarPotential([same, balanced])
        theta = sc.moments_theta(V)
        assert abs(theta[0] - theta[1]) < 1e-12
        op = sc.EpsOperator(potential=V, scaling=lam_neg, eps=0.1)
        assert op.constants.B_vanishes
        assert sc.pole_asymptotic(op) is None
        assert sc.find_pole(op) == sc.find_pole(op, bracket=(eps_mod.TOL_KAPPA, 10.0))

    def test_predictor_that_is_not_finite_is_none(self):
        # size 1e-100 under lambda0 = -1e-54, lambda1 = -1: lambda1/lambda0^2
        # = -1e108 over B = -0.5e-200 overflows to inf, which is no bracket
        V = StarPotential.from_constants([1e-100, -1e-100, 0.0])
        lam = sc.ScalingFunction(lambda1=-1.0, resonant=False, lambda0=-1e-54)
        op = sc.EpsOperator(potential=V, scaling=lam, eps=0.125)
        assert not op.constants.B_vanishes
        assert sc.pole_asymptotic(op) is None
