import numpy as np
import pytest

import starcoupling as sc
from starcoupling import QuadratureNotConverged, QuadratureRule
from starcoupling.epsilon import _pairing_raw
from starcoupling.quadrature import _cell, converged_value, merge_breaks
from conftest import symmetric_pairing_raw


@pytest.mark.parametrize("order", [4, 8, 16, 32])
def test_monomial_exactness_up_to_double_order(order):
    rule = QuadratureRule(order=order)
    for degree in range(2 * order):
        exact = 1.0 / (degree + 1)
        got = rule.integrate(lambda x, d=degree: x**d, [0.0, 1.0])
        assert got == pytest.approx(exact, abs=1e-13)


def test_weights_positive():
    rule = QuadratureRule(order=32)
    _, w = rule.points(0.0, 1.0)
    assert np.all(w > 0)
    assert np.sum(w) == pytest.approx(1.0, abs=1e-14)


def test_piecewise_integration_respects_breaks():
    rule = QuadratureRule(order=16)
    f = lambda x: np.where(x < 0.5, 1.0, 3.0)
    got = rule.integrate(f, [0.0, 0.5, 1.0])
    assert got == pytest.approx(2.0, abs=1e-14)


def test_double_integral_with_crease_closed_form():
    # II e^{-c|x-y|} over [0,1]^2 = 2(c - 1 + e^{-c})/c^2
    rule = QuadratureRule(order=32)
    for c in (0.3, 1.0, 4.0):
        got = rule.double_integral(
            lambda x, y, c=c: np.exp(-c * np.abs(x - y)), [0.0, 1.0]
        )
        exact = 2.0 * (c - 1.0 + np.exp(-c)) / c**2
        assert got == pytest.approx(exact, abs=1e-14)


def test_double_integral_without_split_is_inaccurate_on_crease():
    # the diagonal cell summed as one tensor cell, without the triangle split
    x, w = QuadratureRule(order=32).points(0.0, 1.0)
    got = np.sum(w[:, None] * w[None, :] * np.abs(x[:, None] - x[None, :]))
    assert abs(got - 1.0 / 3.0) > 1e-8  # the split exists for a reason


def test_double_integral_complex_kernel():
    rule = QuadratureRule(order=32)
    k = 2.0
    got = rule.double_integral(lambda x, y: np.exp(1j * k * np.abs(x - y)), [0.0, 1.0])
    exact = 2.0 * (-1j * k - 1.0 + np.exp(1j * k)) / (-1j * k) ** 2
    assert got == pytest.approx(exact, abs=1e-13)


class _TwoSumRule(QuadratureRule):
    """The unfolded rule: a diagonal cell sums its two triangles apart, the
    upper one as f at the mirrored nodes, so it needs a symmetric f."""

    def double_integral(self, f, breaks):
        total = 0.0
        for lo, hi, w, diagonal in self.cells(breaks):
            part = np.sum(w * f(lo, hi), axis=(-2, -1))
            if diagonal:
                part = part + np.sum(w * f(hi, lo), axis=(-2, -1))
            total = total + part
        return total


@pytest.mark.parametrize("order", [32, 64])
def test_mirror_fold_equals_two_sums_on_kernels(order):
    # both kernels are symmetric bit for bit, so doubling the lower
    # triangle's sum gives the two-sum rule's bits
    folded, two_sums = QuadratureRule(order=order), _TwoSumRule(order=order)
    breaks = [0.0, 0.3, 1.0]
    kernels = [lambda x, y: np.abs(x - y)] + [
        lambda x, y, k=k: np.exp(1j * k * np.abs(x - y)) for k in (0.5, 2.0, 5.0)
    ]
    for f in kernels:
        assert folded.double_integral(f, breaks) == two_sums.double_integral(f, breaks)


@pytest.mark.parametrize("potential", ["vstar", "bumpy_potential", "shifted_potential"])
def test_mirror_fold_equals_two_sums_on_pairing(request, potential):
    # the pairing on ordered nodes at real a (resolvent, a = kappa) and
    # complex a (the scattering D at real k, a = -ik), folded, against the
    # two-sum rule on the symmetric min/max integrand, which it can take
    # at (x, y) and at (y, x)
    op = sc.EpsOperator(
        potential=request.getfixturevalue(potential),
        scaling=sc.ScalingFunction(lambda1=-1.0, resonant=True),
        eps=0.1,
    )
    for order in (32, 64):
        folded, two_sums = QuadratureRule(order=order), _TwoSumRule(order=order)
        for a in (0.7, 3.0, -0.5j, -5.0j):
            want = symmetric_pairing_raw(op, a, two_sums, _TwoSumRule.double_integral)
            assert _pairing_raw(op, a, folded) == want


class _ReversedRule(QuadratureRule):
    """The folded rule visiting its cells last to first."""

    def double_integral(self, f, breaks):
        total = 0.0
        for lo, hi, w, diagonal in reversed(list(self.cells(breaks))):
            part = np.sum(w * f(lo, hi), axis=(-2, -1))
            total = total + (2.0 * part if diagonal else part)
        return total


def test_pairing_finds_profile_values_by_their_nodes(bumpy_potential):
    # the potential's table of pairing values is keyed by the cells' node
    # arrays, not by the order of the calls: a rule visiting the cells last
    # to first, and cells rebuilt after the table was filled, still give the
    # symmetric form's bits with the profile evaluated in place
    scaling = sc.ScalingFunction(lambda1=-1.0, resonant=True)
    rule, backwards = QuadratureRule(order=32), _ReversedRule(order=32)
    for a in (0.7, -0.5j):
        op = sc.EpsOperator(potential=bumpy_potential, scaling=scaling, eps=0.1)
        want = symmetric_pairing_raw(op, a, backwards, _ReversedRule.double_integral)
        assert _pairing_raw(op, a, backwards) == want
        _pairing_raw(op, a, rule)
        _cell.cache_clear()
        op = sc.EpsOperator(potential=bumpy_potential, scaling=scaling, eps=0.2)
        assert _pairing_raw(op, a, rule) == symmetric_pairing_raw(op, a, rule)


def test_merge_breaks_keeps_interior_points_only():
    out = merge_breaks(0.0, 1.0, [0.5, 1.5, -0.2, 0.25])
    assert np.allclose(out, [0.0, 0.25, 0.5, 1.0])


def test_converged_value_raises_on_disagreement():
    calls = []

    def compute(rule):
        calls.append(rule.order)
        return 1.0 if rule.order == 8 else 2.0

    with pytest.raises(QuadratureNotConverged):
        converged_value(compute, QuadratureRule(order=8), rtol=1e-10)
    assert calls == [8, 16]


def test_converged_value_returns_fine_result():
    got = converged_value(
        lambda r: r.integrate(lambda x: np.exp(x), [0.0, 1.0]), QuadratureRule(order=16)
    )
    assert got == pytest.approx(np.e - 1.0, abs=1e-14)


def test_converged_value_checks_arrays_in_max_norm():
    cs = (-1.0, 0.5, 3.0)
    got = converged_value(
        lambda r: np.array(
            [r.integrate(lambda x, c=c: np.exp(c * x), [0.0, 1.0]) for c in cs]
        ),
        QuadratureRule(order=16),
    )
    np.testing.assert_allclose(got, np.expm1(cs) / cs, rtol=1e-14)

    # the gap is measured against the largest component, so a change that is
    # large relative to a tiny component alone passes, and one that is large
    # relative to the largest component fails
    def compute(small_change, large_change):
        def values(rule):
            fine = rule.order == 16
            return np.array(
                [1.0 + large_change * fine, 1e-12 * (1.0 + small_change * fine)]
            )

        return values

    converged_value(compute(1e-3, 0.0), QuadratureRule(order=8))
    with pytest.raises(QuadratureNotConverged):
        converged_value(compute(0.0, 1e-6), QuadratureRule(order=8))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("orders", [{8}, {16}, {8, 16}])
def test_converged_value_refuses_values_that_are_not_finite(bad, orders):
    # NaN fails every comparison and an inf/finite pair gives inf <= inf, so
    # neither would read as a disagreement; a scalar and one array entry
    def scalar(rule):
        return bad if rule.order in orders else 1.0

    def array(rule):
        return np.array([1.0, scalar(rule), 2.0 + 1j])

    for compute in (scalar, array):
        with pytest.raises(QuadratureNotConverged, match="not finite"):
            converged_value(compute, QuadratureRule(order=8), context="test")
