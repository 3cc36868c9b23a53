"""Property tests of the finite-eps scattering on drawn admissible potentials.

Potentials have n = 2..6 edges, each zero or 1-3 cubic pieces on [0, 1]
(interior breakpoints put tensor cells into the pairing's double
integrals), shifted to total mean zero. At eps in 2^-3..2^-8 and k in
(0, 20] the finite-eps S-matrix must be unitary and symmetric, and the
denominator d = eps^3/lambda + P must match a complex exp/expm1 evaluation
of the pairing P; below MOMENTUM_MIN the S-matrix and the numerators refuse
the momentum. The pairing at real c, on the ordered nodes of
``double_integral``, must equal the symmetric min/max integrand summed
cell by cell, bit for bit; at real k, swept as running integrals, it
must agree with that 2-d oracle to 1e-13
relative, on supports away from the vertex too and at eps up to 1. A
batch of momenta, with duplicates and k eps met by an earlier batch, must
give each momentum's S-matrix to 1e-13 relative, and under a coarse rule
must fail exactly when one of its momenta fails alone. Drawn
scalings with extreme finite numbers, and admissible potentials with
coefficients of magnitude 10^-300..10^300, must leave every command with
one of its documented exit codes. Draws are derandomized, so every run
sees the same examples.
"""

import csv
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import starcoupling as sc
import starcoupling.epsilon as eps_mod
from conftest import coefficient, symmetric_pairing_raw
from starcoupling.cli import run
from starcoupling.epsilon import denominator
from starcoupling.scattering import MOMENTUM_MIN, numerators


@st.composite
def profiles(draw, shifted=False):
    # on [0, 1], or with shifted=True on any support of 1/20-grid points
    pieces = draw(st.integers(1, 3))
    if shifted:
        ends = st.lists(st.integers(0, 20), min_size=pieces + 1, max_size=pieces + 1, unique=True)
        breaks = [m / 20.0 for m in sorted(draw(ends))]
    else:
        inner = draw(
            st.lists(st.integers(1, 19), min_size=pieces - 1, max_size=pieces - 1, unique=True)
        )
        breaks = [0.0, *sorted(m / 20.0 for m in inner), 1.0]
    coeffs = [draw(st.lists(coefficient, min_size=4, max_size=4)) for _ in range(pieces)]
    return breaks, coeffs


@st.composite
def potentials(draw, shifted=False):
    n = draw(st.integers(2, 6))
    edges = [draw(st.one_of(st.none(), profiles(shifted))) for _ in range(n)]
    edges[0] = edges[0] or draw(profiles(shifted))
    built = [
        sc.PiecewisePolynomial.zero() if e is None else sc.PiecewisePolynomial(*e)
        for e in edges
    ]
    # shifting the constant term of each of edge 1's pieces by the total
    # mean over the length of its support removes the mean
    total = sum(p.integral() for p in built)
    breaks, coeffs = edges[0]
    shift = total / (breaks[-1] - breaks[0])
    built[0] = sc.PiecewisePolynomial(breaks, [[c[0] - shift, *c[1:]] for c in coeffs])
    # the resonant scalings need A != 0, that is a nonzero potential
    assume(not all(p.is_zero() for p in built))
    return sc.StarPotential(built)


scalings = st.sampled_from(
    [
        sc.ScalingFunction(lambda1=-1.0, resonant=True),
        sc.ScalingFunction(lambda1=1.0, resonant=True),
        sc.ScalingFunction(lambda1=1.0, resonant=False, lambda0=-1.0),
    ]
)
epsilons = st.integers(3, 8).map(lambda m: 2.0**-m)
momenta = st.floats(0.0, 20.0, exclude_min=True)
examples = settings(derandomize=True, database=None, max_examples=100, deadline=None)


def _P_oracle(op, k):
    # P = (eps^2/2a) [ sum_j II V_j V_j (e^{-c|u-v|} - e^{-c(u+v)})
    #     + (2/n) (sum_j int V_j e^{-cv})^2 ],  a = -ik, c = a eps,
    # in complex arithmetic at the order the verified pairing returns
    rule = op.quad.doubled()
    a = -1j * k
    c = a * op.eps
    diag = 0.0
    moments = 0.0
    for p in op.potential.profiles:
        moments = moments + rule.integrate(lambda v: p.evaluate(v) * np.exp(-c * v), p.breakpoints)
        diag = diag + rule.double_integral(
            lambda x, y: p.evaluate(x)
            * p.evaluate(y)
            * np.exp(-c * (x + y))
            * np.expm1(2.0 * c * np.minimum(x, y)),
            p.breakpoints,
        )
    bracket = diag + (2.0 / op.n) * moments**2
    return (op.eps**2 / (2.0 * a)) * bracket


@examples
@given(potential=potentials(), scaling=scalings, eps=epsilons, k=momenta)
def test_smatrix_eps_is_unitary_and_symmetric(potential, scaling, eps, k):
    op = sc.EpsOperator(potential=potential, scaling=scaling, eps=eps)
    if k < MOMENTUM_MIN:
        with pytest.raises(ValueError):
            sc.smatrix_eps(op, k)
        return
    s = sc.smatrix_eps(op, k)
    assert s.unitarity_defect() <= 1e-8
    assert s.symmetry_defect() <= 1e-8


@examples
@given(potential=potentials(), scaling=scalings, eps=epsilons, k=momenta)
def test_denominator_matches_the_complex_form(potential, scaling, eps, k):
    op = sc.EpsOperator(potential=potential, scaling=scaling, eps=eps)
    if k < MOMENTUM_MIN:
        with pytest.raises(ValueError):
            numerators(op, k)
        return
    want = _P_oracle(op, k)
    lead = op.eps**3 / op.lambda_value
    assert abs(denominator(op, k) - (lead + want)) <= 1e-12 * abs(want)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    potential=potentials(),
    scaling=scalings,
    eps=epsilons,
    k=st.sampled_from([0.5, 3.0, 12.0]),
)
def test_pairing_on_ordered_nodes_equals_the_symmetric_form(potential, scaling, eps, k):
    # P at real c (k = i kappa, a = kappa) equals the symmetric min/max
    # integrand summed by the cell loop it replaced, bit for bit; every cell
    # passes nodes lo <= hi, and a diagonal cell's hi is its column of shape
    # (order, 1)
    op = sc.EpsOperator(potential=potential, scaling=scaling, eps=eps)
    double_integral = sc.QuadratureRule.double_integral
    seen = set()

    def checked(rule, f, breaks):
        m = rule.order

        def g(lo, hi):
            assert np.all(lo <= hi)
            if lo.shape == (m, m):
                assert hi.shape == (m, 1)
            else:
                assert {lo.shape, hi.shape} == {(m, 1), (1, m)}
            seen.add(lo.shape == (m, m))
            return f(lo, hi)

        return double_integral(rule, g, breaks)

    with mock.patch.object(sc.QuadratureRule, "double_integral", checked):
        at_c = sc.inner_RV_V(k, op)
    assert True in seen
    assert at_c == symmetric_pairing_raw(op, k, op.quad.doubled())


@examples
@given(
    potential=potentials(shifted=True),
    eps=st.integers(0, 8).map(lambda m: 2.0**-m),
    k=st.floats(MOMENTUM_MIN, 20.0),
)
def test_real_k_sweep_matches_the_two_d_oracle(potential, eps, k):
    # P at real k, its same-edge part swept as running integrals, against
    # the symmetric min/max integrand summed by the 2-d cell loop at the
    # order the check returns
    scaling = sc.ScalingFunction(lambda1=-1.0, resonant=True)
    op = sc.EpsOperator(potential=potential, scaling=scaling, eps=eps)
    want = symmetric_pairing_raw(op, -1j * k, op.quad.doubled())
    assert abs(eps_mod._pairing(op, k, op.quad) - want) <= 1e-13 * abs(want)


def _own(potential):
    # the same profiles on a potential of their own, which shares no kept
    # integral with the first
    return sc.StarPotential(list(potential.profiles))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    potential=potentials(),
    scaling=scalings,
    eps=epsilons,
    ks=st.lists(st.floats(MOMENTUM_MIN, 10.0), min_size=1, max_size=3),
)
def test_batched_smatrix_matches_single_momenta(potential, scaling, eps, ks):
    # a batch with a duplicate at eps, then one at eps/2 whose momenta 2k
    # meet the first batch's k eps, each S bit for bit its momentum's alone
    for at, batch in ((eps, ks + ks[:1]), (eps / 2, [2 * k for k in ks] + ks)):
        got = sc.smatrix_eps(sc.EpsOperator(potential, scaling, at), np.array(batch))
        for k, s in zip(batch, got.entries):
            want = sc.smatrix_eps(sc.EpsOperator(_own(potential), scaling, at), k).entries
            assert np.array_equal(s, want)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(
    potential=potentials(),
    scaling=scalings,
    eps=epsilons,
    ks=st.lists(st.floats(-1.0, 2.5).map(lambda e: 10.0**e), min_size=1, max_size=3),
)
# k = 30 alone fails on its pairing (gap 1.7e-10 relative), by a gap that
# the pairing at k = 0.1, about three times larger, would admit
@example(
    potential=sc.StarPotential.from_constants([1.0, -1.0, 0.0]),
    scaling=sc.ScalingFunction(lambda1=-1.0, resonant=True),
    eps=0.125,
    ks=[0.1, 30.0],
)
def test_low_order_batch_raises_when_a_single_momentum_does(potential, scaling, eps, ks):
    # each momentum of a batch is checked on its own: under an order-8 rule,
    # which resolves k eps up to about 2 and not much beyond, the batch fails
    # exactly when one of its momenta fails alone
    def raises(potential, k):
        op = sc.EpsOperator(potential, scaling, eps, sc.QuadratureRule(order=8))
        try:
            sc.smatrix_eps(op, k)
        except sc.QuadratureNotConverged:
            return True
        return False

    alone = [raises(_own(potential), k) for k in ks]
    assert raises(potential, np.array(ks)) == any(alone)


#: a finite number of either sign and magnitude 10^-300..10^300
extreme = st.builds(
    lambda sign, mantissa, power: sign * mantissa * 10.0**power,
    st.sampled_from([-1.0, 1.0]),
    st.sampled_from([1.0, 2.5, 7.0]),
    st.integers(-300, 300),
)


@st.composite
def extreme_scalings(draw):
    scaling = {"resonant": draw(st.booleans()), "lambda1": draw(extreme)}
    if not scaling["resonant"]:
        scaling["lambda0"] = draw(extreme)
    scaling["higher"] = draw(st.lists(extreme, max_size=2))
    return scaling


def _config(scaling, size, epsilons):
    # the vstar potential scaled by size, on a star of three edges
    return {
        "n": 3,
        "potential": [
            [{"interval": [0.0, 1.0], "coeffs": [size]}],
            [{"interval": [0.0, 1.0], "coeffs": [-size]}],
            [],
        ],
        "scaling": scaling,
        "epsilons": epsilons,
        "momenta": [1.0],
        "kappa": 1.0,
        "oracle": {"L": 8.0, "h": 0.01},
    }


# the real-c pairing overflows past eps kappa of about 355 and gives NaN,
# which the order-doubling check refuses (exit 3)
@pytest.mark.filterwarnings(
    "ignore:overflow encountered in expm1:RuntimeWarning",
    "ignore:invalid value encountered in multiply:RuntimeWarning",
)
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(scaling=extreme_scalings(), size=st.sampled_from([1.0, 1e-100]))
def test_extreme_scalings_exit_with_a_documented_code(scaling, size):
    ladder = [0.125, 0.0625, 0.03125, 0.015625]
    runs = [
        ("constants", ladder),
        ("converge", ladder),
        ("spectrum", ladder[:1]),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        for command, epsilons in runs:
            config = Path(tmp) / f"{command}.json"
            config.write_text(json.dumps(_config(scaling, size, epsilons)))
            out = str(Path(tmp) / "out")
            assert run([command, "--config", str(config), "--out", out]) in (0, 2, 3, 4)


@st.composite
def extreme_potentials(draw):
    # three edges of 1-2 cubic pieces in global powers of x (edges 2 and 3
    # may be zero), coefficients of magnitude 10^-300..10^300: a power per
    # potential, spread by up to 10^+-4 per coefficient. The constant terms
    # of edge 1, supported on [0, 1], carry minus the rest's total mean
    power = draw(st.integers(-296, 296))
    coefficient = st.builds(
        lambda sign, mantissa, spread: sign * mantissa * 10.0 ** (power + spread),
        st.sampled_from([-1.0, 1.0]),
        st.sampled_from([1.0, 2.5, 7.0]),
        st.integers(-4, 4),
    )
    edges = []
    for _ in range(3):
        breaks = [0.0, *draw(st.sampled_from([[], [0.5], [0.25]])), 1.0]
        pieces = [
            {"interval": [a, b], "coeffs": [draw(coefficient) for _ in range(4)]}
            for a, b in zip(breaks[:-1], breaks[1:])
        ]
        edges.append(draw(st.sampled_from([pieces, []])) if edges else pieces)
    for piece in edges[0]:
        piece["coeffs"][0] = 0.0
    total = sum(
        sc.PiecewisePolynomial.from_global_coeffs(
            [(tuple(p["interval"]), p["coeffs"]) for p in edge]
        ).integral()
        for edge in edges
        if edge
    )
    for piece in edges[0]:
        piece["coeffs"][0] = -total
    return edges


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    potential=extreme_potentials(),
    scaling=st.sampled_from(
        [
            {"resonant": True, "lambda1": -1.0},
            {"resonant": True, "lambda1": 1.0},
            {"resonant": False, "lambda0": -1.6, "lambda1": 0.1},
        ]
    ),
)
def test_extreme_coefficients_exit_with_a_documented_code(potential, scaling):
    # admissible potentials with coefficients of magnitude 10^-300..10^300:
    # every command exits 0, 2, 3 or 4, and a command that exits 0 writes
    # finite numbers only
    raw = {
        "n": 3,
        "potential": potential,
        "scaling": scaling,
        "epsilons": [0.125, 0.0625, 0.03125, 0.015625],
        "momenta": [1.0],
        "kappa": 1.0,
    }
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(raw))
        for command in ("constants", "converge"):
            out = Path(tmp) / command
            code = run([command, "--config", str(config), "--out", str(out)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                with (out / f"{command}.csv").open() as fh:
                    for row in csv.reader(fh):
                        for cell in row:
                            try:
                                value = float(cell)
                            except ValueError:
                                continue
                            assert math.isfinite(value), (command, row)


@st.composite
def pole_scalings(draw):
    # lambda over decades and of either sign: resonant with lambda1, or
    # nonresonant with lambda0 and a smaller lambda1
    decade = lambda lo, hi: draw(st.sampled_from([-1.0, 1.0])) * 10.0 ** draw(
        st.floats(lo, hi)
    )
    if draw(st.booleans()):
        return sc.ScalingFunction(lambda1=decade(-2.0, 3.5), resonant=True)
    return sc.ScalingFunction(lambda1=decade(-2.0, 2.0), resonant=False, lambda0=decade(-1.0, 3.0))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(
    potential=potentials(),
    scaling=pole_scalings(),
    eps=st.sampled_from([2.0**-3, 2.0**-5]),
)
def test_find_pole_returns_a_root_iff_the_pole_equation_changes_sign(potential, scaling, eps):
    # g is decreasing and negative at kappa_max when lambda < 0, so it has a
    # root iff g(TOL_KAPPA) > 0 > g(kappa_max)
    op = sc.EpsOperator(potential, scaling, eps)
    top = eps_mod.kappa_max(op)
    try:
        low, high = (eps_mod.pole_equation(op, kappa) for kappa in (eps_mod.TOL_KAPPA, top))
    except sc.QuadratureNotConverged:
        assume(False)
    assert op.lambda_value > 0 or high < 0
    pole = sc.find_pole(op)
    assert (pole is not None) == (low > 0 > high)
    if pole is not None:
        assert eps_mod.TOL_KAPPA <= pole.kappa <= top
