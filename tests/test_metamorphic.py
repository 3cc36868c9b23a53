"""Metamorphic test of the family's scale symmetry.

V -> s V, with lambda0, lambda1 and the higher coefficients of lambda all
divided by s^2, leaves the operator (lambda(eps)/eps^3) V_eps <., V_eps>
unchanged. For s a power of two every product in the analytic pipeline
scales exactly, so theta, A, B and beta must scale by exact powers of two,
and the pole predictor, the located pole, the limit eigenvalue, the
S-matrix at one momentum and the Hilbert-Schmidt distance at two rungs
must be bit-identical to s = 1, or fail in the same way there. Potentials
are the reference vstar (+1, -1, 0) and drawn ones with n = 2..4 edges of
1-2 cubic pieces each; s = 2^e with e in [-40, 40]. The FD oracle is left
out for run time. Draws are derandomized, so every run sees the same
examples.
"""

import dataclasses

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starcoupling as sc
from conftest import coefficient

#: the shipped scaling branches
BRANCHES = {
    "resonant_neg": sc.ScalingFunction(lambda1=-1.0, resonant=True),
    "resonant_pos": sc.ScalingFunction(lambda1=1.0, resonant=True),
    "nonresonant": sc.ScalingFunction(lambda1=0.1, resonant=False, lambda0=-1.6),
}
VSTAR = sc.StarPotential.from_constants([1.0, -1.0, 0.0])
#: the pole rung, the scattering momentum and the resolvent energy -KAPPA^2
EPS, K, KAPPA = 2.0**-3, 1.0, 1.0
#: the rungs of the Hilbert-Schmidt distance
HS_EPSILONS = (2.0**-3, 2.0**-5)


@st.composite
def drawn_potentials(draw):
    # n = 2..4 edges of 1-2 cubic pieces on [0, 1]; the constant terms of
    # edge 1 carry minus the total mean
    edges = []
    for _ in range(draw(st.integers(2, 4))):
        breaks = [0.0, *draw(st.sampled_from([[], [0.5], [0.25]])), 1.0]
        coeffs = [draw(st.lists(coefficient, min_size=4, max_size=4)) for _ in breaks[1:]]
        edges.append(sc.PiecewisePolynomial(breaks, coeffs))
    total = sum(p.integral() for p in edges)
    first = edges[0]
    edges[0] = sc.PiecewisePolynomial(
        first.breakpoints, [[c[0] - total, *c[1:]] for c in first.coefficients]
    )
    return sc.StarPotential(edges)


def _scaled(potential, scaling, s):
    profiles = [
        sc.PiecewisePolynomial(p.breakpoints, [s * c for c in p.coefficients])
        for p in potential.profiles
    ]
    divide = lambda value: None if value is None else value / s**2
    return sc.StarPotential(profiles), dataclasses.replace(
        scaling,
        lambda1=scaling.lambda1 / s**2,
        lambda0=divide(scaling.lambda0),
        higher=tuple(c / s**2 for c in scaling.higher),
    )


def _bits(value):
    # a float, an array or None as bytes, so that equality is bit equality
    return None if value is None else np.asarray(value).tobytes()


def _outcome(compute):
    # the output's bits, or the class of the error it raised
    try:
        return _bits(compute())
    except sc.StarCouplingError as exc:
        return type(exc).__name__


def _outputs(potential, scaling):
    def pole():
        result = sc.find_pole(op)
        return None if result is None else (result.kappa, result.eigenvalue)

    op = sc.EpsOperator(potential, scaling, EPS)
    out = {
        "limit_point_spectrum": _outcome(
            lambda: sc.limit_point_spectrum(sc.coupling_constants(potential, scaling))
        ),
        "pole_asymptotic": _outcome(lambda: sc.pole_asymptotic(op)),
        "find_pole": _outcome(pole),
        "smatrix_eps": _outcome(lambda: sc.smatrix_eps(op, K).entries),
    }
    for eps in HS_EPSILONS:
        member = sc.EpsOperator(potential, scaling, eps)
        out[f"hs_distance at {eps}"] = _outcome(lambda: sc.hs_distance(member, KAPPA))
    return out


@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(
    potential=st.one_of(st.just(VSTAR), drawn_potentials()),
    branch=st.sampled_from(sorted(BRANCHES)),
    higher=st.sampled_from([(), (0.25,), (-0.5, 2.0)]),
    e=st.integers(-40, 40),
)
@example(potential=VSTAR, branch="resonant_neg", higher=(), e=-40)
@example(potential=VSTAR, branch="nonresonant", higher=(), e=-20)
@example(potential=VSTAR, branch="resonant_pos", higher=(), e=40)
def test_scaling_by_a_power_of_two_changes_no_bit(potential, branch, higher, e):
    scaling = dataclasses.replace(BRANCHES[branch], higher=higher)
    s = 2.0**e
    scaled_potential, scaled_scaling = _scaled(potential, scaling, s)
    cc = sc.coupling_constants(potential, scaling)
    scaled = sc.coupling_constants(scaled_potential, scaled_scaling)
    assert np.array_equal(scaled.theta, s * cc.theta)
    assert scaled.A == s**2 * cc.A
    assert scaled.B == s**2 * cc.B
    assert np.array_equal(scaled.Pi, s**2 * cc.Pi)
    assert scaled.beta == cc.beta / s**2
    assert _outputs(scaled_potential, scaled_scaling) == _outputs(potential, scaling)
