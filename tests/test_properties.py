"""Property tests of the finite-eps scattering on drawn admissible potentials.

Potentials have n = 2..6 edges, each zero or 1-3 cubic pieces on [0, 1]
(interior breakpoints put tensor cells into the pairing's double
integrals), shifted to total mean zero. At eps in 2^-3..2^-8 and k in
(0, 20] the finite-eps S-matrix must be unitary and symmetric, and the
Fredholm denominator D must match a complex exp/expm1 evaluation of its
bilinear form; below MOMENTUM_MIN both refuse the momentum. Drawn
scalings with extreme finite numbers must leave every command with one of
its documented exit codes. Draws are derandomized, so every run sees the
same examples.
"""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import starcoupling as sc
from starcoupling.cli import run
from starcoupling.scattering import MOMENTUM_MIN

#: coefficients on a grid of 1e-3, so that a drawn potential is either zero
#: or far from underflowing A
coefficient = st.integers(-1000, 1000).map(lambda m: m / 1000.0)


@st.composite
def profiles(draw):
    pieces = draw(st.integers(1, 3))
    inner = draw(
        st.lists(st.integers(1, 19), min_size=pieces - 1, max_size=pieces - 1, unique=True)
    )
    breaks = [0.0, *sorted(m / 20.0 for m in inner), 1.0]
    coeffs = [draw(st.lists(coefficient, min_size=4, max_size=4)) for _ in range(pieces)]
    return breaks, coeffs


@st.composite
def potentials(draw):
    n = draw(st.integers(2, 6))
    edges = [draw(st.one_of(st.none(), profiles())) for _ in range(n)]
    edges[0] = edges[0] or draw(profiles())
    built = [
        sc.PiecewisePolynomial.zero() if e is None else sc.PiecewisePolynomial(*e)
        for e in edges
    ]
    # edge 1 is supported on [0, 1], so shifting the constant term of each
    # of its pieces by the total mean removes it
    total = sum(p.integral() for p in built)
    breaks, coeffs = edges[0]
    built[0] = sc.PiecewisePolynomial(breaks, [[c[0] - total, *c[1:]] for c in coeffs])
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


def _D_oracle(op, k):
    # D = -(lambda/eps^3) (eps^2/2a) [ sum_j II V_j V_j (e^{-c|u-v|} - e^{-c(u+v)})
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
    return -(op.lambda_value / op.eps**3) * (op.eps**2 / (2.0 * a)) * bracket


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
def test_fredholm_D_matches_the_complex_form(potential, scaling, eps, k):
    op = sc.EpsOperator(potential=potential, scaling=scaling, eps=eps)
    if k < MOMENTUM_MIN:
        with pytest.raises(ValueError):
            sc.fredholm_D_direct(op, k)
        return
    want = _D_oracle(op, k)
    assert abs(sc.fredholm_D_direct(op, k) - want) <= 1e-12 * abs(want)


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
