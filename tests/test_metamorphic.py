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

Through the CLI, ``converge`` on the three shipped configs scaled by
s = 2^-20 and 2^20 must write the unscaled run's CSV byte for byte, and a
shipped config of amplitude 1e-155, whose products V V are subnormal, must
run ``converge``, ``spectrum`` and ``oracle`` to exit 0.

With lambda unchanged, V -> s V is weak coupling: the resolvent difference
is of order s^2, and ``converge`` on vstar_nonresonant at s = 1e-8 and
1e-12 must write nonzero Hilbert-Schmidt distances in that ratio and fit
every rate.
"""

import copy
import dataclasses
import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starcoupling as sc
from conftest import coefficient
from starcoupling.cli import run
from starcoupling.config import parse_config

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
SHIPPED = ["vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant"]

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


def _scaled_config(name, s):
    # the shipped config with its coefficients times s and lambda0, lambda1
    # and the higher coefficients divided by s^2
    raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
    raw = copy.deepcopy(raw)
    for edge in raw["potential"]:
        for piece in edge:
            piece["coeffs"] = [s * c for c in piece["coeffs"]]
    scaling = raw["scaling"]
    for key in ("lambda0", "lambda1"):
        if key in scaling:
            scaling[key] /= s**2
    scaling["higher"] = [c / s**2 for c in scaling.get("higher", [])]
    return raw


def _run(tmp_path, command, raw, label):
    config = tmp_path / f"{label}.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / label
    return run([command, "--config", str(config), "--out", str(out)]), out


@pytest.mark.parametrize("name", SHIPPED)
@pytest.mark.parametrize("e", [-20, 20])
def test_converge_through_the_cli_changes_no_byte(tmp_path, name, e):
    csvs = []
    for label, s in (("unscaled", 1.0), ("scaled", 2.0**e)):
        code, out = _run(tmp_path, "converge", _scaled_config(name, s), label)
        assert code == 0
        csvs.append((out / "converge.csv").read_bytes())
    assert csvs[0] == csvs[1]


@pytest.mark.parametrize("command", ["converge", "spectrum", "oracle"])
def test_a_subnormal_pairing_is_checked_at_the_potential_scale(tmp_path, command):
    # at amplitude 1e-155 the same-edge products V V and the pairing are
    # subnormal, so an order-doubling check on them would compare rounding
    # of a few bits; the pairing is checked on the profiles times a power of
    # two near 1/size and scaled back after
    raw = _scaled_config("vstar_nonresonant", 1.0)
    raw["potential"][0][0]["coeffs"] = [1e-155]
    raw["potential"][1][0]["coeffs"] = [-1e-155]
    code, _ = _run(tmp_path, command, raw, command)
    assert code == 0


@pytest.fixture(scope="module")
def weak_coupling():
    # converge on vstar_nonresonant with its coefficients times s and lambda unchanged
    reports = {}
    for s in (1e-8, 1e-12):
        raw = json.loads((CONFIG_DIR / "vstar_nonresonant.json").read_text())
        for edge in raw["potential"]:
            for piece in edge:
                piece["coeffs"] = [s * c for c in piece["coeffs"]]
        reports[s] = sc.cmd_converge(parse_config(raw))
    return reports


def test_weak_coupling_hs_distance_scales_like_s_squared(weak_coupling):
    cells = {
        s: np.array([r["value"] for r in report.rows if r["quantity"] == "hs_distance"])
        for s, report in weak_coupling.items()
    }
    assert np.all(cells[1e-8] > 0) and np.all(cells[1e-12] > 0)
    assert np.allclose(cells[1e-12], 1e-8 * cells[1e-8], rtol=1e-12, atol=0.0)


def test_weak_coupling_rates_are_fitted(weak_coupling):
    # every distance halves per rung: a normal positive number, not a degenerate fit
    fits = weak_coupling[1e-8].summary["rate_fits"]
    assert not any(fit.get("degenerate") for fit in fits)
    assert all(math.isfinite(fit["slope"]) and 0.9 < fit["slope"] < 1.1 for fit in fits)
