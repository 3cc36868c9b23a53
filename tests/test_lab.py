import ast
import copy
import csv
import inspect
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starcoupling as sc
import starcoupling.epsilon as eps_mod
import starcoupling.experiments as experiments
import starcoupling.graph as graph
import starcoupling.quadrature as quadrature
from starcoupling import ConfigError
from starcoupling.config import parse_config
from starcoupling.cli import run
from starcoupling.experiments import CSV_COLUMNS
from conftest import coefficient

BUNDLE_DIR = Path(__file__).resolve().parents[1] / "configs"

BASE_CONFIG = {
    "n": 3,
    "potential": [
        [{"interval": [0.0, 1.0], "coeffs": [1.0]}],
        [{"interval": [0.0, 1.0], "coeffs": [-1.0]}],
        [],
    ],
    "scaling": {"resonant": True, "lambda1": -1.0},
    "epsilons": [0.125, 0.0625, 0.03125, 0.015625],
    "momenta": [1.0],
    "kappa": 1.0,
    "quadrature": {"order": 32},
    "oracle": {"L": 8.0, "h": 0.01, "L_scattering": 2.0},
    "output": {"dir": "results"},
}


COMMANDS = ("constants", "spectrum", "converge", "oracle")


def _with_edge_1(*pieces):
    # BASE_CONFIG's potential with edge 1 made of the (a, b, coeffs) pieces
    potential = copy.deepcopy(BASE_CONFIG["potential"])
    potential[0] = [{"interval": [a, b], "coeffs": c} for a, b, c in pieces]
    return potential


def write_config(tmp_path, overrides=None, name="config.json"):
    raw = copy.deepcopy(BASE_CONFIG)
    for key, value in (overrides or {}).items():
        if value is None:
            raw.pop(key, None)
        else:
            raw[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return path


class TestConfigValidation:
    def test_round_trip(self, tmp_path):
        config = sc.load_config(write_config(tmp_path))
        assert config.n == 3
        assert config.epsilons == (0.125, 0.0625, 0.03125, 0.015625)
        assert config.quad_order == 32
        pot = config.build_potential()
        assert pot.n == 3
        sc.validate_potential(pot)

    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.load_config(write_config(tmp_path, {"momentum": [1.0]}))

    def test_unknown_nested_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.load_config(
                write_config(tmp_path, {"oracle": {"L": 8.0, "step": 0.01}})
            )

    def test_epsilons_must_decrease(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.load_config(write_config(tmp_path, {"epsilons": [0.1, 0.2]}))

    def test_epsilons_must_be_in_unit_interval(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.load_config(write_config(tmp_path, {"epsilons": [2.0, 0.5]}))

    def test_resonant_with_lambda0_rejected(self, tmp_path):
        bad = {"resonant": True, "lambda0": 1.0, "lambda1": 1.0}
        with pytest.raises(ConfigError):
            sc.load_config(write_config(tmp_path, {"scaling": bad}))

    def test_non_resonant_needs_lambda0(self, tmp_path):
        bad = {"resonant": False, "lambda1": 1.0}
        with pytest.raises(ConfigError):
            sc.load_config(write_config(tmp_path, {"scaling": bad}))

    def test_edge_count_must_match(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.load_config(write_config(tmp_path, {"n": 4}))

    def test_piece_outside_unit_interval(self, tmp_path):
        pot = [[{"interval": [0.0, 1.2], "coeffs": [1.0]}], [], []]
        with pytest.raises(ConfigError):
            sc.load_config(write_config(tmp_path, {"potential": pot}))

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            sc.load_config(tmp_path / "nope.json")

    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"momentum": [1.0]}, "momentum"),
            ({"oracle": {"L": 8.0, "step": 0.01}}, "step"),
            ({"n": "3"}, "n"),
            ({"kappa": None}, "kappa"),
            ({"epsilons": []}, "epsilons"),
            (
                {
                    "potential": [
                        [{"interval": [0.0, 1.0], "coeffs": [1, 2, 3, 4, 5]}], [], []
                    ]
                },
                "coeffs",
            ),
        ],
    )
    def test_message_names_the_offending_key(self, tmp_path, overrides, key):
        raw = json.loads(write_config(tmp_path, overrides).read_text())
        with pytest.raises(ConfigError) as got:
            parse_config(raw)
        assert key in str(got.value)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            sc.load_config(path)


class TestShippedBundle:
    @pytest.mark.parametrize(
        "name",
        ["vstar_resonant_neg.json", "vstar_resonant_pos.json", "vstar_nonresonant.json"],
    )
    def test_configs_load(self, name):
        config = sc.load_config(BUNDLE_DIR / name)
        potential = config.build_potential()
        sc.validate_potential(potential)
        cc = sc.coupling_constants(potential, config.build_scaling())
        assert cc.A == pytest.approx(-2.0 / 3.0)
        np.testing.assert_allclose(cc.theta, [0.5, -0.5, 0.0], atol=1e-15)

    def test_bundle_covers_both_coupling_branches(self):
        neg = sc.load_config(BUNDLE_DIR / "vstar_resonant_neg.json")
        pos = sc.load_config(BUNDLE_DIR / "vstar_resonant_pos.json")
        cc_neg = sc.coupling_constants(neg.build_potential(), neg.build_scaling())
        cc_pos = sc.coupling_constants(pos.build_potential(), pos.build_scaling())
        assert cc_neg.beta < 0 < cc_pos.beta
        assert sc.limit_point_spectrum(cc_neg) is not None
        assert sc.limit_point_spectrum(cc_pos) is None

    def test_no_bound_state_branch_smatrix_rate(self):
        # the positive-coupling bundle entry still converges linearly in eps
        config = sc.load_config(BUNDLE_DIR / "vstar_resonant_pos.json")
        potential = config.build_potential()
        scaling = config.build_scaling()
        cc = sc.coupling_constants(potential, scaling)
        epss = [2**-3, 2**-4, 2**-5, 2**-6]
        errors = []
        for eps in epss:
            op = sc.EpsOperator(potential=potential, scaling=scaling, eps=eps)
            s_eps = sc.smatrix_eps(op, 1.0)
            errors.append(
                float(np.linalg.norm(s_eps.entries - sc.smatrix_limit(1.0, cc).entries, 2))
            )
        fit = sc.fit_rate("smatrix_pos_branch", epss, errors)
        assert 0.8 <= fit.slope <= 1.2


class TestEdgeValidation:
    def test_free_green_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            sc.FreeKernel(3, 1.0).on_grid(4, 1, [0.1], [0.1])

    def test_assemble_F_rejects_bad_edge(self):
        with pytest.raises(ValueError):
            sc.assemble_F(1, 1.0, sc.EdgeCoordinate(5, 0.1), 3)

    def test_rank_one_factor_rejects_bad_edge(self, vstar, lam_neg):
        op = sc.EpsOperator(potential=vstar, scaling=lam_neg, eps=0.1)
        with pytest.raises(ValueError):
            sc.rank_one_factor(op, 1.0, 0, np.array([0.5]))


class TestRateFit:
    def test_recovers_exact_power_law(self):
        eps = [0.1, 0.05, 0.025, 0.0125]
        errors = [3.0 * e**1.5 for e in eps]
        fit = sc.fit_rate("q", eps, errors)
        assert fit.slope == pytest.approx(1.5, abs=1e-12)
        assert fit.intercept == pytest.approx(np.log(3.0), abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)

    def test_requires_four_points(self):
        with pytest.raises(ValueError):
            sc.fit_rate("q", [0.1, 0.05, 0.025], [1, 2, 3])

    def test_requires_positive_errors(self):
        with pytest.raises(ValueError):
            sc.fit_rate("q", [0.1, 0.05, 0.025, 0.0125], [1.0, 0.5, 0.0, 0.1])


class TestConstantsCommand:
    def test_values(self, tmp_path):
        config = sc.load_config(write_config(tmp_path))
        report = sc.cmd_constants(config)
        assert report.summary["A"] == pytest.approx(-2.0 / 3.0)
        assert report.summary["B"] == pytest.approx(-0.5)
        assert report.summary["beta"] == pytest.approx(-2.25)
        assert report.summary["selfadjoint"] is True
        values = {r["quantity"]: r["value"] for r in report.rows}
        assert values["theta_1"] == pytest.approx(0.5)
        assert values["Pi_1_2"] == pytest.approx(-0.25)
        assert values["boundary_B_1_3"] == pytest.approx(-1.0)
        assert values["selfadjoint"] == 1.0

    @pytest.mark.parametrize("name", ["vstar_resonant_neg", "vstar_nonresonant"])
    def test_row_layout(self, name):
        report = sc.cmd_constants(sc.load_config(BUNDLE_DIR / f"{name}.json"))
        summary = report.summary
        n = summary["n"]
        pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
        expected = [f"theta_{i}" for i in range(1, n + 1)] + ["A", "B", "beta"]
        expected += [f"Pi_{i}_{j}" for i, j in pairs]
        expected += [f"boundary_{m}_{i}_{j}" for i, j in pairs for m in ("A", "B")]
        expected.append("selfadjoint")
        assert [r["quantity"] for r in report.rows] == expected
        for row in report.rows:
            assert (row["epsilon"], row["k"], row["kappa"]) == (None, None, None)
            assert (row["error"], row["tail_bound"]) == (None, None)
            name, *index = row["quantity"].split("_")
            if name == "boundary":
                name = f"boundary_{index.pop(0)}"
            entry = summary[name]
            for i in index:
                entry = entry[int(i) - 1]
            assert row["value"] == entry
            assert type(row["value"]) is float  # written with repr


class TestSpectrumCommand:
    def test_resonant_table(self, tmp_path):
        config = sc.load_config(write_config(tmp_path, {"epsilons": [0.1, 0.05]}))
        report = sc.cmd_spectrum(config)
        assert report.summary["eigenvalue_limit"] == pytest.approx(-64.0 / 81.0)
        per_eps = report.summary["per_epsilon"]
        assert len(per_eps) == 2
        for entry in per_eps:
            assert entry["kappa_root"] is not None
            assert entry["eigenvalue_fd"] is not None
            assert abs(entry["eigenvalue_fd"] - entry["eigenvalue"]) <= 2e-2

    def test_escaping_pole_grows_like_inverse_eps(self, tmp_path):
        config = sc.load_config(
            write_config(
                tmp_path,
                {
                    "scaling": {"resonant": False, "lambda0": -1.6, "lambda1": 0.1},
                    "epsilons": [0.0625, 0.03125],
                },
            )
        )
        report = sc.cmd_spectrum(config)
        roots = [e["kappa_root"] for e in report.summary["per_epsilon"]]
        assert roots[0] is not None and roots[1] is not None
        assert 1.7 <= roots[1] / roots[0] <= 2.3

    def test_no_eigenvalue_branch(self, tmp_path):
        config = sc.load_config(
            write_config(
                tmp_path,
                {
                    "scaling": {"resonant": True, "lambda1": 1.0},
                    "epsilons": [0.125, 0.0625],
                },
            )
        )
        report = sc.cmd_spectrum(config)
        assert report.summary["eigenvalue_limit"] is None
        assert report.summary["note"] == "no eigenvalue"
        for entry in report.summary["per_epsilon"]:
            assert entry["kappa_root"] is None

    @pytest.mark.parametrize("lambda1, has_pole", [(-1.0, True), (1.0, False)])
    def test_row_layout(self, tmp_path, lambda1, has_pole):
        config = sc.load_config(
            write_config(
                tmp_path,
                {
                    "scaling": {"resonant": True, "lambda1": lambda1},
                    "epsilons": [0.125, 0.0625],
                },
            )
        )
        report = sc.cmd_spectrum(config)
        per_eps = ["kappa_predictor", "kappa_root", "eigenvalue", "eigenvalue_fd"]
        quantities = [r["quantity"] for r in report.rows]
        assert quantities == ["eigenvalue_limit"] + 2 * per_eps
        head = report.rows[0]
        assert (head["epsilon"], head["k"], head["kappa"]) == (None, None, None)
        limit_ev = report.summary["eigenvalue_limit"]
        assert head["value"] == limit_ev
        entries = report.summary["per_epsilon"]
        for idx, (eps, entry) in enumerate(zip(config.epsilons, entries)):
            rows = report.rows[1 + 4 * idx : 5 + 4 * idx]
            kappa, ev = entry["kappa_root"], entry["eigenvalue"]
            fd = entry["eigenvalue_fd"]
            assert (kappa is not None) == has_pole
            assert [r["epsilon"] for r in rows] == [eps] * 4
            assert [r["k"] for r in rows] == [None] * 4
            assert [r["kappa"] for r in rows] == [None, kappa, kappa, None]
            values = [entry["kappa_predictor"], kappa, ev, fd]
            assert [r["value"] for r in rows] == values
            assert entry["bound_state_agrees"] is True
            if has_pole:
                assert rows[2]["error"] == abs(ev - limit_ev)
                assert rows[3]["error"] == abs(fd - ev)
            else:
                assert [r["error"] for r in rows] == [None] * 4


    def test_route_disagreement_is_reported(self, tmp_path, monkeypatch):
        # an FD oracle that finds no bound state where the pole search finds
        # one: the summary says so, and the CSV is as before
        monkeypatch.setattr(experiments, "oracle_eigenvalue", lambda op, L, h: None)
        config = sc.load_config(write_config(tmp_path, {"epsilons": [0.0625]}))
        report = sc.cmd_spectrum(config)
        [entry] = report.summary["per_epsilon"]
        assert entry["kappa_root"] is not None
        assert entry["eigenvalue_fd"] is None
        assert entry["bound_state_agrees"] is False
        assert [r["quantity"] for r in report.rows][1:] == [
            "kappa_predictor",
            "kappa_root",
            "eigenvalue",
            "eigenvalue_fd",
        ]

    def test_root_below_the_predictor_bracket_agrees_with_fd(self, tmp_path):
        # lambda1 = -300: the root kappa = 86.686 lies below the predictor
        # bracket (133.3, 534.3); the pole search finds it, and FD agrees
        raw = _raw("vstar_resonant_neg")
        raw["scaling"]["lambda1"] = -300.0
        raw["epsilons"] = [0.0625]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        config = sc.load_config(path)
        report = sc.cmd_spectrum(config)
        [entry] = report.summary["per_epsilon"]
        assert entry["kappa_root"] == pytest.approx(86.686, abs=1e-3)
        assert entry["eigenvalue_fd"] == pytest.approx(-7514.26, rel=1e-4)
        assert entry["bound_state_agrees"] is True
        rel = config.tolerances["oracle_eigenvalue_rel"]
        assert abs(entry["eigenvalue_fd"] - entry["eigenvalue"]) <= rel * abs(entry["eigenvalue"])

    def test_tied_moments_run_as_the_kirchhoff_limit(self, tmp_path):
        # theta = 0.5 on every edge: B = 0, so there is no limit eigenvalue
        # and no predictor, yet the finite-eps operator has a bound state,
        # which the pole search on [TOL_KAPPA, 10] and FD both find
        potential = [
            [{"interval": [0.0, 1.0], "coeffs": [1.0]}],
            [{"interval": [0.0, 1.0], "coeffs": [-7.0, 12.0]}],
            [{"interval": [0.0, 1.0], "coeffs": [-3.0, 6.0]}],
        ]
        scaling = {"resonant": False, "lambda0": -1.6, "lambda1": 0.1}
        cfg = write_config(
            tmp_path, {"potential": potential, "scaling": scaling, "epsilons": [0.125]}
        )
        out = tmp_path / "out"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 0
        rows = {r[0]: r for r in csv.reader((out / "spectrum.csv").open())}
        assert rows["eigenvalue_limit"][4] == ""
        assert rows["kappa_predictor"][4] == ""
        [entry] = json.loads((out / "spectrum_summary.json").read_text())["per_epsilon"]
        assert entry["kappa_root"] == pytest.approx(21.205, abs=1e-3)
        assert entry["bound_state_agrees"] is True
        rel = sc.load_config(cfg).tolerances["oracle_eigenvalue_rel"]
        assert abs(entry["eigenvalue_fd"] - entry["eigenvalue"]) <= rel * abs(entry["eigenvalue"])

    def test_parallel_matches_serial(self, tmp_path):
        config = sc.load_config(write_config(tmp_path, {"epsilons": [0.1, 0.05]}))
        serial = sc.cmd_spectrum(config, parallel=1)
        fanned = sc.cmd_spectrum(config, parallel=2)
        assert serial.rows == fanned.rows


class TestConvergeCommand:
    def test_rates_and_rows(self, tmp_path):
        config = sc.load_config(write_config(tmp_path))
        report = sc.cmd_converge(config)
        fits = {f["quantity"]: f for f in report.summary["rate_fits"]}
        assert 0.8 <= fits["smatrix_error_k_1.0"]["slope"] <= 1.2
        assert 0.4 <= fits["hs_distance"]["slope"]
        hs_rows = [r for r in report.rows if r["quantity"] == "hs_distance"]
        assert [r["epsilon"] for r in hs_rows] == list(config.epsilons)
        assert all(r["tail_bound"] is not None for r in hs_rows)
        values = [r["value"] for r in hs_rows]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_zero_potential_gives_zero_distances(self, tmp_path):
        config = sc.load_config(
            write_config(
                tmp_path,
                {
                    "potential": [[], [], []],
                    "scaling": {"resonant": False, "lambda0": 1.0, "lambda1": 1.0},
                },
            )
        )
        report = sc.cmd_converge(config)
        for row in report.rows:
            if row["quantity"] in ("hs_distance", "smatrix_error"):
                assert row["value"] <= 1e-12
        assert all(f.get("degenerate") for f in report.summary["rate_fits"])

    def test_small_resonant_potential_runs(self, tmp_path):
        # on a resonant ladder the pole equation's denominator shrinks with
        # the potential like its two terms do: vstar_resonant_neg scaled by
        # 1e-5 is as far from its pole as the shipped one
        raw = json.loads((BUNDLE_DIR / "vstar_resonant_neg.json").read_text())
        raw["epsilons"] = raw["epsilons"][:4]
        for edge in raw["potential"]:
            for piece in edge:
                piece["coeffs"] = [1e-5 * c for c in piece["coeffs"]]
        config = tmp_path / "small.json"
        config.write_text(json.dumps(raw))
        assert run(["converge", "--config", str(config), "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("seed", [5, 6])
    def test_smatrix_errors_are_per_momentum_two_norms(self, seed):
        # the rung's 2-norms are taken in one call over the stacked
        # differences; each cell must be the 2-norm of its own matrix, bit
        # for bit, on a drawn cubic potential at drawn momenta
        rng = np.random.default_rng(seed)
        coeffs = rng.uniform(-1.0, 1.0, (3, 4))
        coeffs[:, 0] -= np.sum(coeffs @ (1.0 / np.arange(1, 5))) / 3
        raw = {
            **BASE_CONFIG,
            "potential": [[{"interval": [0.0, 1.0], "coeffs": list(c)}] for c in coeffs],
            "momenta": sorted(rng.uniform(0.1, 8.0, 4).tolist()),
        }
        config = parse_config(raw)
        report = sc.cmd_converge(config)
        rows = [r for r in report.rows if r["quantity"] == "smatrix_error"]
        assert len(rows) == len(config.epsilons) * len(config.momenta)
        for row in rows:
            op = experiments._member(config, row["epsilon"])
            s_eps = sc.smatrix_eps(op, row["k"]).entries
            s_lim = sc.smatrix_limit(row["k"], op.constants).entries
            assert row["value"] == row["error"] == float(np.linalg.norm(s_eps - s_lim, 2))

    def test_needs_four_epsilons(self, tmp_path):
        config = sc.load_config(write_config(tmp_path, {"epsilons": [0.125, 0.0625]}))
        with pytest.raises(ConfigError):
            sc.cmd_converge(config)

    def test_parallel_matches_serial(self, tmp_path):
        config = sc.load_config(write_config(tmp_path))
        serial = sc.cmd_converge(config, parallel=1)
        fanned = sc.cmd_converge(config, parallel=2)
        assert serial.rows == fanned.rows


#: five edges, one with an interior breakpoint, one zero, total mean zero
FIVE_EDGES = {
    **BASE_CONFIG,
    "n": 5,
    "potential": [
        [
            {"interval": [0.0, 0.5], "coeffs": [1.0]},
            {"interval": [0.5, 1.0], "coeffs": [0.5, -1.0]},
        ],
        [{"interval": [0.0, 1.0], "coeffs": [-1.0, 0.5]}],
        [{"interval": [0.0, 0.6], "coeffs": [0.2, 0.0, 1.0]}],
        [],
        [{"interval": [0.0, 1.0], "coeffs": [0.183]}],
    ],
    "momenta": [0.5, 1.0],
}


def _raw(name):
    if name == "five_edges":
        return copy.deepcopy(FIVE_EDGES)
    return json.loads((BUNDLE_DIR / f"{name}.json").read_text())


def _fresh_rungs(monkeypatch):
    # each rung on a potential and scaling of its own: nothing shared, so the
    # rungs run one by one and the ladder's batch fills tables no rung reads
    member = experiments._member

    def fresh_member(config, eps, free=False):
        op = member(config, eps, free)
        if free:
            return op
        potential, scaling = config.build_potential(), config.build_scaling()
        return sc.EpsOperator(potential, scaling, eps, op.quad)

    monkeypatch.setattr(experiments, "_member", fresh_member)


def _converge_outcome(raw, parallel=1):
    # the rows, or the class and message of the error the command raised
    try:
        return sc.cmd_converge(parse_config(raw), parallel=parallel).rows
    except sc.StarCouplingError as exc:
        return type(exc), str(exc)


@st.composite
def _converge_configs(draw):
    # n = 2..5 edges, one of them zero, the others of 1-3 cubic pieces on a drawn
    # breakpoint layout (some edges share one), the first piece's constant term shifted
    # to zero total mean; momenta 0.5 and 1 meet the same k eps on successive rungs
    n = draw(st.integers(2, 5))
    layouts = ((0.0, 1.0), (0.0, 0.5, 1.0), (0.0, 0.3, 0.6), (0.25, 0.5, 0.75, 1.0))
    potential = []
    for _ in range(n - 1):
        breaks = draw(st.sampled_from(layouts))
        potential.append(
            [
                {"interval": [a, b], "coeffs": draw(st.lists(coefficient, min_size=4, max_size=4))}
                for a, b in zip(breaks, breaks[1:])
            ]
        )
    pieces = [piece for edge in potential for piece in edge]
    total = sum(
        c * (b ** (p + 1) - a ** (p + 1)) / (p + 1)
        for piece in pieces
        for (a, b) in [piece["interval"]]
        for p, c in enumerate(piece["coeffs"])
    )
    a, b = pieces[0]["interval"]
    pieces[0]["coeffs"][0] -= total / (b - a)
    potential.insert(draw(st.integers(0, n - 1)), [])
    top = draw(st.integers(2, 4))
    lambda0 = draw(st.sampled_from([-1.0, 1.0]))
    return {
        **BASE_CONFIG,
        "n": n,
        "potential": potential,
        "scaling": {"resonant": False, "lambda0": lambda0, "lambda1": 1.0},
        "epsilons": [2.0**-e for e in range(top, top + 4)],
        "momenta": draw(st.sampled_from([[0.5, 1.0], [0.5, 1.0, 2.0], [1.0, 5.0]])),
        "kappa": draw(st.sampled_from([1.0, 2.5])),
    }


@settings(derandomize=True, database=None, max_examples=15, deadline=None)
@given(raw=_converge_configs(), parallel=st.sampled_from([1, 1, 2]))
def test_ladder_batch_rows_equal_fresh_rungs(raw, parallel):
    # the ladder's one batch per kind of integral gives the rows (or the error) that
    # rungs on potentials of their own give one by one, as do two worker processes
    batched = _converge_outcome(raw, parallel)
    with pytest.MonkeyPatch.context() as m:
        _fresh_rungs(m)
        assert _converge_outcome(raw) == batched


class TestSharedPotentialWork:
    """The potential, its constants and its eps-independent quadrature work
    are built once per command and shared by every rung."""

    @pytest.mark.parametrize(
        "name",
        ["vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant", "five_edges"],
    )
    def test_rows_equal_fresh_operators_per_rung(self, name, monkeypatch):
        raw = _raw(name)
        one_rung = {**raw, "epsilons": raw["epsilons"][:1]}
        converge = sc.cmd_converge(parse_config(raw)).rows
        spectrum = sc.cmd_spectrum(parse_config(one_rung)).rows
        _fresh_rungs(monkeypatch)
        assert sc.cmd_converge(parse_config(raw)).rows == converge
        assert sc.cmd_spectrum(parse_config(one_rung)).rows == spectrum

    def test_potential_work_done_once_per_command(self, monkeypatch):
        calls = {"moment": 0, "min_kernel": 0, "validate_potential": 0, "coupling_constants": 0}
        moment = sc.PiecewisePolynomial.moment
        min_kernel = sc.PiecewisePolynomial.min_kernel_self_integral

        def counted_moment(self, order):
            calls["moment"] += 1
            return moment(self, order)

        def counted_min_kernel(self):
            calls["min_kernel"] += 1
            return min_kernel(self)

        integrals = []

        def recording(compute):
            def wrapper(op, c, rule):
                key = (compute.__name__, c.dtype.str, c.shape, c.tobytes(), rule.order)
                integrals.append(key)
                return compute(op, c, rule)

            return wrapper

        evaluated = {}
        evaluate = sc.PiecewisePolynomial.evaluate

        def counted_evaluate(self, x):
            x = np.asarray(x)
            key = (id(self), x.shape, x.tobytes())
            evaluated[key] = evaluated.get(key, 0) + 1
            return evaluate(self, x)

        # coupling_constants through the bindings the benchmark traces, and
        # the validation of the potential inside it
        def counted(name, function):
            def wrapper(*args):
                calls[name] += 1
                return function(*args)

            return wrapper

        validate = counted("validate_potential", graph.validate_potential)
        monkeypatch.setattr(graph, "validate_potential", validate)
        for module in (experiments, eps_mod):
            constants = counted("coupling_constants", module.coupling_constants)
            monkeypatch.setattr(module, "coupling_constants", constants)

        monkeypatch.setattr(sc.PiecewisePolynomial, "moment", counted_moment)
        monkeypatch.setattr(
            sc.PiecewisePolynomial, "min_kernel_self_integral", counted_min_kernel
        )
        monkeypatch.setattr(sc.PiecewisePolynomial, "evaluate", counted_evaluate)
        for name in ("_moment_residuals", "_same_edge_integrals"):
            monkeypatch.setattr(eps_mod, name, recording(getattr(eps_mod, name)))

        config = parse_config(FIVE_EDGES)
        sc.cmd_converge(config)
        # theta and A: once per edge for the whole command, parse_config
        # included; the constants and the validation once per command
        once = {"validate_potential": 1, "coupling_constants": 1}
        assert calls == {"moment": config.n, "min_kernel": config.n, **once}
        # each raw integral once per exact c and rule order; the ladder's
        # k eps values coincide (k = 0.5 at eps, k = 1 at eps / 2)
        assert integrals and len(set(integrals)) == len(integrals)
        # the pairing and moment nodes: evaluated once per config, not per rung
        profiles = config.potential.profiles
        nodes = [
            (id(profiles[key[1]]), *key[2:])
            for key in config.potential._shared
            if key[0] == "nodes"
        ]
        assert nodes and all(evaluated[key] == 1 for key in nodes)

        # spectrum forms the constants itself and on every rung
        calls.update(validate_potential=0, coupling_constants=0)
        sc.cmd_spectrum(parse_config({**FIVE_EDGES, "epsilons": [0.125, 0.0625]}))
        assert {name: calls[name] for name in once} == once

    def test_configs_run_alternately_give_their_own_rows(self):
        other = {**BASE_CONFIG, "potential": FIVE_EDGES["potential"], "n": 5}
        alone = [sc.cmd_converge(parse_config(raw)).rows for raw in (BASE_CONFIG, other)]
        configs = [parse_config(BASE_CONFIG), parse_config(other)]
        for _ in range(2):
            for config, rows in zip(configs, alone):
                assert sc.cmd_converge(config).rows == rows

    def test_members_on_one_potential_share_its_work(self, vstar, lam_neg, monkeypatch):
        # operators built directly, outside any command, reuse the node
        # values of the potential they are built on, at any eps, and give
        # the bits of an operator on a potential of its own
        own = sc.StarPotential.from_constants([1.0, -1.0, 0.0])
        fresh = sc.inner_RV_V(1.0, sc.EpsOperator(own, lam_neg, 0.0625))
        sc.inner_RV_V(3.0, sc.EpsOperator(vstar, lam_neg, 0.125))

        def no_evaluate(self, x):
            raise AssertionError("a profile was evaluated at the same nodes again")

        monkeypatch.setattr(sc.PiecewisePolynomial, "evaluate", no_evaluate)
        assert sc.inner_RV_V(1.0, sc.EpsOperator(vstar, lam_neg, 0.0625)) == fresh

    def test_table_keys_hold_the_rule_not_its_order(self, vstar, lam_neg):
        # after the base rule has filled the table, a rule of the same order
        # with other nodes must get its own pairing, moments and crease cells,
        # the values it gives on a potential of its own
        class HalfNodes(sc.QuadratureRule):
            def points(self, a, b):
                x, w = quadrature._gauss01(self.order // 2)
                return a + (b - a) * x, (b - a) * w

        eps, a = 0.125, 40.0
        xs = eps * np.linspace(0.0, 1.0, 9)

        def values(potential, rule):
            op = sc.EpsOperator(potential, lam_neg, eps, rule)
            return (
                eps_mod._pairing_raw(op, a, rule),
                eps_mod._shared_in_c(op, eps_mod._moment_residuals, a * eps, rule),
                eps_mod._direct_raw(op, (0,), a, xs, rule),
            )

        base = values(vstar, sc.QuadratureRule(order=32))
        other = values(vstar, HalfNodes(order=32))
        own = values(sc.StarPotential.from_constants([1.0, -1.0, 0.0]), HalfNodes(order=32))
        for got, want, first in zip(other, own, base):
            assert np.array_equal(got, want)
            assert not np.array_equal(got, first)

    def test_factor_work_does_not_grow_with_the_ladder(self, monkeypatch):
        # the crease-split cells and their profile values are built once per
        # command: a power-of-two ladder's scaled HS points repeat every rung
        calls = {"evaluate": 0, "merge_breaks": 0}
        evaluate, merge_breaks = sc.PiecewisePolynomial.evaluate, eps_mod.merge_breaks

        def counted_evaluate(self, x):
            calls["evaluate"] += 1
            return evaluate(self, x)

        def counted_merge_breaks(*args):
            calls["merge_breaks"] += 1
            return merge_breaks(*args)

        monkeypatch.setattr(sc.PiecewisePolynomial, "evaluate", counted_evaluate)
        monkeypatch.setattr(eps_mod, "merge_breaks", counted_merge_breaks)
        raw = _raw("vstar_resonant_neg")
        counts = set()
        for rungs in (4, 5, 7):
            ladder = [2.0**-e for e in range(3, 3 + rungs)]
            config = parse_config({**raw, "epsilons": ladder})
            calls.update(evaluate=0, merge_breaks=0)
            sc.cmd_converge(config)
            counts.add((calls["evaluate"], calls["merge_breaks"]))
        ((evaluated, merged),) = counts
        assert evaluated and merged

    def test_edge_moments_checked_once_per_c(self, monkeypatch):
        # over one command, the doubling check of the edge moments runs once
        # per exact c and rule: the factors, the far field and the HS tail of
        # a rung read the kept vector, and a batch checks each c once (k = 1
        # at eps / 2 meets k = 0.5 at eps)
        checked, contexts = [], []
        verified, converged_value = eps_mod._verified_moments, eps_mod.converged_value

        def recording(op, c, rule):
            checked.extend((x.tobytes(), rule) for x in c.reshape(-1))
            return verified(op, c, rule)

        def counted(compute, rule, **kwargs):
            contexts.append(kwargs.get("context"))
            return converged_value(compute, rule, **kwargs)

        monkeypatch.setattr(eps_mod, "_verified_moments", recording)
        monkeypatch.setattr(eps_mod, "converged_value", counted)
        config = parse_config(FIVE_EDGES)
        sc.cmd_converge(config)
        assert checked and len(set(checked)) == len(checked)
        # per rung: -ik eps at the HS kappa and its negative, and the momenta
        # of the first rung; each later rung meets one new k eps. The whole
        # ladder is checked before the first rung, one batch per kind of c
        rungs = len(config.epsilons)
        assert len(checked) == 2 * rungs + len(config.momenta) + rungs - 1
        assert contexts.count("edge moments") == 2

    def test_far_field_formed_once_per_rung(self, monkeypatch):
        # a rung's factors, one call per breakpoint layout, and its HS tail read one far
        # field: its moments at +-i kappa are looked up once per rung
        looked_up, factor_calls = [], []
        edge_moments, factor = eps_mod._edge_moments, eps_mod.rank_one_factor

        def recording(op, k, rule):
            if np.iscomplexobj(k):
                looked_up.append(op.eps)
            return edge_moments(op, k, rule)

        def spy(op, kappa, edges, xs):
            factor_calls.append(list(edges))
            return factor(op, kappa, edges, xs)

        monkeypatch.setattr(eps_mod, "_edge_moments", recording)
        monkeypatch.setattr(eps_mod, "rank_one_factor", spy)
        config = parse_config(FIVE_EDGES)
        sc.cmd_converge(config)
        assert looked_up == list(config.epsilons)
        # edges 2 and 5 lie on [0, 1], edges 1 and 3 on layouts of their own, edge 4 is zero
        assert factor_calls == [[1], [2, 5], [3], [4]] * len(config.epsilons)

    @pytest.mark.parametrize(
        "case, message",
        [
            ("smatrix_check", "changed edge moments"),
            ("pole_first_rung", "zeta denominator"),
            ("pole_late_rung", "zeta denominator"),
        ],
    )
    def test_ladder_errors_come_from_the_rung_that_meets_them(
        self, case, message, tmp_path, capsys, monkeypatch
    ):
        # the ladder's batch checks every rung's S-matrix moments before the first rung
        # runs; a failure there is left to the rung that meets it, after that rung's HS
        # distance, so an AtPole of the HS kappa on that rung or an earlier one comes first
        raw = _raw("vstar_resonant_neg")
        order, rung = 32, 2
        if case != "pole_late_rung":
            # at order 8 the k = 20 moments fail on the first rung of this ladder
            raw.update(epsilons=[1.0, 0.5, 0.25, 0.125], momenta=[0.5, 20.0])
            order, rung = 8, 0
        if case != "smatrix_check":
            config = parse_config(raw)
            potential, scaling = config.build_potential(), config.build_scaling()
            rule, eps = sc.QuadratureRule(order=order), raw["epsilons"][rung]
            raw["kappa"] = sc.find_pole(sc.EpsOperator(potential, scaling, eps, rule)).kappa
        cfg = tmp_path / "ladder.json"
        cfg.write_text(json.dumps(raw))
        argv = ["converge", "--config", str(cfg), "--out", str(tmp_path)]
        argv += ["--quad-order", str(order)]
        batched = run(argv), capsys.readouterr().err
        _fresh_rungs(monkeypatch)
        assert (run(argv), capsys.readouterr().err) == batched
        assert batched[0] == 3 and message in batched[1]

    def test_failed_moment_check_is_not_kept(self, vstar, lam_neg, monkeypatch):
        # a check that raises leaves nothing behind: asking again checks again
        contexts = []
        converged_value = eps_mod.converged_value

        def counted(compute, rule, **kwargs):
            contexts.append(kwargs.get("context"))
            return converged_value(compute, rule, **kwargs)

        monkeypatch.setattr(eps_mod, "converged_value", counted)
        op = sc.EpsOperator(vstar, lam_neg, 0.5, sc.QuadratureRule(order=2))
        for _ in range(2):
            with pytest.raises(sc.QuadratureNotConverged):
                eps_mod._edge_moments(op, 7.0, op.quad)
        assert contexts == ["edge moments"] * 2


class TestOracleCommand:
    def test_default_checks_pass(self, tmp_path):
        config = sc.load_config(
            write_config(
                tmp_path,
                {"oracle": {"L": 20.0, "h": 0.005, "L_scattering": 2.0}},
            )
        )
        report = sc.cmd_oracle(config)
        assert report.passed, report.summary
        names = {c["check"] for c in report.summary["checks"]}
        assert names == {"eigenvalue", "free_column", "eps_column", "smatrix"}

    def test_tolerance_failure_reported(self, tmp_path):
        config = sc.load_config(
            write_config(
                tmp_path,
                {
                    "oracle": {"L": 20.0, "h": 0.005, "L_scattering": 2.0},
                    "tolerances": {"oracle_smatrix_abs": 1e-15},
                },
            )
        )
        report = sc.cmd_oracle(config)
        assert not report.passed

    @pytest.mark.parametrize("lambda1, bound_state", [(-1.0, True), (1.0, False)])
    def test_row_layout(self, tmp_path, lambda1, bound_state):
        config = sc.load_config(
            write_config(
                tmp_path,
                {
                    "scaling": {"resonant": True, "lambda1": lambda1},
                    "oracle": {"L": 20.0, "h": 0.005, "L_scattering": 2.0},
                },
            )
        )
        report = sc.cmd_oracle(config)
        oracle, tol = config.oracle, config.tolerances
        eps_eig, eps_s = oracle["epsilon_eigenvalue"], oracle["epsilon_smatrix"]
        # quantity -> (epsilon, k, kappa) cells
        cells = {
            "oracle_eigenvalue_rel_error": (eps_eig, None, None),
            "oracle_free_column_sup_error": (None, None, config.kappa),
            "oracle_eps_column_sup_error": (eps_s, None, oracle["resolvent_kappa"]),
            "oracle_smatrix_max_error": (eps_s, oracle["smatrix_k"], None),
        }
        tol_keys = [
            "oracle_eigenvalue_rel",
            "oracle_free_column_sup",
            "oracle_eps_column_sup",
            "oracle_smatrix_abs",
        ]
        rows, checks = report.rows, report.summary["checks"]
        assert [r["quantity"] for r in rows] == list(cells)
        assert [(r["epsilon"], r["k"], r["kappa"]) for r in rows] == list(cells.values())
        assert [r["error"] for r in rows] == [tol[key] for key in tol_keys]
        names = ["eigenvalue", "free_column", "eps_column", "smatrix"]
        assert [c["check"] for c in checks] == names
        assert [r["value"] for r in rows] == [c["error"] for c in checks]
        assert (checks[0]["error"] is not None) == bound_state
        if not bound_state:
            assert checks[0]["passed"] is True
            assert rows[0]["value"] is None

    @pytest.fixture
    def no_fd(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("FD work started")

        for name in ("oracle_eigenvalue", "oracle_resolvent_column", "oracle_smatrix"):
            monkeypatch.setattr(experiments, name, fail)

    @pytest.mark.parametrize("kappa, at_L", [(1e-3, "320.7"), (1e-6, "3.333e+05")])
    def test_L_too_short_for_kappa_exit_two(self, tmp_path, capsys, no_fd, kappa, at_L):
        # the FD column is 0 at x = L, where the exact kernel is
        # (e^{-kappa(L-y)} + (2/n - 1) e^{-kappa(L+y)})/(2 kappa): 320.7 at
        # kappa = 1e-3, L = 40, y = 0.7, far above the 5e-4 tolerance
        cfg = write_config(tmp_path, {"kappa": kappa, "oracle": {"L": 40.0, "h": 0.005}})
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: oracle L = 40 is too short for kappa = {kappa:g}")
        assert f"x = L is {at_L}," in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "name", [None, "vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant"]
    )
    def test_admissible_L_reaches_the_fd_oracle(self, tmp_path, no_fd, name):
        # BASE_CONFIG's L = 8 at kappa = 1 leaves 3.1e-4 at x = L, below 5e-4
        path = write_config(tmp_path) if name is None else BUNDLE_DIR / f"{name}.json"
        with pytest.raises(AssertionError, match="FD work started"):
            sc.cmd_oracle(sc.load_config(path))


class TestReportWriting:
    def test_csv_schema_and_determinism(self, tmp_path):
        config = sc.load_config(write_config(tmp_path))
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        sc.write_report(sc.cmd_converge(config), out_a)
        sc.write_report(sc.cmd_converge(config), out_b)
        csv_a = (out_a / "converge.csv").read_bytes()
        csv_b = (out_b / "converge.csv").read_bytes()
        assert csv_a == csv_b
        header = csv_a.decode().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        summary = json.loads((out_a / "converge_summary.json").read_text())
        assert "rate_fits" in summary

    def test_rates_recomputable_from_csv(self, tmp_path):
        config = sc.load_config(write_config(tmp_path))
        report = sc.cmd_converge(config)
        out = tmp_path / "o"
        csv_path, _ = sc.write_report(report, out)
        lines = csv_path.read_text().splitlines()[1:]
        eps, errs = [], []
        for line in lines:
            cells = line.split(",")
            if cells[0] == "hs_distance":
                eps.append(float(cells[1]))
                errs.append(float(cells[5]))
        refit = sc.fit_rate("hs_distance", eps, errs)
        stored = [f for f in report.summary["rate_fits"] if f["quantity"] == "hs_distance"][0]
        assert refit.slope == pytest.approx(stored["slope"], abs=1e-12)


class TestCli:
    def test_constants_exit_zero(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = run(["constants", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        assert (out / "constants.csv").exists()
        assert (out / "constants_summary.json").exists()
        assert "selfadjoint" in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"epsilons": [0.1, 0.2]})
        assert run(["constants", "--config", str(cfg)]) == 2

    def test_config_directory_exit_two(self, tmp_path, capsys):
        assert run(["converge", "--config", str(tmp_path)]) == 2
        assert str(tmp_path) in capsys.readouterr().err

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "utf16.json"
        cfg.write_bytes(b"\xff\xfe" + '{"n": 3}'.encode("utf-16-le"))
        assert run(["converge", "--config", str(cfg)]) == 2
        assert str(cfg) in capsys.readouterr().err

    def test_mean_violation_exit_two(self, tmp_path, capsys):
        pot = [[{"interval": [0.0, 1.0], "coeffs": [1.0]}], [], []]
        cfg = write_config(tmp_path, {"potential": pot})
        assert run(["constants", "--config", str(cfg)]) == 2

    def test_degenerate_theta_exit_two(self, tmp_path, capsys):
        pot = [
            [{"interval": [0.0, 1.0], "coeffs": [1.0]}],
            [{"interval": [0.0, 1.0], "coeffs": [-7.0, 12.0]}],
            [],
        ]
        cfg = write_config(tmp_path, {"potential": pot})
        assert run(["constants", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "oracle",
        [
            {"smatrix_k": -1.0},
            {"smatrix_k": 0.0},
            {"resolvent_kappa": 0.0},
            {"L": -8.0},
            {"L_scattering": 0.0},
            {"h": 0.0},
            {"epsilon_eigenvalue": 0.0},
            {"epsilon_eigenvalue": 1.5},
            {"epsilon_smatrix": -0.1},
            {"epsilon_smatrix": 2.0},
            {"resolvent_source_edge": 7},
            {"resolvent_source_x": 45.0},
            {"resolvent_source_x": -0.5},
            # snaps onto the node at x = L, which carries the Dirichlet condition
            {"resolvent_source_x": 7.998},
        ],
    )
    def test_inadmissible_oracle_block_exit_two(self, tmp_path, capsys, oracle):
        block = {"L": 8.0, "h": 0.01, "L_scattering": 2.0, **oracle}
        cfg = write_config(tmp_path, {"oracle": block})
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: oracle ")
        assert not out.exists()

    @pytest.fixture
    def no_rule(self, monkeypatch):
        # a config error must be found before any quadrature rule is built
        def fail(n):
            raise AssertionError(f"a rule of order {n} was built")

        monkeypatch.setattr(quadrature, "_gauss01", fail)

    @pytest.mark.parametrize(
        "command, overrides",
        [
            *[(command, {"oracle": {"L": math.inf}}) for command in COMMANDS],
            ("converge", {"kappa": math.nan}),
            ("converge", {"kappa": math.inf}),
            ("converge", {"momenta": [math.nan]}),
            ("converge", {"momenta": [math.inf]}),
            *[
                (command, overrides)
                for command in ("converge", "constants")
                for overrides in (
                    {"potential": _with_edge_1((0.0, 1.0, [math.nan]))},
                    {"scaling": {**BASE_CONFIG["scaling"], "lambda1": math.nan}},
                    {"scaling": {**BASE_CONFIG["scaling"], "higher": [math.nan]}},
                )
            ],
        ],
    )
    def test_non_finite_number_exit_two(
        self, tmp_path, capsys, no_rule, command, overrides
    ):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "overrides",
        [
            {"potential": _with_edge_1((0.0, 0.4, [1.0]), (0.5, 1.0, [1.0]))},
            {"scaling": {"resonant": True, "lambda1": 0.0}},
            {"scaling": {"resonant": False, "lambda0": 0.0, "lambda1": 1.0}},
            {"tolerances": {"oracle_smatrix_abs": -1e-3}},
            {"tolerances": {"oracle_eps_column_sup": 0.0}},
            # finite, but the number of grid nodes L / h overflows
            {"oracle": {"L": 8.0, "h": 1e-308}},
        ],
    )
    def test_inadmissible_value_exit_two(
        self, tmp_path, capsys, no_rule, command, overrides
    ):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("kappa", [0.0, -1.0, 1e-300, 9e-7, 101.0, 1e3, 1e300])
    def test_kappa_outside_range_exit_two(
        self, tmp_path, capsys, no_rule, command, kappa
    ):
        cfg = write_config(tmp_path, {"kappa": kappa})
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "kappa must lie in [1e-06, 100]" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "overrides, key",
        [
            ({"momenta": [20.5]}, "momenta"),
            ({"momenta": [1.0, 50.0]}, "momenta"),
            ({"momenta": [1e3]}, "momenta"),
            ({"momenta": [1e300]}, "momenta"),
            # far below the floor the S-matrix overflows to NaN
            ({"momenta": [1.0, 1e-310]}, "momenta"),
            ({"momenta": [5e-7]}, "momenta"),
            ({"oracle": {**BASE_CONFIG["oracle"], "smatrix_k": 21.0}}, "oracle smatrix_k"),
            ({"oracle": {**BASE_CONFIG["oracle"], "smatrix_k": 1e3}}, "oracle smatrix_k"),
            ({"oracle": {**BASE_CONFIG["oracle"], "smatrix_k": 1e-9}}, "oracle smatrix_k"),
        ],
    )
    def test_momenta_outside_range_exit_two(
        self, tmp_path, capsys, no_rule, command, overrides, key
    ):
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: {key} must lie in [1e-06, 20]" in capsys.readouterr().err
        assert not out.exists()

    def test_converge_at_largest_momentum_runs(self, tmp_path, capsys):
        # the bound's own case: k = 20 at eps = 1 is resolved by the order-32 rule
        cfg = write_config(tmp_path, {"epsilons": [1.0, 0.5, 0.25, 0.125], "momenta": [20]})
        out = tmp_path / "out"
        assert run(["converge", "--config", str(cfg), "--out", str(out)]) == 0

    def test_converge_at_small_kappa_runs(self, tmp_path, capsys):
        # L = 1 + 8/kappa is 8001, but the grids cover the scaled support only
        cfg = write_config(tmp_path, {"kappa": 1e-3})
        out = tmp_path / "out"
        assert run(["converge", "--config", str(cfg), "--out", str(out)]) == 0
        report = [r.split(",") for r in (out / "converge.csv").read_text().splitlines()]
        cells = [float(r[4]) for r in report if r[0] == "hs_distance"]
        assert len(cells) == 4
        assert all(math.isfinite(c) and c > 0 for c in cells)

    @pytest.mark.parametrize("command", ["constants", "converge"])
    @pytest.mark.parametrize("coeff", [1e300, -1e300])
    def test_overflowing_constants_exit_two(
        self, tmp_path, capsys, no_rule, command, coeff
    ):
        # finite coefficients whose products overflow A and B to inf and NaN
        potential = copy.deepcopy(BASE_CONFIG["potential"])
        potential[0][0]["coeffs"], potential[1][0]["coeffs"] = [coeff], [-coeff]
        cfg = write_config(tmp_path, {"potential": potential})
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert "theta, A or B is not finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize(
        "overrides, message",
        [
            (
                {"scaling": {"resonant": False, "lambda0": 1.0, "lambda1": -8.0}},
                "lambda(0.125) vanishes",
            ),
            # A A underflows to 0, so beta = 1/(lambda1 A^2) divides by zero
            (
                {
                    "potential": [
                        [{"interval": [0.0, 1.0], "coeffs": [1e-100]}],
                        [{"interval": [0.0, 1.0], "coeffs": [-1e-100]}],
                        [],
                    ]
                },
                "beta = 1/(lambda1 A^2) is not finite",
            ),
            (
                {
                    "scaling": {"resonant": False, "lambda0": 1e308, "lambda1": 1e308},
                    "epsilons": [1.0, 0.5, 0.25, 0.125],
                },
                "lambda0^2 is not finite",
            ),
            (
                {"scaling": {"resonant": False, "lambda0": 1e-200, "lambda1": 1.0}},
                "lambda1/lambda0^2 is not finite",
            ),
            (
                {"scaling": {"resonant": True, "lambda1": -1e197}},
                "limit eigenvalue -1/(beta B)^2 is not finite",
            ),
            (
                {"scaling": {"resonant": True, "lambda1": -2.5e-180}},
                "limit eigenvalue -1/(beta B)^2 vanishes",
            ),
        ],
    )
    def test_non_finite_scaling_constants_exit_two(
        self, tmp_path, capsys, no_rule, command, overrides, message
    ):
        # each of these crashed some command with a traceback
        cfg = write_config(tmp_path, overrides)
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert f"error: scaling: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_integral_float_source_edge_runs(self, tmp_path, capsys):
        # an integral float counts as an integer and indexes the edges as one
        block = {"L": 20.0, "h": 0.005, "L_scattering": 2.0}
        block["resolvent_source_edge"] = 2.0
        cfg = write_config(tmp_path, {"oracle": block})
        assert sc.load_config(cfg).oracle["resolvent_source_edge"] == 2
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 0

    def test_converge_with_too_few_epsilons_exit_two(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"epsilons": [0.125]})
        out = tmp_path / "out"
        assert run(["converge", "--config", str(cfg), "--out", str(out)]) == 2
        assert "at least 4 eps" in capsys.readouterr().err

    def test_numerical_failure_exit_three(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, {"oracle": {"L": 8.0, "h": 0.05, "L_scattering": 2.0}}
        )
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 3

    def test_fd_size_budget_exit_three(self, tmp_path, capsys):
        # h ~ 0.3 eps^(3/2) at eps = 1e-3 asks for about 2.5 M unknowns on L = 8
        cfg = write_config(tmp_path, {"epsilons": [0.001]})
        out = tmp_path / "out"
        assert run(["spectrum", "--config", str(cfg), "--out", str(out)]) == 3

    @pytest.mark.parametrize("stage", ["load_config", "cmd_constants"])
    def test_every_error_class_has_its_exit_code(self, tmp_path, monkeypatch, stage):
        # walks the whole hierarchy, so a new error class cannot be left
        # unmapped; raised while loading the config or while running

        expected = {
            "ConfigError": 2,
            "MeanViolation": 2,
            "SupportViolation": 2,
            "DegenerateTheta": 2,
            "ResonantWithZeroA": 2,
            "QuadratureNotConverged": 3,
            "FredholmSingular": 3,
            "SingularSystem": 3,
            "AtPole": 3,
            "GridTooCoarse": 3,
            "RootSearchFailed": 3,
        }
        classes, stack = [], [sc.StarCouplingError]
        while stack:
            subclasses = stack.pop().__subclasses__()
            classes += subclasses
            stack += subclasses
        assert sorted(c.__name__ for c in classes) == sorted(expected)
        cfg = write_config(tmp_path)
        for cls in classes:
            assert cls.exit_code == expected[cls.__name__]

            def fail(*args, cls=cls, **kwargs):
                raise cls.__new__(cls)

            monkeypatch.setattr(f"starcoupling.cli.{stage}", fail)
            assert run(["constants", "--config", str(cfg)]) == expected[cls.__name__]

    def test_oracle_tolerance_exit_four(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path,
            {
                "oracle": {"L": 20.0, "h": 0.005, "L_scattering": 2.0},
                "tolerances": {"oracle_smatrix_abs": 1e-15},
            },
        )
        out = tmp_path / "out"
        assert run(["oracle", "--config", str(cfg), "--out", str(out)]) == 4

    def test_env_var_overrides_config_dir(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        env_dir = tmp_path / "env_out"
        monkeypatch.setenv("STARCOUPLING_OUT", str(env_dir))
        assert run(["constants", "--config", str(cfg)]) == 0
        assert (env_dir / "constants.csv").exists()

    def test_out_flag_beats_env(self, tmp_path, capsys, monkeypatch):
        cfg = write_config(tmp_path)
        monkeypatch.setenv("STARCOUPLING_OUT", str(tmp_path / "env_out"))
        flag_dir = tmp_path / "flag_out"
        assert run(["constants", "--config", str(cfg), "--out", str(flag_dir)]) == 0
        assert (flag_dir / "constants.csv").exists()
        assert not (tmp_path / "env_out").exists()

    def test_quad_order_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = run(
            ["constants", "--config", str(cfg), "--out", str(out), "--quad-order", "16"]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "command, flags, order",
        [
            ("converge", ["--quad-order", "0"], 32),
            ("spectrum", ["--quad-order", "-1"], 32),
            ("converge", ["--quad-order", "257"], 32),
            ("spectrum", [], 257),
        ],
    )
    def test_quad_order_outside_range_exit_two(
        self, tmp_path, capsys, monkeypatch, command, flags, order
    ):
        # an order of 1024 would need gigabytes in the pole scan: the order
        # must be refused before any rule is built
        def no_rule(n):
            raise AssertionError(f"a rule of order {n} was built")

        monkeypatch.setattr(quadrature, "_gauss01", no_rule)
        cfg = write_config(tmp_path, {"quadrature": {"order": order}})
        out = tmp_path / "out"
        assert run([command, "--config", str(cfg), "--out", str(out), *flags]) == 2
        assert not out.exists()

    def test_parallel_starts_at_most_one_worker_per_eps(self, tmp_path, monkeypatch):
        started = []

        class RecordingExecutor:
            # runs in this process and records the pool size it was given
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingExecutor)
        config = sc.load_config(write_config(tmp_path))
        fanned = sc.cmd_converge(config, parallel=64)
        assert started == [len(config.epsilons)]
        assert fanned.rows == sc.cmd_converge(config, parallel=1).rows

    def test_converge_parallel_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = run(
            ["converge", "--config", str(cfg), "--out", str(out), "--parallel", "2"]
        )
        assert code == 0
        assert (out / "converge.csv").exists()


class TestStartup:
    def test_scipy_loaded_only_by_the_fd_oracle(self, tmp_path):
        # a fresh interpreter: the test process itself has imported scipy
        shipped = BUNDLE_DIR / "vstar_resonant_neg.json"
        raw = json.loads(shipped.read_text())
        raw["epsilons"] = [0.125]
        one_eps = tmp_path / "one_eps.json"
        one_eps.write_text(json.dumps(raw))
        # parse_config checks the config itself, so neither jsonschema nor
        # the packages it brings (referencing, rpds) may load either; nor
        # may numpy.ma, which np.unique imports on its first call, nor the
        # process pool, which only --parallel > 1 starts
        script = f"""
import sys
from starcoupling import cli

def unused_modules():
    unused = ("scipy", "jsonschema", "referencing", "rpds", "multiprocessing")
    return sorted(
        m
        for m in sys.modules
        if m.split(".")[0] in unused
        or m.split(".")[:2] == ["numpy", "ma"]
        or m == "concurrent.futures.process"
    )

assert not unused_modules(), unused_modules()
for command in ("constants", "converge"):
    assert cli.run([command, "--config", {str(shipped)!r}, "--out", "out"]) == 0
    assert not unused_modules(), (command, unused_modules())
assert cli.run(["spectrum", "--config", {str(one_eps)!r}, "--out", "out"]) == 0
assert "scipy.sparse.linalg" in sys.modules
"""
        env = dict(os.environ)
        paths = [str(BUNDLE_DIR.parent / "src"), env.get("PYTHONPATH")]
        env["PYTHONPATH"] = os.pathsep.join(p for p in paths if p)
        done = subprocess.run(
            [sys.executable, "-c", script],
            cwd=tmp_path,
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr[-2000:]


class TestDependencies:
    def test_third_party_imports_are_the_declared_dependencies(self):
        # every import in src/, at module level or inside a function
        root = BUNDLE_DIR.parent
        imported = set()
        for path in (root / "src").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Import):
                    imported.update(alias.name.split(".")[0] for alias in node.names)
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    imported.add(node.module.split(".")[0])
        third_party = imported - set(sys.stdlib_module_names)
        pyproject = (root / "pyproject.toml").read_text(encoding="utf-8")
        block = re.search(r"^dependencies = \[(.*?)\]", pyproject, re.M | re.S)
        assert third_party == set(re.findall(r'"([A-Za-z0-9_.-]+)', block.group(1)))


class TestPublicApi:
    def test_no_callable_takes_a_fixed_numerical_setting(self):
        # the quadrature rule is the operator's own (EpsOperator.quad) and
        # the other settings are module constants, so no exported callable,
        # and no method of an exported class, may take one as a parameter
        fixed = {"rule", "samples", "panel_order", "tau_e", "richardson_rtol"}
        callables = []
        for name, obj in vars(sc).items():
            if name.startswith("_") or not callable(obj):
                continue
            if isinstance(obj, type):
                if issubclass(obj, BaseException):
                    continue
                callables += [
                    (f"{name}.{attr}", member)
                    for attr, member in vars(obj).items()
                    if not attr.startswith("_") and inspect.isfunction(member)
                ]
            callables.append((name, obj))
        assert len(callables) > 60
        offending = {
            name: sorted(fixed & set(inspect.signature(obj).parameters))
            for name, obj in callables
        }
        assert {name: p for name, p in offending.items() if p} == {}
