"""The shipped configs against the benchmark's stored reference CSVs.

``perfbench/check.py`` holds every reference-potential item of the
benchmark to its stored CSV: byte-identical, or every cell within the
tolerance the Tier-1 tests use for its quantity. Running the same check on
``converge`` and ``oracle`` here shows a moved reference in the test suite
before it shows up in a benchmark run; the ``spectrum`` rows, the pole's
and the FD secular root's, are held byte for byte. Likewise each
workload's command runs once under the benchmark's tracer, whose spans
must obey the firing rules of ``perfbench/run.py``: a patched binding that
moved or a required stage that stopped running fails here.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from starcoupling import cli
from starcoupling.cli import run

ROOT = Path(__file__).resolve().parents[1]
BRANCHES = ["vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant"]


def _perfbench(name):
    # the benchmark's scripts import their siblings by bare name
    spec = importlib.util.spec_from_file_location(
        f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return module


def _compare_csv():
    return _perfbench("check").compare_csv


def _matches_reference(tmp_path, command, branch):
    out = tmp_path / "out"
    config = ROOT / "configs" / f"{branch}.json"
    assert run([command, "--config", str(config), "--out", str(out)]) == 0
    got = (out / f"{command}.csv").read_bytes()
    ref = (ROOT / "perfbench" / "references" / command / f"{branch}.csv").read_bytes()
    verdict, detail = _compare_csv()(got, ref)
    assert verdict in ("identical", "within_tolerance"), detail


@pytest.mark.parametrize("branch", BRANCHES)
def test_converge_matches_the_stored_reference(tmp_path, capsys, branch):
    _matches_reference(tmp_path, "converge", branch)


#: spectrum rows that the FD oracle does not touch
FD_FREE = ("eigenvalue_limit", "kappa_predictor", "kappa_root", "eigenvalue")


def _spectrum_rows(tmp_path, branch, quantities):
    # the rows of the given quantities from a spectrum run on the ladder cut
    # at eps >= 2^-5, as the stored reference is, and from that reference
    raw = json.loads((ROOT / "configs" / f"{branch}.json").read_text())
    raw["epsilons"] = [e for e in raw["epsilons"] if e >= 2.0**-5]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run(["spectrum", "--config", str(config), "--out", str(out), "--parallel", "1"]) == 0

    def rows(text):
        return [line for line in text.splitlines() if line.split(",")[0] in quantities]

    got = rows((out / "spectrum.csv").read_text())
    ref = rows((ROOT / "perfbench" / "references" / "spectrum" / f"{branch}.csv").read_text())
    return got, ref, len(raw["epsilons"])


@pytest.mark.parametrize("branch", BRANCHES)
def test_spectrum_pole_rows_match_the_stored_reference(tmp_path, monkeypatch, capsys, branch):
    # the stored spectrum CSVs pin the pole search, and with it the pairing
    # at real decay rates, bit for bit; the FD oracle is left out, so only
    # the rows it does not touch are compared
    monkeypatch.setattr("starcoupling.experiments.oracle_eigenvalue", lambda *a, **kw: None)
    got, ref, rungs = _spectrum_rows(tmp_path, branch, FD_FREE)
    assert len(ref) == 1 + 3 * rungs
    assert got == ref


@pytest.mark.parametrize("branch", BRANCHES)
def test_spectrum_fd_rows_match_the_stored_reference(tmp_path, capsys, branch):
    # the FD secular root and its error cell, byte for byte
    got, ref, rungs = _spectrum_rows(tmp_path, branch, ("eigenvalue_fd",))
    assert len(ref) == rungs
    assert got == ref


@pytest.mark.parametrize("branch", BRANCHES)
def test_oracle_matches_the_stored_reference(tmp_path, capsys, branch):
    _matches_reference(tmp_path, "oracle", branch)


@pytest.mark.parametrize(
    "workload, epsilons",
    [("converge", None), ("spectrum", [0.125]), ("oracle", None)],
)
def test_benchmark_spans_obey_the_firing_rules(tmp_path, capsys, workload, epsilons):
    bench = _perfbench("run")
    raw = json.loads((ROOT / "configs" / "vstar_resonant_neg.json").read_text())
    if epsilons is not None:
        raw["epsilons"] = epsilons
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    tracer = bench.tracing.Tracer()
    tracer.install()
    try:
        # through the module, as the benchmark's worker calls it: the tracer
        # wraps cli.run itself
        argv = [workload, "--config", str(config), "--out", str(tmp_path / "out")]
        assert cli.run(argv + ["--parallel", "1"]) == 0
    finally:
        tracer.uninstall()
    fired = set(tracer.metrics()["fired"])
    assert bench._firing_problems(workload, fired) == []
