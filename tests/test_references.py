"""The shipped configs against the benchmark's stored reference CSVs.

``perfbench/check.py`` holds every reference-potential item of the
benchmark to its stored CSV: byte-identical, or every cell within the
tolerance the Tier-1 tests use for its quantity. Running the same check on
``converge`` here shows a moved reference in the test suite before it shows
up in a benchmark run.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from starcoupling.cli import run

ROOT = Path(__file__).resolve().parents[1]


def _compare_csv():
    spec = importlib.util.spec_from_file_location(
        "perfbench_check", ROOT / "perfbench" / "check.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.compare_csv


@pytest.mark.parametrize(
    "branch", ["vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant"]
)
def test_converge_matches_the_stored_reference(tmp_path, capsys, branch):
    out = tmp_path / "out"
    config = ROOT / "configs" / f"{branch}.json"
    assert run(["converge", "--config", str(config), "--out", str(out)]) == 0
    got = (out / "converge.csv").read_bytes()
    ref = (ROOT / "perfbench" / "references" / "converge" / f"{branch}.csv").read_bytes()
    verdict, detail = _compare_csv()(got, ref)
    assert verdict in ("identical", "within_tolerance"), detail


#: spectrum rows that the FD oracle does not touch
FD_FREE = ("eigenvalue_limit", "kappa_predictor", "kappa_root", "eigenvalue")


@pytest.mark.parametrize(
    "branch", ["vstar_resonant_neg", "vstar_resonant_pos", "vstar_nonresonant"]
)
def test_spectrum_pole_rows_match_the_stored_reference(tmp_path, monkeypatch, capsys, branch):
    # the stored spectrum CSVs cover eps >= 2^-5 and pin the pole search, and
    # with it the pairing at real decay rates, bit for bit; the FD oracle
    # is left out, so only the rows it does not touch are compared
    monkeypatch.setattr("starcoupling.experiments.oracle_eigenvalue", lambda *a, **kw: None)
    raw = json.loads((ROOT / "configs" / f"{branch}.json").read_text())
    raw["epsilons"] = [e for e in raw["epsilons"] if e >= 2.0**-5]
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert run(["spectrum", "--config", str(config), "--out", str(out), "--parallel", "1"]) == 0

    def pole_rows(text):
        return [line for line in text.splitlines() if line.split(",")[0] in FD_FREE]

    got = pole_rows((out / "spectrum.csv").read_text())
    ref = pole_rows(
        (ROOT / "perfbench" / "references" / "spectrum" / f"{branch}.csv").read_text()
    )
    assert len(ref) == 1 + 3 * len(raw["epsilons"])
    assert got == ref
