"""The shipped configs against the benchmark's stored reference CSVs.

``perfbench/check.py`` holds every reference-potential item of the
benchmark to its stored CSV: byte-identical, or every cell within the
tolerance the Tier-1 tests use for its quantity. Running the same check on
``converge`` here shows a moved reference in the test suite before it shows
up in a benchmark run.
"""

import importlib.util
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
