"""Tests of the benchmark itself (not of starcoupling).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing
from check import compare_csv
from gen import BRANCHES, WORKLOADS, make_items
from sweep import tail_percentile

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _items(workload, seed):
    return make_items(workload, seed, ROOT / "configs")


def test_same_seed_gives_identical_configs():
    for workload in WORKLOADS:
        first = [i.config_bytes() for i in _items(workload, 11)]
        again = [i.config_bytes() for i in _items(workload, 11)]
        assert first == again


def test_seeds_draw_different_potentials_on_the_same_branch():
    a = {i.id.split(".")[0]: i.raw for i in _items("converge", 1) if not i.reference}
    b = {i.id.split(".")[0]: i.raw for i in _items("converge", 2) if not i.reference}
    assert set(a) == set(BRANCHES)
    for branch in BRANCHES:
        assert a[branch]["potential"] != b[branch]["potential"]
        assert a[branch]["scaling"]["resonant"] == b[branch]["scaling"]["resonant"]


def test_workloads_share_their_draws():
    converge = {i.id: i.raw["potential"] for i in _items("converge", 4)}
    oracle = {i.id: i.raw["potential"] for i in _items("oracle", 4)}
    assert all(oracle[key] == potential for key, potential in converge.items())


def test_drawn_potentials_are_admissible_cubics_on_every_edge():
    from starcoupling.config import parse_config
    from starcoupling.graph import constant_A

    shipped = json.loads((ROOT / "configs" / "vstar_nonresonant.json").read_text())
    target = shipped["scaling"]["lambda0"] * constant_A(
        parse_config(shipped).build_potential()
    )
    for item in _items("oracle", 5):
        potential = parse_config(item.raw).build_potential()
        assert abs(potential.total_mean()) <= 1e-12
        if item.reference:
            continue
        assert all(not p.is_zero() and p.degree == 3 for p in potential.profiles)
        scaling = item.raw["scaling"]
        if not scaling["resonant"]:
            lam0_A = scaling["lambda0"] * constant_A(potential)
            assert lam0_A == pytest.approx(target, rel=1e-12)


def test_spectrum_ladder_is_cut_at_two_to_minus_five():
    for item in _items("spectrum", 1):
        assert min(item.raw["epsilons"]) == 2.0**-5


def _traced_quadrature_calls(tmp_path, seed):
    from starcoupling import cli

    item = next(i for i in _items("converge", seed) if not i.reference)
    config = tmp_path / f"{item.id}.json"
    config.write_bytes(item.config_bytes())
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = cli.run(["converge", "--config", str(config), "--out", str(tmp_path)])
    finally:
        tracer.uninstall()
    assert code == 0
    metrics = tracer.metrics()
    return {k: v for k, v in metrics.items() if k.startswith("quadrature.") and "calls" in k}


def test_work_does_not_depend_on_the_drawn_coefficients(tmp_path, capsys):
    one = _traced_quadrature_calls(tmp_path, 1)
    two = _traced_quadrature_calls(tmp_path, 2)
    assert one == two
    assert one["quadrature.integrate.calls"] > 0


def test_tracer_restores_every_binding():
    from starcoupling import epsilon, experiments, quadrature

    before = (experiments.find_pole, epsilon.inner_RV_V, quadrature.QuadratureRule.integrate)
    tracer = tracing.Tracer()
    tracer.install()
    assert experiments.find_pole is not before[0]
    tracer.uninstall()
    after = (experiments.find_pole, epsilon.inner_RV_V, quadrature.QuadratureRule.integrate)
    assert after == before


def test_speed_probe_samples_while_started_and_only_then():
    import signal
    import time

    from worker import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    end = time.perf_counter() + 0.35
    while time.perf_counter() < end:
        pass
    probe.stop()
    taken = len(probe.samples)
    assert taken >= 2 and probe.spent >= sum(probe.samples) > 0
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_IGN
    time.sleep(0.25)
    assert len(probe.samples) == taken


def test_wall_s_and_peak_rss_from_synthetic_passes():
    import run

    items = _items("oracle", 1)

    def entry(item, speed):
        seconds = (1.0 if item.reference else 2.0 + int(item.id[-1])) / speed
        peak = 100.0 + (50.0 * (not item.reference)) + len(item.id)
        return {"seconds": seconds, "probe_s": run.PROBE_REF_S / speed, "peak_rss_mb": peak}

    # the same work at twice the machine speed reads the same once scaled
    passes = [{"items": [entry(item, speed) for item in items]} for speed in (1.0, 2.0)]
    # per branch: reference 1 s plus the median of drawn 2, 3, 4 s
    assert run._wall_s(items, passes) == pytest.approx(3 * (1.0 + 3.0))
    refs = [item for item in items if item.reference]
    assert run._peak_rss_mb(items, passes) == 100.0 + max(len(i.id) for i in refs)


def test_metric_names_and_units_are_well_formed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in declared]
    assert len(names) == len(set(names))
    for metric in declared:
        assert NAME.fullmatch(metric["name"]) and len(metric["name"]) <= 64
        assert UNIT.fullmatch(metric["unit"])
    produced = set(tracing.Tracer().metrics()) - {"fired"}
    produced |= {"trace.overhead_s", "items.attempted", "items.failed", "failed_frac"}
    assert produced == {m["name"] for m in bench["per_layer"]}
    for name in produced:
        assert tracing.unit(name) == next(
            m["unit"] for m in bench["per_layer"] if m["name"] == name
        )


def test_one_command_prints_every_end_to_end_metric(tmp_path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "oracle"]
        + ["--seed", "3", "--seconds", "1", "--trace", "0"],
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    for metric in bench["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"] and entry["value"] > 0
        assert any(
            re.fullmatch(rf"{re.escape(metric['name'])}: \S+ {metric['unit']}", line)
            for line in lines
        )
    assert any(re.match(r"failed_frac: \S+ ratio \(\d+ failed of \d+ attempted", line)
               for line in lines)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "converge"]
        + ["--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_reference_comparison_uses_the_quantity_tolerance():
    ref = b"quantity,epsilon,k,kappa,value,error,tail_bound\nhs_distance,0.5,,1.0,0.25,0.25,1e-12\n"
    assert compare_csv(ref, ref)[0] == "identical"
    near = ref.replace(b"0.25,0.25", b"0.25000000000001,0.25")
    assert compare_csv(near, ref)[0] == "within_tolerance"
    far = ref.replace(b"0.25,0.25", b"0.2501,0.25")
    assert compare_csv(far, ref)[0] == "mismatch"
    assert compare_csv(None, ref)[0] == "mismatch"


def test_tail_percentile_needs_ten_runs_beyond_it():
    assert tail_percentile(list(range(10))) is None
    assert tail_percentile(list(range(20))) == (50, 9)
    p, _ = tail_percentile(list(range(100)))
    assert p == 90
