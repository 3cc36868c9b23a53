"""starcoupling benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload converge --seed 1 --seconds 30 --trace 0

Run from anywhere; the checkout is the parent of this directory, and the
program is imported from its ``src/``. The seed draws the workload's
potentials (gen.py); each run writes its configs, CSVs and a result file
under ``.perfbench/<workload>-seed<seed>/`` in the checkout.

With ``--trace 0`` the workload runs in fresh serial workload processes
(worker.py), one pass over all items each: one, and more while
``--seconds`` allows; set-up-only processes bring the set-up samples
to ``SETUP_SAMPLES``. Times are scaled to a fixed machine speed: a time
of t seconds reads t x ``PROBE_REF_S`` / p, where p is the worker's
speed-probe slice time while that time was taken (worker.SpeedProbe).
``setup_s`` is the median of the scaled set-up samples and
``peak_rss_mb`` the median over passes of the peak RSS after the
reference items, which every pass runs first. ``wall_s`` is, summed over the
branches, the reference item's time plus the median time of the branch's
drawn items; an item's time is its median over passes of its scaled
time. With
``--trace 1`` one untraced pass and one traced pass run; the traced pass
gives the per-layer metrics and must write the same CSV bytes.

The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``. Exit code 2, without a
result, means the checkout or a workload process is unusable.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
from check import compare_csv  # noqa: E402
from gen import BRANCHES, WORKLOADS, make_items  # noqa: E402

SETUP_SAMPLES = 5
#: speed-probe sample (worker.SpeedProbe) that times are scaled to: the
#: median over items of a shared 2-vCPU Xeon VM, so setup_s and wall_s read
#: as seconds at that machine's median speed
PROBE_REF_S = 0.67e-3
#: a workload process that runs longer than this is killed and the run fails
WORKER_TIMEOUT_S = 170
#: set in the workload process's own environment
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
}

END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MiB"}

# spans that must fire (and must not) on each workload, from the layer map
# in README.md
_ALL = {
    "cli.run",
    "config.load_config",
    "graph.coupling_constants",
    "experiments.write_report",
    "piecewise.evaluate",
    "quadrature.integrate",
    "quadrature.double_integral",
    "quadrature.converged_value",
}
MUST_FIRE = {
    "converge": _ALL
    | {
        "scattering.smatrix_eps",
        "experiments.hs_distance",
        "epsilon.rank_one_factor",
        "limit.smatrix_limit",
        "limit.LimitKernel.on_grid",
    },
    "spectrum": _ALL
    | {
        "epsilon.inner_RV_V",
        "epsilon.find_pole",
        "fdoracle.build_discrete_operator",
        "fdoracle.splu",
        "fdoracle.oracle_eigenvalue",
    },
    "oracle": _ALL
    | {
        "scattering.smatrix_eps",
        "epsilon.rank_one_factor",
        "epsilon.inner_RV_V",
        "epsilon.find_pole",
        "fdoracle.build_discrete_operator",
        "fdoracle.splu",
        "fdoracle.oracle_eigenvalue",
        "fdoracle.oracle_resolvent_column",
        "fdoracle.discrete_smatrix",
    },
}
MUST_NOT_FIRE = {
    "converge": ("fdoracle.",),
    "spectrum": ("scattering.", "experiments.hs_distance"),
    "oracle": ("experiments.hs_distance",),
}


class BenchError(Exception):
    """The checkout or a workload process is unusable; no result is printed."""


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def _check_checkout():
    if not (ROOT / "src" / "starcoupling" / "__init__.py").is_file():
        raise BenchError(f"no starcoupling sources under {ROOT / 'src'}")
    for branch in BRANCHES:
        if not (ROOT / "configs" / f"{branch}.json").is_file():
            raise BenchError(f"missing shipped config configs/{branch}.json")


def _provenance(items):
    import numpy
    import scipy

    def blas_version(module):
        try:
            return module.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
        except (AttributeError, KeyError):
            return None

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": blas_version(numpy),
        "openblas_scipy": blas_version(scipy),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_env": THREAD_ENV,
        "git_commit": commit,
        "config_digests": {item.id: item.digest() for item in items},
    }


def _run_worker(job, work):
    job_path = work / f"job-{job['tag']}.json"
    job_path.write_text(json.dumps(job, indent=1))
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("STARCOUPLING_OUT", None)
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(job_path)],
            env=env,
            capture_output=True,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload process exceeded {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"workload process exited {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    result = json.loads(Path(job["result"]).read_text())
    package = Path(result["package_file"]).resolve()
    if ROOT / "src" not in package.parents:
        raise BenchError(f"workload imported starcoupling from {package}")
    return result


def _job(tag, items, configs, work, trace=False, setup_only=False):
    out = work / tag
    return {
        "tag": tag,
        "items": [
            {
                "id": item.id,
                "command": item.command,
                "config": str(configs[item.id]),
                "out": str(out / item.id),
            }
            for item in items
        ],
        "trace": trace,
        "setup_only": setup_only,
        "result": str(work / f"result-{tag}.json"),
        "spans": str(work / f"spans-{tag}.tsv.gz"),
    }


def _run_pass(tag, items, configs, work, trace=False):
    """One workload process over all items, reference items first; entries
    come back in ``items`` order with their CSVs."""
    order = sorted(items, key=lambda item: not item.reference)
    result = _run_worker(_job(tag, order, configs, work, trace), work)
    by_id = {entry["id"]: entry for entry in result["items"]}
    result["items"] = [by_id[item.id] for item in items]
    for entry, item in zip(result["items"], items):
        csv_path = work / tag / item.id / f"{item.command}.csv"
        entry["csv"] = csv_path.read_bytes() if csv_path.is_file() else None
    return result


def _broken(item, code, reference_status):
    """Whether an item run failed as an operation.

    Reference items must exit 0 and match their reference. Drawn items may
    end with the CLI's documented verdicts on an admissible config, 3
    (numerical failure) or 4 (oracle tolerance missed); those count in
    failed_frac but not here. Exit 2 cannot be right on a config that
    parse_config accepted, and None is an uncaught exception.
    """
    if item.reference:
        return code != 0 or reference_status == "mismatch"
    return code not in (0, 3, 4)


def _reference(workload, item):
    path = HERE / "references" / workload / f"{item.branch}.csv"
    return path.read_bytes() if path.is_file() else None


def _measure(items, configs, work, seconds, trace):
    """Run the passes; return (untraced passes, traced pass or None, set-up samples)."""
    start = time.perf_counter()
    passes = [_run_pass("pass0", items, configs, work)]
    if trace:
        return passes, _run_pass("traced", items, configs, work, trace=True), []
    while True:
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(passes) > seconds:
            break
        passes.append(_run_pass(f"pass{len(passes)}", items, configs, work))
    setup = list(passes)
    while len(setup) < SETUP_SAMPLES:
        job = _job(f"setup{len(setup)}", items, configs, work, setup_only=True)
        setup.append(_run_worker(job, work))
    return passes, None, [(r["setup_s"], r["setup_probe_s"]) for r in setup]


def _scaled(seconds, probe_s):
    """A time at the machine speed where the probe slice takes PROBE_REF_S."""
    return seconds * PROBE_REF_S / probe_s


def _wall_s(items, passes):
    """Per branch, the reference item plus the median of its drawn items.

    The median over draws keeps one draw that exits early, or needs many
    more factorisations, from setting the run's time; each draw's exit
    still counts in failed_frac.
    """
    times = [
        statistics.median(_scaled(e["seconds"], e["probe_s"]) for e in entries)
        for entries in zip(*(p["items"] for p in passes))
    ]
    total = 0.0
    for branch in BRANCHES:
        mine = [(item, t) for item, t in zip(items, times) if item.branch == branch]
        total += sum(t for item, t in mine if item.reference)
        total += statistics.median(t for item, t in mine if not item.reference)
    return total


def _peak_rss_mb(items, passes):
    """Median over passes of the peak RSS once the reference items have run.

    Reference items run first, so this is their peak: the same work on
    every seed. The peak after the drawn items too is kept in result.json.
    """
    refs = [n for n, item in enumerate(items) if item.reference]
    return statistics.median(
        max(p["items"][n]["peak_rss_mb"] for n in refs) for p in passes
    )


def _check_items(workload, items, runs):
    """Per-item records, problems, and counts over every pass of the run."""
    records, problems = [], []
    attempted = nonzero = broken = 0
    for n, item in enumerate(items):
        entries = [r["items"][n] for r in runs]
        first = entries[0]["csv"]
        record = {
            "id": item.id,
            "branch": item.branch,
            "reference_potential": item.reference,
            "config_sha256": item.digest(),
            "exit": [e["exit"] for e in entries],
            "seconds": [e["seconds"] for e in entries],
            "probe_s": [e["probe_s"] for e in entries],
            "csv_sha256": None if first is None else _sha256(first),
        }
        status = None
        if item.reference:
            ref = _reference(workload, item)
            if ref is None:
                problems.append(f"{item.id}: no stored reference CSV")
                status = "missing"
            else:
                status, detail = compare_csv(first, ref)
                if status == "mismatch":
                    problems.append(f"{item.id}: reference mismatch: {detail}")
            record["reference"] = status
        if any(e["csv"] != first for e in entries):
            problems.append(f"{item.id}: CSV bytes differ between passes")
        for e in entries:
            attempted += 1
            nonzero += e["exit"] != 0 or status == "mismatch"
            broken += _broken(item, e["exit"], status)
            if e["exit"] != 0:
                record["stderr"] = e["stderr"]
        records.append(record)
    return records, problems, attempted, nonzero, broken


def _firing_problems(workload, fired):
    problems = []
    missing = sorted(MUST_FIRE[workload] - fired)
    if missing:
        problems.append(f"spans never fired: {missing}")
    banned = sorted(n for n in fired if n.startswith(MUST_NOT_FIRE[workload]))
    if banned:
        problems.append(f"spans fired that must not: {banned}")
    return problems


def write_configs(items, work):
    """Empty ``work`` and save every item's config there; id -> path."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "configs").mkdir(parents=True)
    configs = {}
    for item in items:
        configs[item.id] = work / "configs" / f"{item.id}.json"
        configs[item.id].write_bytes(item.config_bytes())
    return configs


def run(workload, seed, seconds, trace):
    _check_checkout()
    work = ROOT / ".perfbench" / f"{workload}-seed{seed}"
    items = make_items(workload, seed, ROOT / "configs")
    configs = write_configs(items, work)

    passes, traced, setup = _measure(items, configs, work, seconds, trace)
    runs = passes + ([traced] if traced else [])
    records, problems, attempted, nonzero, broken = _check_items(workload, items, runs)
    if traced is not None:
        metrics = dict(traced["trace"])
        problems += _firing_problems(workload, set(metrics.pop("fired")))
        metrics["trace.overhead_s"] = traced["wall_s"] - passes[0]["wall_s"]
        metrics["items.attempted"] = attempted
        metrics["items.failed"] = nonzero
        metrics["failed_frac"] = nonzero / attempted
    else:
        metrics = {
            "setup_s": statistics.median(_scaled(*sample) for sample in setup),
            "wall_s": _wall_s(items, passes),
            "peak_rss_mb": _peak_rss_mb(items, passes),
        }

    summary = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "passes": len(passes),
        "setup_samples": setup,
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "items": records,
        "problems": problems,
        "attempted": attempted,
        "failed": broken,
        "nonzero_exit": nonzero,
        "failed_frac": nonzero / attempted,
        "metrics": metrics,
        "provenance": _provenance(items),
    }
    (work / "result.json").write_text(json.dumps(summary, indent=1, sort_keys=True))
    return summary


def _unit(name):
    if name in END_TO_END:
        return END_TO_END[name]
    return tracing.unit(name)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    for record in summary["items"]:
        print(
            f"{record['id']}: exit {record['exit']} "
            f"reference {record.get('reference', '-')} "
            f"seconds {[round(s, 3) for s in record['seconds']]} "
            f"probe_ms {[p and round(p * 1e3, 3) for p in record['probe_s']]}"
        )
    if summary["pass_wall_s"] and not summary["trace"]:
        print(f"unscaled item time per pass: {[round(s, 3) for s in summary['pass_wall_s']]} s")
    for problem in summary["problems"]:
        print(f"problem: {problem}")
    print(
        f"failed_frac: {summary['failed_frac']:.4f} ratio "
        f"({summary['nonzero_exit']} failed of {summary['attempted']} attempted; "
        f"{summary['failed']} outside the documented exits)"
    )
    metrics = {
        name: {"value": value, "unit": _unit(name)}
        for name, value in summary["metrics"].items()
    }
    for name, m in metrics.items():
        print(f"{name}: {m['value']} {m['unit']}")
    print(
        json.dumps(
            {
                "correct": not summary["problems"],
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
