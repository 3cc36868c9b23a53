"""Run the benchmark over workloads and seeds and summarise across runs.

    python3 perfbench/sweep.py --seeds 1                # every workload, seed 1
    python3 perfbench/sweep.py --seeds 1-10 --workloads spectrum

Each run is ``run.py`` in its own process. For one seed this prints every
metric by name with its unit and the failed and attempted counts of each
workload. Over several seeds it adds, per workload and end-to-end metric,
the median, the quartiles, their distance as a share of the median (the
spread that must stay below the metric's bound in BENCHMARK.json) and the
highest percentile with at least ten runs beyond it, with the run count.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from gen import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def tail_percentile(values):
    """(p, value) for the highest whole percentile with >= 10 runs above it."""
    n = len(values)
    p = math.floor(100 * (1 - 10 / n)) if n else 0
    if p < 50:
        return None
    ordered = sorted(values)
    return p, ordered[min(n - 1, math.ceil(p / 100 * n) - 1)]


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "runs": len(values),
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
        "tail": tail_percentile(values),
    }


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(WORKLOADS)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=[1], help="N or N-M")
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    runs = {w: [] for w in args.workloads}
    for workload in args.workloads:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload]
            cmd += ["--seed", str(seed), "--seconds", str(args.seconds)]
            cmd += ["--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return proc.returncode
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            runs[workload].append(result)
            print(f"== {workload} seed {seed}: correct {result['correct']}")
            for line in lines[:-1]:
                print(f"   {line}")
    summary = {
        workload: {
            name: summarise([r["metrics"][name]["value"] for r in results])
            for name in results[0]["metrics"]
        }
        for workload, results in runs.items()
    } if len(args.seeds) > 1 else {}
    if args.save:
        saved = {"seeds": args.seeds, "seconds": args.seconds, "trace": args.trace}
        saved.update(runs=runs, summary=summary)
        Path(args.save).write_text(json.dumps(saved, indent=1))
    if not summary:
        return 0
    print("\nworkload   metric          runs  median        q1            q3       "
          "   spread  bound/3  tail")
    for workload, results in runs.items():
        for name, s in summary[workload].items():
            third = f"{bounds[name] / 3:.4f}" if name in bounds else "-"
            spread = "-" if s["spread"] is None else f"{s['spread']:.4f}"
            tail = "none (needs >= 20 runs)" if s["tail"] is None else (
                f"p{s['tail'][0]} = {s['tail'][1]:.6g}"
            )
            print(
                f"{workload:10s} {name:15s} {s['runs']:4d}  {s['median']:<12.6g}  "
                f"{s['q1']:<12.6g}  {s['q3']:<12.6g}  {spread:6s}  {third:7s}  {tail}"
            )
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"{workload:10s} failed {failed} of {attempted} attempted item runs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
