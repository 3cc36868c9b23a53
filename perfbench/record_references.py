"""Store the reference-potential CSVs of every workload as the references.

    python3 perfbench/record_references.py

Runs each workload's reference-potential items once, exactly as run.py
does, and copies their CSVs to ``references/<workload>/<branch>.csv``.
Run it only on a commit whose outputs are meant to be the baseline.
"""

from __future__ import annotations

import sys

from gen import WORKLOADS, make_items
from run import HERE, ROOT, _run_pass, write_configs


def main():
    for workload in WORKLOADS:
        items = [i for i in make_items(workload, 0, ROOT / "configs") if i.reference]
        work = ROOT / ".perfbench" / f"record-{workload}"
        configs = write_configs(items, work)
        result = _run_pass("pass0", items, configs, work)
        target = HERE / "references" / workload
        target.mkdir(parents=True, exist_ok=True)
        for entry, item in zip(result["items"], items):
            if entry["exit"] != 0:
                print(f"{item.id} exited {entry['exit']}; not recorded", file=sys.stderr)
                return 1
            (target / f"{item.branch}.csv").write_bytes(entry["csv"])
            print(f"recorded {workload}/{item.branch}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
