"""One workload process: set up, then run every item through the CLI serially.

    python3 perfbench/worker.py JOB.json

The job file (written by run.py) names the items, their configs and output
directories, whether to trace, and where to write the result. Set-up is
the time from the start of ``main`` to the first item: importing
``starcoupling`` and loading and validating every item's config. Each item
is ``starcoupling.cli.run([command, --config, ..., --out, ..., --parallel,
1])`` with its printed rows captured. The result JSON holds per-item exit
codes, times and peak RSS so far, set-up time, wall time, peak RSS and,
when tracing, the per-layer metrics.

Untraced passes also run a speed probe (``SpeedProbe``): every
``PROBE_PERIOD_S`` of item time a SIGALRM handler takes one sample, a
fixed slice of pure-Python, numpy and SuperLU work that does not touch
``starcoupling``. Each item records the harmonic mean of the samples taken
while it ran (the sample at the item's time-averaged speed), so run.py can
scale the item's time by how fast the machine was while it ran; the time
spent in the handler is taken out of the item's time. Right after set-up,
``SETUP_PROBE_SAMPLES`` samples are taken back to back and their median is
recorded to scale the set-up time the same way.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path


PROBE_PERIOD_S = 0.1
#: probe slices timed right after set-up, to scale the set-up time
SETUP_PROBE_SAMPLES = 20


class SpeedProbe:
    """Times a fixed slice of work, independent of ``starcoupling``, from a
    SIGALRM handler every ``PROBE_PERIOD_S`` while started.

    The slice has three parts: a pure-Python loop, small numpy calls and a
    SuperLU solve. A sample is the geometric mean of the three part times,
    so each part counts equally however long it takes: on the reference
    items, the pure-Python and numpy parts track ``converge`` best and the
    SuperLU part tracks ``spectrum`` best.
    """

    def __init__(self):
        import numpy as np
        from scipy.sparse import diags
        from scipy.sparse.linalg import splu

        n = 3000
        self._x = np.linspace(0.0, 1.0, 2000)
        self._matrix = diags(
            [np.full(n - 1, -1.0), np.full(n, 2.1), np.full(n - 1, -1.0)],
            [-1, 0, 1],
            format="csc",
        )
        self._rhs = np.ones(n)
        self._np = np
        self._splu = splu
        self.samples = []
        #: seconds spent inside the probe since construction
        self.spent = 0.0

    def _python(self):
        total = 0.0
        for i in range(4000):
            total += (i % 7) * 0.5

    def _numpy(self):
        for _ in range(10):
            self._np.cumsum(self._np.sin(self._x) * self._x)

    def _superlu(self):
        self._splu(self._matrix).solve(self._rhs)

    def sample(self, *_):
        t0 = time.perf_counter()
        product = 1.0
        for part in (self._python, self._numpy, self._superlu):
            start = time.perf_counter()
            part()
            product *= time.perf_counter() - start
        self.samples.append(product ** (1.0 / 3.0))
        self.spent += time.perf_counter() - t0

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)


def _peak_rss_mib():
    # Linux reports ru_maxrss in KiB
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(job_path):
    start = time.perf_counter()
    job = json.loads(Path(job_path).read_text())
    import starcoupling
    from starcoupling import cli

    tracer = None
    if job["trace"]:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    for item in job["items"]:
        cli.load_config(item["config"])
    setup_s = time.perf_counter() - start

    result = {
        "package_file": starcoupling.__file__,
        "setup_s": setup_s,
        "items": [],
    }
    probe = None if tracer is not None else SpeedProbe()
    if probe is not None:
        for _ in range(SETUP_PROBE_SAMPLES):
            probe.sample()
        result["setup_probe_s"] = statistics.median(probe.samples)
    if job.get("setup_only"):
        Path(job["result"]).write_text(json.dumps(result))
        return 0

    for item in job["items"]:
        argv = [item["command"], "--config", item["config"], "--out", item["out"]]
        argv += ["--parallel", "1"]
        captured = io.StringIO()
        error = None
        if tracer is not None:
            tracer.item = item["id"]
        if probe is not None:
            k0, spent0 = len(probe.samples), probe.spent
            probe.start()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            try:
                code = cli.run(argv)
            except Exception:  # an uncaught error is the item's outcome, not ours
                code = None
                error = traceback.format_exc()
        if probe is not None:
            probe.stop()
        seconds = time.perf_counter() - t0
        probe_s = None
        if probe is not None:
            seconds -= probe.spent - spent0
            probe.sample()  # at least one sample for the shortest items
            probe_s = statistics.harmonic_mean(probe.samples[k0:])
        result["items"].append(
            {
                "id": item["id"],
                "exit": code,
                "seconds": seconds,
                "probe_s": probe_s,
                "peak_rss_mb": _peak_rss_mib(),
                "stderr": "" if code == 0 else (error or captured.getvalue()[-2000:]),
            }
        )
    result["wall_s"] = sum(entry["seconds"] for entry in result["items"])
    result["peak_rss_mb"] = _peak_rss_mib()
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.metrics()
        tracer.write_spans(job["spans"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
