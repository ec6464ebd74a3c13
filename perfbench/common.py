"""Shared helpers: run context, statistics, memory, result line."""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from perfbench.metrics import END_TO_END, PER_LAYER

#: Iterations of the host calibration loop (see :func:`calibration_s`).
CAL_ITERATIONS = 100_000


class Run:
    """One benchmark invocation: its arguments, clock and scratch dir.

    ``trace=False`` runs the workload bare for ``seconds``.  With
    ``trace=True`` the first half of the time runs bare and the second
    half traced, so the tracing overhead is measured inside one
    process.
    """

    def __init__(self, root: str, workload: str, seed: int,
                 seconds: float, trace: bool):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = os.path.join(root, ".perfbench_work", str(os.getpid()))
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def __enter__(self) -> "Run":
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        return self

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        parent = os.path.dirname(self.work)
        try:
            os.rmdir(parent)
        except OSError:
            pass                        # another run still uses it

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def fail(self, what: str) -> None:
        """Count one failed operation and keep the first few reasons."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def phases(self):
        """``(traced, deadline)`` pairs for the timed loop; each phase
        runs at least one batch."""
        now = time.perf_counter()
        if not self.trace:
            return [(False, now + self.seconds)]
        half = self.seconds / 2.0
        return [(False, now + half), (True, now + self.seconds)]


def calibration_s() -> float:
    """Median of three timings of a fixed pure-Python loop: how fast
    the host ran at the end of the run, reported next to the results
    (it does not scale them)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        d: dict = {}
        for i in range(CAL_ITERATIONS):
            k = i % 1000
            d[k] = d.get(k, 0) + i
        times.append(time.perf_counter() - t0)
    return median(times)


def import_s(run: Run, modules, repeats: int = 5) -> float:
    """Median seconds a fresh interpreter takes to import ``modules``
    (the import part of set-up, measured apart from this process,
    whose modules are already loaded)."""
    code = ("import time\nt0 = time.perf_counter()\n"
            + "".join(f"import {m}\n" for m in modules)
            + "print(time.perf_counter() - t0)\n")
    times = []
    for _ in range(repeats):
        out = subprocess.run([sys.executable, "-c", code], cwd=run.root,
                             capture_output=True, text=True, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return median(times)


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile (0..1) of ``values``; 0 if empty."""
    v = sorted(values)
    if not v:
        return 0.0
    pos = q * (len(v) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    waited-for child, in MB (``ru_maxrss`` is KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) * 1024 / 1e6


def emit(run: Run, e2e: dict, layers: dict, extra: list) -> None:
    """Print a human table — every reported metric, then ``extra``
    ``(label, value, unit)`` rows — and then the one-line JSON
    result."""
    host = calibration_s()
    if run.trace:
        wanted = PER_LAYER
        metrics = dict(layers, **{"host.calibration_s": host})
    else:
        wanted = END_TO_END
        metrics = e2e
    missing = [name for name, _unit in wanted if name not in metrics]
    if missing:
        raise RuntimeError(f"workload did not produce {missing}")
    rows = [(name, metrics[name], unit) for name, unit in wanted] + extra
    if not run.trace:
        rows.append(("host.calibration_s", host, "s"))
    rows.append(("failed_share", run.failed / max(run.attempted, 1),
                 "ratio"))
    for label, value, unit in rows:
        print(f"{run.workload:15s} {label:48s} {value:14.6g} {unit}")
    for problem in run.problems:
        print(f"FAILED: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": unit}
                    for name, unit in wanted},
    }))
