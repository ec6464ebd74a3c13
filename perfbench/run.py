"""Repository benchmark: one command, three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload terminal --seed 1 --seconds 20 \\
        --trace 0

``--trace 0`` times the workload bare and reports the end-to-end
metrics; ``--trace 1`` also runs it with spans around the public entry
points of each layer and reports the per-layer metrics.  The last line
of standard output is the JSON result; the lines before it are a
human-readable table.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("terminal", "serve_fleet", "campaign_sweep")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"perfbench: no package under {src}/repro; run from a "
              f"checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [src, ROOT]
    # shard workers fork from this process and must find the package too
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, ROOT, os.environ.get("PYTHONPATH")) if p)

    import importlib
    from perfbench.common import Run

    module = importlib.import_module(f"perfbench.{args.workload}")
    with Run(ROOT, args.workload, args.seed, args.seconds,
             bool(args.trace)) as run:
        module.run(run)
    return 0


if __name__ == "__main__":
    sys.exit(main())
