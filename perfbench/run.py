"""The ONION end-to-end benchmark.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload build --seed 1 --seconds 20 --trace 0

Workloads: ``build`` (cold pipeline, closure in memory), ``build_paged``
(the same with the paged SQLite store) and ``serve`` (HTTP reads beside
churn writes).  ``--trace 0`` reports the end-to-end metrics,
``--trace 1`` the per-layer ones plus the tracing overhead.  End-to-end
times are scaled to a reference host by a fixed loop timed beside the
work (``measure.host_scale``).  The last line of standard output is the
result as one JSON object; the line before it records the machine and
the unscaled end-to-end values.  Scratch files go under
``.perfbench_work/`` in the checkout and are removed on exit.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "build_paged", "serve")


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def run_workload(workload: str, seed: int, seconds: float, trace: bool, sizes=None,
                 fault=None, workdir: Path | None = None):
    """Run one workload in this process; returns its ``Outcome``.

    ``serve`` keeps its server's journal under ``workdir``."""
    from perfbench import builds, inputs, serve

    sizes = sizes or inputs.SIZES
    if workload == "serve":
        return serve.run(seed, seconds, trace, sizes, fault, workdir)
    return builds.run(workload, seed, seconds, trace, sizes, fault)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    # a terminated run still stops its server child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    from perfbench.measure import END_TO_END, PER_LAYER, machine

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(workdir)  # paged stores' temp files stay in the checkout
    try:
        outcome = run_workload(args.workload, args.seed, args.seconds,
                               bool(args.trace), workdir=workdir)
        context = machine(outcome.references)
    finally:
        tempfile.tempdir = None
        shutil.rmtree(workdir, ignore_errors=True)
    if args.trace:
        outcome.metrics["machine.calibration_ms"] = (context["calibration_ms"], "ms")
        outcome.metrics["machine.nproc"] = (context["nproc"], "count")
    for problem in outcome.problems:
        print(f"perfbench: check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "machine": context,
        "workload": args.workload,
        "seed": args.seed,
        "error_rate": outcome.failed / max(outcome.attempted, 1),
        "unscaled": outcome.raw,
    }))
    print(json.dumps(outcome.result(PER_LAYER if args.trace else END_TO_END)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
