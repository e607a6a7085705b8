"""Benchmark entry point: one workload, one seed, one measured window.

    python3 perfbench/run.py --workload paper_default --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. ``--trace 0`` prints the end-to-end
metrics, ``--trace 1`` the per-layer decomposition; either way the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. The line before it (``#
details``) carries the environment block, the operation counts and the
workload's invariants. ``--smoke`` shrinks graphs and repetitions so the
whole run takes seconds (used by the benchmark's own tests).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from ncbench.common import CACHE_DIR, BenchError, environment, require_program  # noqa: E402

WORKLOADS = ("paper_default", "saturated_batch")


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    try:
        require_program()
    except BenchError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    from ncbench import workloads

    scratch = CACHE_DIR / f"run-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    make = workloads.Settings.smoke if args.smoke else workloads.Settings
    settings = make(seed=args.seed, seconds=args.seconds, scratch=scratch)
    try:
        outcome = getattr(workloads, args.workload)(settings, bool(args.trace))
    except BenchError as error:
        print(f"perfbench: {args.workload}: {error}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    failed = outcome.failed + outcome.wrong
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(),
        "attempted": outcome.attempted,
        "succeeded": outcome.attempted - failed,
        "failed": failed,
        "answers_checked": outcome.checked,
        "answers_wrong": outcome.wrong,
        **outcome.details,
    }
    print("# details " + json.dumps(details, sort_keys=True))
    for name, (value, unit) in outcome.metrics.items():
        print(f"# {name:34s} {value:.6g} {unit}")
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
