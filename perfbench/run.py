"""Simulator benchmark: host throughput of four workloads, one per invocation.

Run from the root of a checkout::

    python3 perfbench/run.py --workload event-burst --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run (and writes its spans under ``perfbench/out/``).
``--workload all`` runs the four workloads in turn in one process and ends
with one result whose metric names are prefixed ``<workload>/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's details (simulation digest, engine path and the reasons for
it, set-up cache and calibration memo counters, failures).  The exit code is
0 only when every correctness check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    source = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(source, "repro", "__init__.py")):
        print(f"error: no simulator sources at {source}/repro; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, source]
    from perfbench.bench import combine, measure, report_lines
    from perfbench.workloads import WORKLOAD_NAMES
    from repro.analysis.perf import tune_gc

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    if not set(names) <= set(WORKLOAD_NAMES):
        print(f"error: unknown workload {args.workload!r}; expected all or one of "
              f"{', '.join(WORKLOAD_NAMES)}", file=sys.stderr)
        return 2
    tune_gc()
    outcomes = []
    for name in names:
        outcome = measure(
            name,
            args.seed,
            args.seconds,
            trace=bool(args.trace),
            spans_dir=os.path.join(HERE, "out") if args.trace else None,
        )
        for line in report_lines(outcome):
            print(line)
        outcomes.append(outcome)
    result = outcomes[0]["result"] if len(outcomes) == 1 else combine(names, outcomes)
    if len(outcomes) > 1:
        print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
