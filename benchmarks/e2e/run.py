"""Run one workload in this process and print its result.

``python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S
--trace 0|1`` is the command the benchmark driver calls (see the root
``BENCHMARK.json``).  Human-readable lines go first; the last line of
standard output is one JSON object with exactly the keys ``correct``,
``attempted``, ``failed`` and ``metrics`` — every end-to-end metric with
``--trace 0``, every per-layer metric with ``--trace 1``.  A workload
whose own premise fails exits non-zero and prints no result.
"""

from __future__ import annotations

import time

_ENTERED = time.process_time()

import argparse
import json
import os
import sys

# A bare checkout has nothing installed: the repo root (for
# ``benchmarks.e2e``) and ``src/`` (for ``repro``) go on the path here.
_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for _entry in (os.path.join(_ROOT, "src"), _ROOT):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)


def main(argv=None) -> int:
    from benchmarks.e2e.spec import WORKLOADS_BY_NAME

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS_BY_NAME))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny slices, one set-up, no share checks (tests)")
    parser.add_argument("--json-out", help="also write the full result here")
    args = parser.parse_args(argv)

    from benchmarks.e2e.runner import PremiseError, run_workload

    try:
        result = run_workload(
            args.workload, args.seed, args.seconds, bool(args.trace),
            quick=args.quick, entered=_ENTERED,
        )
    except PremiseError as error:
        print(f"{args.workload}: INVALID RUN: {error}", file=sys.stderr)
        return 3
    print(f"# {result.workload} seed={result.seed} "
          f"{'traced' if result.traced else 'untraced'}: "
          f"{result.attempted} attempted, {result.failed} failed")
    for name, (value, unit) in result.metrics.items():
        print(f"{name:44s} {value:14.6g} {unit}")
    for name, value in result.notes.items():
        if name not in ("series", "warnings"):
            print(f"  ({name}: {value})")
    for warning in result.notes.get("warnings", ()):
        print(f"{result.workload}: WARNING: {warning}", file=sys.stderr)
    for table in result.tables:
        print(table)
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump({
                "workload": result.workload, "seed": result.seed,
                "traced": result.traced, "notes": result.notes,
                **result.contract_line(),
            }, handle)
    print(json.dumps(result.contract_line()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
