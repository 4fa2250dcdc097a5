#!/usr/bin/env python3
"""sim_sweep — the ``sim_random_mix`` scenario over a range of seeds.

Each seed is one :class:`benchmarks.e2e.simrun.SimBench` (the repo
benchmark's simulated workload: the fixed 12-router internetwork and
its 16 closed-loop clients, the seed drawing every client's think
times) run for ``--seconds`` simulated seconds.  One line per seed:
its failed and completed transactions and the wall seconds it took,
set-up included; then the seeds that failed any transaction and the
sweep's total wall time.  Seeds 3912 and 4074 are ROADMAP item 18's
known failures (a stale §2.2 rate limit that holds its queue).

Print-only: it gates nothing and always exits 0.

Usage::

    python tools/sim_sweep.py                    # seeds 3800-4099, 1 s each
    python tools/sim_sweep.py --first 3900 --last 3919 --seconds 0.5
"""

from __future__ import annotations

import argparse
import os
import sys
import time

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(_ROOT, "src"), _ROOT]

from benchmarks.e2e.simrun import SimBench  # noqa: E402

#: ROADMAP item 18's seeds, which fail at 1 simulated s.
KNOWN_FAILURES = (3912, 4074)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=3800)
    parser.add_argument("--last", type=int, default=4099)
    parser.add_argument("--seconds", type=float, default=1.0,
                        help="simulated seconds per seed")
    args = parser.parse_args(argv)
    failing = []
    swept = time.perf_counter()
    for seed in range(args.first, args.last + 1):
        started = time.perf_counter()
        bench = SimBench(seed)
        bench.advance(args.seconds)
        wall = time.perf_counter() - started
        failed = bench.failed()
        known = "  (known: item 18)" if seed in KNOWN_FAILURES else ""
        print(f"seed {seed}  failed {failed:4d}  completed "
              f"{bench.progress().completed:6d}  wall {wall:6.3f} s{known}",
              flush=True)
        if failed:
            failing.append(seed)
    total = time.perf_counter() - swept
    count = args.last - args.first + 1
    print(f"{count} seeds x {args.seconds:g} simulated s: "
          f"{len(failing)} with failed transactions {failing}; "
          f"wall {total:.1f} s ({total / max(1, count):.3f} s per seed)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
