"""``python -m benchmarks.e2e``: run workloads, or compare two result files.

    python -m benchmarks.e2e [--seed N] [--workload NAME ...] [--trace]
                             [--seconds S] [--repeat R] [--out FILE]
    python -m benchmarks.e2e compare A.json B.json

Every workload runs in a fresh interpreter (``run.py``), so
``peak_rss_mb`` and ``setup_s`` are per workload.  ``--trace`` re-runs
each workload with the probes installed and prints its ledger;
``--repeat R`` runs seeds N..N+R-1, which lets ``compare`` see the
run-to-run spread.  Results are written to ``--out`` (default
``benchmarks/e2e/out/results_seed<N>.json``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
OUT = os.path.join(HERE, "out")  # git-ignored


def _declared() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run_one(workload: str, seed: int, seconds: float, traced: bool, quick: bool) -> dict:
    """One fresh interpreter; its human-readable output streams through."""
    os.makedirs(OUT, exist_ok=True)
    with tempfile.NamedTemporaryFile(suffix=".json", dir=OUT, delete=False) as tmp:
        path = tmp.name
    command = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "1" if traced else "0",
        "--json-out", path,
    ] + (["--quick"] if quick else [])
    try:
        process = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = process.stdout.splitlines()
        if lines and lines[-1].startswith("{"):
            lines.pop()  # the driver's JSON line; the file has it all
        print("\n".join(lines))
        if process.returncode:
            raise SystemExit(
                f"{workload} (seed {seed}) exited {process.returncode}"
            )
        with open(path) as handle:
            return json.load(handle)
    finally:
        os.unlink(path)


def run(args: argparse.Namespace) -> int:
    declared = _declared()
    names = args.workload or [w["name"] for w in declared["workloads"]]
    seconds = args.seconds if args.seconds else declared["run_seconds"]
    runs = []
    for name in names:
        for seed in range(args.seed, args.seed + args.repeat):
            runs.append(_run_one(name, seed, seconds, False, args.quick))
            if args.trace:
                runs.append(_run_one(name, seed, seconds, True, args.quick))
    out = args.out or os.path.join(OUT, f"results_seed{args.seed}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    for entry in runs:
        entry["notes"].pop("series", None)
    with open(out, "w") as handle:
        json.dump({"seed": args.seed, "seconds": seconds, "runs": runs}, handle, indent=1)
    print(f"results written to {os.path.relpath(out, os.getcwd())}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e compare")
        parser.add_argument("base")
        parser.add_argument("change")
        args = parser.parse_args(argv[1:])
        from benchmarks.e2e.compare import main as compare_main

        return compare_main(args.base, args.change)
    parser = argparse.ArgumentParser(
        prog="python -m benchmarks.e2e", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append",
                        help="run only this workload (repeatable)")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="measured seconds per run (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--out")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
