#!/usr/bin/env python3
"""Run every experiment and print all the tables, no pytest needed.

Usage:  python benchmarks/run_all.py [experiment-id ...]

With no arguments every Exx/Axx/Fxx/Lxx experiment runs in order; with
arguments (e.g. ``e05 a03``) only those run.  Tables also land in
``benchmarks/results/``.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import sys
import time

# Allow `python benchmarks/run_all.py` from anywhere: the benchmarks
# package lives next to this file.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


EXPERIMENTS = [
    ("f01", "bench_f01_viper_codec"),
    ("f02", "bench_f02_dataplane"),
    ("f03", "bench_f03_transactor_pair"),
    ("f04", "bench_f04_sim_ledger"),
    ("e01", "bench_e01_switching_delay"),
    ("e02", "bench_e02_delay_vs_size"),
    ("e03", "bench_e03_header_overhead"),
    ("e04", "bench_e04_header_sizes"),
    ("e05", "bench_e05_congestion_backpressure"),
    ("e06", "bench_e06_failure_recovery"),
    ("e07", "bench_e07_logical_links"),
    ("e08", "bench_e08_bursty_cvc"),
    ("e09", "bench_e09_token_authorization"),
    ("e10", "bench_e10_transaction_rtt"),
    ("e11", "bench_e11_scalability"),
    ("e12", "bench_e12_multicast"),
    ("e13", "bench_e13_truncation_vs_fragmentation"),
    ("e14", "bench_e14_priority_preemption"),
    ("e15", "bench_e15_packet_lifetime"),
    ("a01", "bench_a01_decision_delay"),
    ("a02", "bench_a02_size_mixture_queueing"),
    ("a03", "bench_a03_playout_jitter"),
    ("a04", "bench_a04_ip_tunnel"),
    ("a05", "bench_a05_nab_host_overhead"),
    ("a06", "bench_a06_hierarchical_fanout"),
    ("a07", "bench_a07_blocked_policies"),
    ("d01", "bench_d01_directory_scale"),
    ("l01", "bench_l01_live_loopback"),
    ("o01", "bench_o01_obs_overhead"),
    ("s01", "bench_s01_sirlint_speed"),
    ("r01", "bench_r01_chaos_soak"),
    ("r02", "bench_r02_slick_failover"),
]


class _InlineBenchmark:
    """Minimal stand-in for pytest-benchmark's fixture."""

    def __call__(self, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def pedantic(self, fn, rounds=1, iterations=1, args=(), kwargs=None):
        return fn(*args, **(kwargs or {}))


def main(argv) -> int:
    wanted = {a.lower() for a in argv[1:]}
    failures = []
    runs = []
    for exp_id, module_name in EXPERIMENTS:
        if wanted and exp_id not in wanted:
            continue
        module = importlib.import_module(f"benchmarks.{module_name}")
        bench_fn = next(
            getattr(module, name) for name in dir(module)
            if name.startswith("bench_")
        )
        started = time.time()
        try:
            # Most benches take pytest-benchmark's fixture; the
            # subprocess-timing ones (s01, r01) take no arguments.
            if inspect.signature(bench_fn).parameters:
                bench_fn(_InlineBenchmark())
            else:
                bench_fn()
            status = "ok"
        except AssertionError as error:
            failures.append((exp_id, error))
            status = f"SHAPE-CHECK FAILED: {error}"
        elapsed = time.time() - started
        runs.append({
            "id": exp_id,
            "module": module_name,
            "status": "ok" if status == "ok" else "shape_check_failed",
            "seconds": round(elapsed, 3),
        })
        print(f"[{exp_id}] {status} ({elapsed:.1f}s)\n")
    # Machine-readable summary next to the per-bench BENCH_<id>.json
    # files (written by _common.publish for every table published).
    results_dir = os.path.join(os.path.dirname(__file__), "results")
    os.makedirs(results_dir, exist_ok=True)
    with open(os.path.join(results_dir, "BENCH_run_all.json"), "w") as fh:
        json.dump(
            {"experiments": runs, "failures": len(failures)},
            fh, indent=2, sort_keys=True,
        )
        fh.write("\n")
    if failures:
        print(f"{len(failures)} experiment(s) failed their shape checks.")
        return 1
    print("All experiments reproduced their paper claims.")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
