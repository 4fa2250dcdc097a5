"""``python -m benchmarks.e2e compare A.json B.json``: B against base A.

One row per (end-to-end metric, workload), judged by the metric's
bound from the root ``BENCHMARK.json``:

* **worse** — B's median is worse than A's by more than the bound;
* **better** — better by more than the bound;
* **same** — within the bound either way;
* **unresolved** — the run-to-run spread on either side is wider than
  the bound, so the row cannot be called unchanged (unless every run of
  one side beats every run of the other).

Every ratio is printed with its base.  A higher ``failed_share`` is a
regression whatever the timings say; a changed ``sim.fingerprint`` on
the same seed is flagged as changed simulated behaviour; a run's own
warnings (stolen CPU, stalls past the ack timeout) are repeated as
notes.  Exit status 1 on any regression, else 0.
"""

from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


@dataclass(frozen=True)
class Row:
    workload: str
    metric: str
    unit: str
    base: float
    value: float
    bound: float
    spread: float
    verdict: str

    @property
    def ratio(self) -> float:
        return self.value / self.base if self.base else float("inf")


def load_bounds(path: Optional[str] = None) -> Dict[str, Tuple[str, float]]:
    """metric -> (better, bound) from ``BENCHMARK.json``."""
    with open(path or os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    return {m["name"]: (m["better"], m["bound"]) for m in declared["end_to_end"]}


def _spread(values: Sequence[float]) -> float:
    """Interquartile distance over the median; the full range when there
    are too few runs for quartiles; 0 for a single run."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if not middle:
        return 0.0
    if len(values) < 4:
        return (max(values) - min(values)) / abs(middle)
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / abs(middle)


def judge(
    base: Sequence[float], change: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """(verdict, spread) for one metric on one workload."""
    # Work on "cost": a number that is worse when larger.
    sign = 1.0 if better == "lower" else -1.0
    a_cost = [sign * v for v in base]
    b_cost = [sign * v for v in change]
    a, b = statistics.median(a_cost), statistics.median(b_cost)
    worse_by = (b - a) / abs(a) if a else 0.0
    spread = max(_spread(base), _spread(change))
    if spread > bound:
        if min(b_cost) > max(a_cost) and worse_by > bound:
            return "worse", spread
        if max(b_cost) < min(a_cost):
            return "better", spread
        return "unresolved", spread
    if worse_by > bound:
        return "worse", spread
    if worse_by < -bound:
        return "better", spread
    return "same", spread


def _untraced_by_workload(results: dict) -> Dict[str, List[dict]]:
    grouped: Dict[str, List[dict]] = {}
    for run in results["runs"]:
        if not run["traced"]:
            grouped.setdefault(run["workload"], []).append(run)
    return grouped


def compare(
    base: dict, change: dict, bounds: Dict[str, Tuple[str, float]]
) -> Tuple[List[Row], List[str]]:
    """Rows for every (metric, workload) both sides ran, and the
    regressions/flags that are not timing rows."""
    rows: List[Row] = []
    flags: List[str] = []
    a_runs, b_runs = _untraced_by_workload(base), _untraced_by_workload(change)
    for workload, a_list in a_runs.items():
        b_list = b_runs.get(workload)
        if not b_list:
            flags.append(f"{workload}: missing from the second file")
            continue
        for metric, (better, bound) in bounds.items():
            a = [r["metrics"][metric]["value"] for r in a_list]
            b = [r["metrics"][metric]["value"] for r in b_list]
            verdict, spread = judge(a, b, better, bound)
            rows.append(Row(
                workload, metric, a_list[0]["metrics"][metric]["unit"],
                statistics.median(a), statistics.median(b),
                bound, spread, verdict,
            ))
        a_failed = sum(r["failed"] for r in a_list) / sum(r["attempted"] for r in a_list)
        b_failed = sum(r["failed"] for r in b_list) / sum(r["attempted"] for r in b_list)
        if b_failed > a_failed:
            flags.append(
                f"REGRESSION {workload}: failed_share rose "
                f"{a_failed:.6f} -> {b_failed:.6f}"
            )
        if not all(r["correct"] for r in b_list):
            flags.append(f"REGRESSION {workload}: a reply was wrong")
        for side, runs in (("base", a_list), ("change", b_list)):
            for run in runs:
                for warning in run["notes"].get("warnings", ()):
                    flags.append(
                        f"note ({side}) {workload} seed {run['seed']}: {warning}"
                    )
        prints_a = {r["seed"]: r["notes"].get("sim.fingerprint") for r in a_list}
        for run in b_list:
            mine, theirs = run["notes"].get("sim.fingerprint"), prints_a.get(run["seed"])
            if mine and theirs and mine != theirs:
                flags.append(
                    f"{workload} seed {run['seed']}: simulated behaviour "
                    f"changed: fingerprint {theirs} -> {mine}"
                )
    return rows, flags


def render(rows: Sequence[Row], flags: Sequence[str]) -> str:
    lines = [
        f"{'workload':22s} {'metric':14s} {'base':>12s} {'change':>12s} "
        f"{'ratio':>7s} {'bound':>6s} {'spread':>7s}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:22s} {row.metric:14s} {row.base:12.4f} "
            f"{row.value:12.4f} {row.ratio:7.3f} {row.bound:6.2f} "
            f"{row.spread:7.3f}  {row.verdict} ({row.unit}; "
            f"{row.ratio:.3f}x of base {row.base:.4g})"
        )
    lines.extend(flags)
    counts = {v: sum(1 for r in rows if r.verdict == v)
              for v in ("worse", "unresolved", "same", "better")}
    lines.append(
        "rows: " + ", ".join(f"{n} {v}" for v, n in counts.items())
    )
    return "\n".join(lines)


def main(path_a: str, path_b: str, benchmark_json: Optional[str] = None) -> int:
    with open(path_a) as handle:
        base = json.load(handle)
    with open(path_b) as handle:
        change = json.load(handle)
    rows, flags = compare(base, change, load_bounds(benchmark_json))
    print(render(rows, flags))
    regressed = any(row.verdict == "worse" for row in rows) or any(
        flag.startswith("REGRESSION") for flag in flags
    )
    return 1 if regressed else 0
