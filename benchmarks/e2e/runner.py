"""One workload, one process: what the live and sim runs share.

Each run is: imports -> three set-ups (build, route fetch, warm-up;
``setup_s`` is imports plus their median) -> the measured window on the
last set-up.  End-to-end metrics are taken with tracing off.  A traced
run spends a quarter of its time in an untraced reference window (for
``trace_overhead_ratio``) and half in the window its per-layer numbers
are read from; ``live.run`` and ``simrun.run`` say how.
"""

from __future__ import annotations

import os
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from benchmarks.e2e.estimate import (
    REFERENCE_S,
    Calibration,
    Slice,
    at_reference_speed,
    quantile,
    quiet_half,
)
from benchmarks.e2e.spec import END_TO_END, PER_LAYER, WORKLOADS_BY_NAME

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

#: Hop retransmits per transaction above which a *clean* workload's run
#: is flagged.  Not 0: when a shared box deschedules the loop for longer
#: than the 50 ms hop ack timeout, frames are retransmitted (and dropped
#: as duplicates) though no transaction is lost.
CLEAN_RETRIES_PER_TX = 0.25

#: Median per-slice CPU share below which a run is flagged: every workload
#: keeps its loop busy, and if the process did not get the core its
#: throughput is not a cost number.
SATURATED_CPU_SHARE = 0.9


class PremiseError(RuntimeError):
    """The *program* broke a workload's premise (a wrong or failed
    reply, a cache that should miss hitting, the simulator not repeating
    itself): the run is invalid and its numbers are not reported.

    What the *machine* does to a run - steal time, stalls longer than
    the ack timeout - is recorded as a warning instead: the driver gives
    one result per run and the box is not the program's fault."""


@dataclass
class RunResult:
    workload: str
    seed: int
    traced: bool
    correct: bool
    attempted: int
    failed: int
    #: name -> (value, unit): every end-to-end metric of an untraced
    #: run, every per-layer metric of a traced one.
    metrics: Dict[str, Tuple[float, str]]
    #: Printed, not gated: raw medians, sample counts, and ``warnings``
    #: about what the machine did to the run.
    notes: Dict[str, object] = field(default_factory=dict)
    #: Ledger / profile tables of a traced run.
    tables: List[str] = field(default_factory=list)

    def contract_line(self) -> Dict[str, object]:
        """The JSON object the benchmark driver reads."""
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in self.metrics.items()
            },
        }


_UNITS = {m.name: m.unit for m in (*END_TO_END, *PER_LAYER)}


def declared_metrics(values: Dict[str, float], traced: bool) -> Dict[str, Tuple[float, str]]:
    """``values`` as every end-to-end metric (untraced) or every
    per-layer metric (traced); a layer the workload does not exercise
    did no work and reads 0."""
    names = [m.name for m in (PER_LAYER if traced else END_TO_END)]
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"undeclared metrics: {sorted(unknown)}")
    return {name: (float(values.get(name, 0.0)), _UNITS[name]) for name in names}


def timing_metrics(
    slices: Sequence[Slice], timer_tail: bool = False
) -> Tuple[Dict[str, float], Dict[str, object]]:
    """tx/s, CPU per transaction and RTT percentiles of a window at the
    reference machine speed, plus the raw medians.

    Every workload keeps its loop busy, so all of a slice's wall time is
    computing and is rescaled; the estimates are medians over the quiet
    half of the slices (``estimate.quiet_half``), the raw ones over all.  With ``timer_tail`` (``live_lossy``) the
    90th-percentile transaction also sat out a retransmit timer, which
    no machine speeds up: it is reported as the rescaled median plus the
    distance from median to 90th percentile as measured (per slice, so
    that a machine changing speed mid-window does not smear it).
    """
    wall_cal = [s.calibration_wall_s for s in slices]
    cpu_cal = [s.calibration_cpu_s for s in slices]
    wall_per_tx = [s.wall_s / s.tx for s in slices]
    cpu_per_tx = [s.cpu_s / s.tx for s in slices]
    quiet = quiet_half(slices)
    metrics = {
        "tx_per_s": 1.0 / at_reference_speed(wall_cal, wall_per_tx, quiet),
        "cpu_us_per_tx": at_reference_speed(cpu_cal, cpu_per_tx, quiet) * 1e6,
    }
    notes: Dict[str, object] = {
        "slices": len(slices),
        "raw_tx_per_s": 1.0 / statistics.median(wall_per_tx),
        "raw_cpu_us_per_tx": statistics.median(cpu_per_tx) * 1e6,
        "cpu_share": statistics.median(s.cpu_s / s.wall_s for s in slices),
        "calibration_ms": statistics.median(wall_cal) * 1e3,
    }
    series = {"calibration_wall_s": wall_cal, "calibration_cpu_s": cpu_cal,
              "wall_per_tx_s": wall_per_tx, "cpu_per_tx_s": cpu_per_tx}
    if slices[0].rtts_s:
        ordered = [sorted(s.rtts_s) for s in slices]
        for name, q in (("rtt_p50_ms", 0.5), ("rtt_p90_ms", 0.9)):
            series[name] = [quantile(rtts, q) * 1e3 for rtts in ordered]
            notes[f"raw_{name}"] = statistics.median(series[name])
            metrics[name] = at_reference_speed(wall_cal, series[name], quiet)
        if timer_tail:
            metrics["rtt_p90_ms"] = metrics["rtt_p50_ms"] + statistics.median(
                p90 - p50
                for p50, p90, kept in zip(
                    series["rtt_p50_ms"], series["rtt_p90_ms"], quiet
                ) if kept
            )
        notes["rtt_samples"] = sum(len(rtts) for rtts in ordered)
    notes["series"] = series
    return metrics, notes


def machine_speed(calibrate: Calibration) -> List[float]:
    """A few calibration CPU times, taken between set-ups (one alone is
    a 0.6 ms sample of a machine whose speed moves faster than that)."""
    return [calibrate()[1] for _ in range(3)]


def setup_seconds(
    imports_s: float, set_ups: Sequence[float], calibrations: Sequence[float]
) -> float:
    """CPU seconds of the imports plus the median set-up, at the
    reference machine speed.  Set-up is all computation - no workload
    waits on a timer in it - so CPU time is what its wall time would be
    on a machine that is not shared, and plainly proportional."""
    return (imports_s + statistics.median(set_ups)) * (
        REFERENCE_S / statistics.median(calibrations)
    )


def check(condition: bool, message: str) -> None:
    if not condition:
        raise PremiseError(message)


def cpu_share_warnings(notes: Dict[str, object]) -> List[str]:
    """The warning a run gets when the process did not have the core to
    itself."""
    if notes["cpu_share"] >= SATURATED_CPU_SHARE:
        return []
    return [
        f"cpu share {notes['cpu_share']:.2f}: the process did not have the "
        "core to itself, so tx_per_s is not a cost number "
        "(cpu_us_per_tx still is)"
    ]


# -- entry ---------------------------------------------------------------------


def run_workload(
    name: str, seed: int, seconds: float, traced: bool,
    quick: bool = False, entered: Optional[float] = None,
) -> RunResult:
    """Run one workload in this process.  ``entered`` is the
    ``process_time`` reading at interpreter entry (for ``setup_s``)."""
    workload = WORKLOADS_BY_NAME[name]
    entered = time.process_time() if entered is None else entered
    calibrate = Calibration()
    try:
        # Imported here: importing the substrate is part of ``setup_s``.
        if workload.kind == "sim":
            from benchmarks.e2e import simrun as substrate
        else:
            from benchmarks.e2e import live as substrate
        return substrate.run(
            workload, seed, seconds, traced, quick, entered, calibrate
        )
    finally:
        calibrate.close()
