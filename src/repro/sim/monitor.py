"""Statistics monitors used throughout the benchmarks.

The evaluation section of the paper reasons about *time-averaged* queue
lengths and link utilization (M/D/1), per-packet delays, and rates.  These
small accumulators compute exactly those quantities online so benchmark
runs never need to store per-event traces.

The value-shaped primitives — :class:`Counter`, :class:`Gauge` and
:class:`Histogram` — now live in the unified metrics registry
(:mod:`repro.obs.registry`) and are re-exported here unchanged, so every
existing sim call site keeps its names while the live overlay, the
router stats and the sim share one implementation (and one Prometheus
exposition path).  The *time-aware* monitors (:class:`TimeWeighted`,
:class:`UtilizationTracker`) remain simulator citizens: they need a
clock, which only the caller has.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import Counter, Gauge, Histogram

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "TimeWeighted",
    "UtilizationTracker",
]


class TimeWeighted:
    """Time-weighted average of a piecewise-constant quantity.

    Feed it every change of the quantity (queue length, number of busy
    links, outstanding circuits) and it integrates value x time.
    """

    def __init__(self, name: str = "", initial: float = 0.0, start: float = 0.0) -> None:
        self.name = name
        self.value = initial
        self._last_change = start
        self._integral = 0.0
        self._start = start
        self.maximum = initial

    def update(self, now: float, value: float) -> None:
        """Record that the quantity changed to ``value`` at time ``now``."""
        if now < self._last_change:
            raise ValueError(
                f"time went backwards: {now} < {self._last_change}"
            )
        self._integral += self.value * (now - self._last_change)
        self._last_change = now
        self.value = value
        if value > self.maximum:
            self.maximum = value

    def mean(self, now: float) -> float:
        """Time-weighted mean over [start, now]."""
        elapsed = now - self._start
        if elapsed <= 0:
            return self.value
        integral = self._integral + self.value * (now - self._last_change)
        return integral / elapsed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<TimeWeighted {self.name!r} value={self.value}>"


class UtilizationTracker:
    """Tracks busy/idle state of a resource (a link) and reports utilization."""

    def __init__(self, start: float = 0.0, name: str = "") -> None:
        self.name = name
        self._busy_since: Optional[float] = None
        self._busy_total = 0.0
        self._start = start

    def busy(self, now: float) -> None:
        """Mark the resource busy from ``now`` (idempotent while busy)."""
        if self._busy_since is None:
            self._busy_since = now

    def idle(self, now: float) -> None:
        """Mark the resource idle from ``now`` (idempotent while idle)."""
        if self._busy_since is not None:
            self._busy_total += now - self._busy_since
            self._busy_since = None

    def utilization(self, now: float) -> float:
        """Fraction of [start, now] the resource spent busy."""
        elapsed = now - self._start
        if elapsed <= 0:
            return 0.0
        busy = self._busy_total
        if self._busy_since is not None:
            busy += now - self._busy_since
        return busy / elapsed
