"""Timestamp-driven playout for real-time traffic (§4.2, §8).

The paper's closing future-work item: "experimenting with real-time
traffic on Sirpent internetworks in which 'jitter' is handled by
selectively delaying data delivery to recreate the original packet
transmission spacing, possibly using the VMTP timestamp for this
purpose" — and §4.2: "packets representing a video stream may
experience different delays in transit; the timestamps allow the
receiver to recreate the appropriate time sequencing".

:class:`PlayoutBuffer` implements exactly that: each arriving packet
carries its sender-side creation timestamp; the buffer schedules
delivery at ``anchor + (timestamp_i - timestamp_0)``, where the anchor
is the first packet's arrival plus a configured playout delay.  Packets
arriving later than their playout instant are late (delivered
immediately or dropped, by policy); the output spacing otherwise equals
the input spacing regardless of network jitter.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram
from repro.transport.timestamps import TIMESTAMP_MODULUS


def _stamp_delta_ms(later: int, earlier: int) -> int:
    """Modular difference of two 32-bit millisecond stamps."""
    delta = (later - earlier) % TIMESTAMP_MODULUS
    if delta > TIMESTAMP_MODULUS // 2:
        return delta - TIMESTAMP_MODULUS
    return delta


@dataclass
class PlayoutStats:
    """Counters and jitter/buffering samples for a playout buffer."""
    delivered: Counter = field(default_factory=lambda: Counter("played"))
    late: Counter = field(default_factory=lambda: Counter("late"))
    dropped_late: Counter = field(default_factory=lambda: Counter("dropped"))
    #: Deviation of actual playout spacing from the original spacing.
    residual_jitter: Histogram = field(
        default_factory=lambda: Histogram("residual_jitter")
    )
    buffering_delay: Histogram = field(
        default_factory=lambda: Histogram("buffering")
    )


class PlayoutBuffer:
    """Re-creates sender-side spacing from packet timestamps."""

    def __init__(
        self,
        sim: Simulator,
        deliver: Callable[[Any], None],
        playout_delay: float = 20e-3,
        drop_late: bool = False,
    ) -> None:
        if playout_delay < 0:
            raise ValueError("playout_delay must be non-negative")
        self.sim = sim
        self.deliver = deliver
        self.playout_delay = playout_delay
        self.drop_late = drop_late
        self.stats = PlayoutStats()
        self._anchor_arrival: Optional[float] = None
        self._anchor_stamp: Optional[int] = None
        self._last_playout: Optional[float] = None
        self._last_stamp: Optional[int] = None

    def submit(self, item: Any, timestamp_ms: int) -> None:
        """Accept one arriving packet with its creation timestamp."""
        now = self.sim.now
        if self._anchor_arrival is None or self._anchor_stamp is None:
            self._anchor_arrival = now
            self._anchor_stamp = timestamp_ms
        offset_s = _stamp_delta_ms(timestamp_ms, self._anchor_stamp) / 1000.0
        playout_at = self._anchor_arrival + self.playout_delay + offset_s
        if playout_at < now:
            self.stats.late.add()
            if self.drop_late:
                self.stats.dropped_late.add()
                return
            playout_at = now
        self.stats.buffering_delay.add(playout_at - now)
        self.sim.at(playout_at, self._play, item, timestamp_ms)

    def _play(self, item: Any, timestamp_ms: int) -> None:
        now = self.sim.now
        if self._last_playout is not None and self._last_stamp is not None:
            intended = _stamp_delta_ms(timestamp_ms, self._last_stamp) / 1000.0
            actual = now - self._last_playout
            self.stats.residual_jitter.add(abs(actual - intended))
        self._last_playout = now
        self._last_stamp = timestamp_ms
        self.stats.delivered.add()
        self.deliver(item)

