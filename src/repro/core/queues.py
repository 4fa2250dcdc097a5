"""Per-output-port scheduling: priority queues, preemption, blocked policies.

§2.1: "If the port is busy and the packet cannot preempt the currently
transmitting packet, the packet is added to the output (priority) queue
associated with the output port (assuming buffer space is available)."
Higher priority packets are retransmitted first; priorities 6 and 7
preempt a lower-priority packet mid-transmission.

The paper's key efficiency point is preserved: the type-of-service field
is only *examined* when the packet blocks — the fast path (idle port) is
submit → transmit.
"""

from __future__ import annotations

import enum
import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.core.blocked import BlockedPolicy
from repro.net.addresses import MacAddress
from repro.net.node import Attachment
from repro.obs.trace import NULL_TRACER
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram, TimeWeighted
from repro.viper.flags import effective_priority, is_preemptive, outranks


class SubmitResult(enum.Enum):
    """What happened to a packet submitted to an output port."""
    SENT = "sent"              # port idle: transmission started now
    PREEMPTED = "preempted"    # a lower-priority packet was aborted for us
    QUEUED = "queued"          # stored in the output queue
    DELAY_LOOPED = "delay_looped"  # circulating in the delay line
    DROPPED_DIB = "dropped_dib"        # Drop-If-Blocked was set
    DROPPED_OVERFLOW = "dropped_overflow"  # no buffer space
    DROPPED_POLICY = "dropped_policy"      # bufferless port


class _QueuedPacket:
    __slots__ = (
        "packet", "size", "header_bytes", "dst_mac", "priority", "loops",
        "submitted_at",
    )

    def __init__(
        self,
        packet: Any,
        size: int,
        header_bytes: int,
        dst_mac: Optional[MacAddress],
        priority: int,
        loops: int = 0,
        submitted_at: float = 0.0,
    ) -> None:
        self.packet = packet
        self.size = size
        self.header_bytes = header_bytes
        self.dst_mac = dst_mac
        self.priority = priority
        self.loops = loops
        self.submitted_at = submitted_at


class OutputPort:
    """Scheduler in front of one attachment.

    ``on_transmit_start`` (if set) is called with the queued entry right
    as its transmission begins — the congestion manager uses it, and the
    "feed forward" load hint of §2.2 is stamped there.
    """

    def __init__(
        self,
        sim: Simulator,
        attachment: Attachment,
        buffer_bytes: int = 64 * 1024,
        blocked_policy: BlockedPolicy = BlockedPolicy.QUEUE,
        delay_line_s: float = 50e-6,
        max_delay_loops: int = 8,
        name: str = "",
    ) -> None:
        self.sim = sim
        self.attachment = attachment
        self.buffer_bytes = buffer_bytes
        self.blocked_policy = blocked_policy
        self.delay_line_s = delay_line_s
        self.max_delay_loops = max_delay_loops
        self.name = name or f"outport:{attachment.node.name}:{attachment.port_id}"
        self._heap: List[Tuple[int, int, _QueuedPacket]] = []
        self._seq = 0
        self.queued_bytes = 0
        self.on_transmit_start: Optional[Callable[[_QueuedPacket], None]] = None
        #: ``on_watermark()`` runs when an enqueue brings the queue to
        #: ``watermark`` packets (0: never) — congestion sampling wakes.
        self.watermark = 0
        self.on_watermark: Optional[Callable[[], None]] = None
        #: The packet :meth:`submit` sent straight out of the idle port,
        #: for as long as that transmission lasts — the stream a
        #: cut-through router aborts when its inbound half dies (§2.1).
        self.streaming: Any = None
        #: Hop tracer (repro.obs): NULL_TRACER unless installed by the
        #: owning node — every use is guarded by ``tracer.enabled``.
        self.tracer = NULL_TRACER
        # -- statistics the benchmarks consume --
        self.queue_length = TimeWeighted(name=f"{self.name}.qlen", start=sim.now)
        self.drops = Counter(f"{self.name}.drops")
        self.preemptions = Counter(f"{self.name}.preemptions")
        self.sent = Counter(f"{self.name}.sent")
        #: Time each packet spent blocked before its transmission began
        #: — the quantity §6.1's M/D/1 model predicts.
        self.wait_time = Histogram(f"{self.name}.wait")

    # -- submission -------------------------------------------------------

    def submit(  # sirlint: hot
        self,
        packet: Any,
        size: int,
        header_bytes: int,
        dst_mac: Optional[MacAddress] = None,
        priority: int = 0,
        dib: bool = False,
    ) -> SubmitResult:
        """Route a packet out this port, queueing or preempting as needed."""
        entry = _QueuedPacket(
            packet, size, header_bytes, dst_mac, priority,
            submitted_at=self.sim.now,
        )

        if not self.attachment.busy:
            self.streaming = packet
            self._transmit(entry)
            return SubmitResult.SENT

        # Port busy: preemptive priorities abort the current transmission
        # if they outrank it (§2.1, §5 priorities 6-7).
        current = self.attachment.current_priority()
        if (
            is_preemptive(priority)
            and current is not None
            and outranks(priority, current)
        ):
            self.preemptions.add()
            self.attachment.abort_current()
            self._transmit(entry)
            return SubmitResult.PREEMPTED

        # Blocked: now — and only now — the type of service is examined.
        if dib:
            self.drops.add()
            return SubmitResult.DROPPED_DIB
        if self.blocked_policy is BlockedPolicy.DROP:
            self.drops.add()
            return SubmitResult.DROPPED_POLICY
        if self.blocked_policy is BlockedPolicy.DELAY_LINE:
            return self._delay_loop(entry)
        return self._enqueue(entry)

    # -- queue ------------------------------------------------------------

    def _enqueue(self, entry: _QueuedPacket) -> SubmitResult:
        if self.queued_bytes + entry.size > self.buffer_bytes:
            self.drops.add()
            return SubmitResult.DROPPED_OVERFLOW
        self._seq += 1
        heapq.heappush(
            self._heap,
            (-effective_priority(entry.priority), self._seq, entry),
        )
        self.queued_bytes += entry.size
        self.queue_length.update(self.sim.now, len(self._heap))
        if len(self._heap) == self.watermark:
            self.on_watermark()
        if self.tracer.enabled:
            trace_id = getattr(entry.packet, "trace_id", 0)
            if trace_id:
                self.tracer.event(
                    trace_id, self.sim.now, self.attachment.node.name,
                    "enqueue", port=self.attachment.port_id,
                    depth=len(self._heap), queued_bytes=self.queued_bytes,
                )
        return SubmitResult.QUEUED

    def _delay_loop(self, entry: _QueuedPacket) -> SubmitResult:
        if entry.loops >= self.max_delay_loops:
            self.drops.add()
            return SubmitResult.DROPPED_OVERFLOW
        entry.loops += 1
        self.sim.after(self.delay_line_s, self._retry_from_delay_line, entry)
        return SubmitResult.DELAY_LOOPED

    def _retry_from_delay_line(self, entry: _QueuedPacket) -> None:
        if not self.attachment.busy:
            self._transmit(entry)
        else:
            self._delay_loop(entry)

    # -- transmission -------------------------------------------------------

    def _transmit(self, entry: _QueuedPacket) -> None:  # sirlint: hot
        self.wait_time.add(self.sim.now - entry.submitted_at)
        if self.on_transmit_start is not None:
            self.on_transmit_start(entry)
        on_done: Callable[[], None] = self._on_port_free
        if self.tracer.enabled:
            trace_id = getattr(entry.packet, "trace_id", 0)
            if trace_id:
                self.tracer.event(
                    trace_id, self.sim.now, self.attachment.node.name,
                    "tx_start", port=self.attachment.port_id,
                    bytes=entry.size,
                    waited_s=self.sim.now - entry.submitted_at,
                )
                on_done = self._traced_on_done(trace_id)
        self.attachment.send(
            entry.packet,
            entry.size,
            entry.header_bytes,
            dst_mac=entry.dst_mac,
            priority=entry.priority,
            on_done=on_done,
            on_abort=self._on_aborted,
        )
        self.sent.add()

    def _traced_on_done(self, trace_id: int) -> Callable[[], None]:
        """An ``on_done`` that stamps ``tx_complete`` before freeing."""
        def done() -> None:
            self.tracer.event(
                trace_id, self.sim.now, self.attachment.node.name,
                "tx_complete", port=self.attachment.port_id,
            )
            self._on_port_free()
        return done

    def _on_port_free(self) -> None:
        self.streaming = None
        while self._heap and not self.attachment.busy:
            _neg, _seq, entry = heapq.heappop(self._heap)
            self.queued_bytes -= entry.size
            self.queue_length.update(self.sim.now, len(self._heap))
            self._transmit(entry)

    def _on_aborted(self, packet: Any) -> None:
        # Preempted (the preempting packet's _transmit follows at once) or
        # cut short by a dead medium: lost here, its transport retransmits.
        self.streaming = None

    # -- introspection -----------------------------------------------------

    @property
    def queue_depth(self) -> int:
        return len(self._heap)

    def backlog_packets(self) -> List[Any]:
        """The packets currently queued (congestion control inspects
        their source routes to find upstream feeders, §2.2)."""
        return [entry.packet for _n, _s, entry in self._heap]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<OutputPort {self.name!r} depth={self.queue_depth}>"
