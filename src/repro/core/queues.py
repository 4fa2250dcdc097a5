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


#: The members the per-frame paths return and compare, read once: an
#: enum member read through its class costs Python 3.11 about 75 ns.
_SENT, _PREEMPTED, _QUEUED = SubmitResult.SENT, SubmitResult.PREEMPTED, SubmitResult.QUEUED
_DROP, _DELAY_LINE = BlockedPolicy.DROP, BlockedPolicy.DELAY_LINE


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

    ``on_transmit_start`` (if set) is called with the packet and the
    number of packets queued behind it right as its transmission begins
    — the "feed forward" load hint of §2.2 is stamped there.  A packet
    submitted to an idle port goes straight out; only one that waits is
    wrapped in a queue entry.
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
        self.on_transmit_start: Optional[Callable[[Any, int], None]] = None
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
        now = self.sim.now
        if not self.attachment.busy:
            self.streaming = packet
            self._transmit(packet, size, header_bytes, dst_mac, priority, now)
            return _SENT

        # Port busy: preemptive priorities abort the current transmission
        # if they outrank it (§2.1, §5 priorities 6-7).
        if is_preemptive(priority):
            current = self.attachment.current_priority()
            if current is not None and outranks(priority, current):
                self.preemptions.add()
                self.attachment.abort_current()
                self._transmit(packet, size, header_bytes, dst_mac, priority, now)
                return _PREEMPTED

        # Blocked: now — and only now — the type of service is examined.
        if dib:
            self.drops.add()
            return SubmitResult.DROPPED_DIB
        if self.blocked_policy is _DROP:
            self.drops.add()
            return SubmitResult.DROPPED_POLICY
        entry = _QueuedPacket(packet, size, header_bytes, dst_mac, priority, 0, now)
        if self.blocked_policy is _DELAY_LINE:
            return self._delay_loop(entry)
        return self._enqueue(entry)

    # -- queue ------------------------------------------------------------

    def _enqueue(self, entry: _QueuedPacket) -> SubmitResult:
        if self.queued_bytes + entry.size > self.buffer_bytes:
            self.drops.add()
            return SubmitResult.DROPPED_OVERFLOW
        self._seq = seq = self._seq + 1
        heap = self._heap
        heapq.heappush(heap, (-effective_priority(entry.priority), seq, entry))
        self.queued_bytes += entry.size
        depth = len(heap)
        self.queue_length.update(self.sim.now, depth)
        if depth == self.watermark:
            self.on_watermark()
        if self.tracer.enabled:
            trace_id = getattr(entry.packet, "trace_id", 0)
            if trace_id:
                self.tracer.event(
                    trace_id, self.sim.now, self.attachment.node.name,
                    "enqueue", port=self.attachment.port_id,
                    depth=depth, queued_bytes=self.queued_bytes,
                )
        return _QUEUED

    def _delay_loop(self, entry: _QueuedPacket) -> SubmitResult:
        if entry.loops >= self.max_delay_loops:
            self.drops.add()
            return SubmitResult.DROPPED_OVERFLOW
        entry.loops += 1
        self.sim.after(self.delay_line_s, self._retry_from_delay_line, entry)
        return SubmitResult.DELAY_LOOPED

    def _retry_from_delay_line(self, entry: _QueuedPacket) -> None:
        if not self.attachment.busy:
            self._transmit(
                entry.packet, entry.size, entry.header_bytes, entry.dst_mac,
                entry.priority, entry.submitted_at,
            )
        else:
            self._delay_loop(entry)

    # -- transmission -------------------------------------------------------

    def _transmit(  # sirlint: hot
        self, packet: Any, size: int, header_bytes: int,
        dst_mac: Optional[MacAddress], priority: int, submitted_at: float,
    ) -> None:
        """Start ``packet`` on the wire, submitted at ``submitted_at``."""
        self.wait_time.add(self.sim.now - submitted_at)
        if self.on_transmit_start is not None:
            self.on_transmit_start(packet, len(self._heap))
        on_done: Callable[[], None] = self._on_port_free
        if self.tracer.enabled:
            trace_id = getattr(packet, "trace_id", 0)
            if trace_id:
                self.tracer.event(
                    trace_id, self.sim.now, self.attachment.node.name,
                    "tx_start", port=self.attachment.port_id,
                    bytes=size,
                    waited_s=self.sim.now - submitted_at,
                )
                on_done = self._traced_on_done(trace_id)
        self.attachment.send(
            packet, size, header_bytes, dst_mac, priority, on_done,
            self._on_aborted,
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
        heap = self._heap
        while heap and not self.attachment.busy:
            _neg, _seq, entry = heapq.heappop(heap)
            self.queued_bytes -= entry.size
            self.queue_length.update(self.sim.now, len(heap))
            self._transmit(
                entry.packet, entry.size, entry.header_bytes, entry.dst_mac,
                entry.priority, entry.submitted_at,
            )

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
