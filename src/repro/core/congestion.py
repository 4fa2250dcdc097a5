"""Rate-based congestion control (§2.2).

"The router monitors the output rate of the port.  If the arrival rate
to this port exceeds the output rate, the router signals to those
'upstream' routers feeding this queue to reduce their rate of packets
being transmitted to this queue. … In effect, the rate-limiting
information builds up back from the point of congestion to the sources,
dynamically generating soft state on flows."

Components:

* :class:`RateSignal` — the backpressure message: (congested node, port,
  advised rate, hold time).
* :class:`FlowLimiter` — the soft state an upstream router installs: a
  token bucket per (congested node, port) key, holding packets headed
  for that queue.  Expired limits "progressively push the authorized
  rate up" (the paper's network-layer analogue of slow start) until the
  limit exceeds the link rate and evaporates.
* :class:`RateControlManager` — per-router logic: detect congestion on
  output ports, identify upstream feeders from the source routes of the
  backlog, send signals, receive signals, cascade.  Detection samples
  the queues on a fixed grid, and only while a sample can fire.
* :class:`ControlPlane` — delivers signals between routers with the
  propagation delay of the connecting link.  The paper does not specify
  a wire encoding for these messages; modelling them as out-of-band
  control traffic with true link latency preserves the feedback-loop
  dynamics that §6.3 argues about.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter

#: What a limit protects: the congested router and its output port.
LimitKey = Tuple[str, int]


@dataclass
class RateSignal:
    """Backpressure: "send to my (port) queue at no more than this rate"."""

    congested_node: str
    port_id: int
    advised_rate_bps: float
    hold_time: float
    origin: str = ""


class ControlPlane:
    """Delivers control messages between nodes with real link latency."""

    DEFAULT_DELAY = 1e-3

    def __init__(self, sim: Simulator, topology: Optional[Topology] = None) -> None:
        self.sim = sim
        self.topology = topology
        self._handlers: Dict[str, Callable[[str, Any], None]] = {}
        self.messages = Counter("control_messages")

    def register(self, node_name: str, handler: Callable[[str, Any], None]) -> None:
        self._handlers[node_name] = handler

    def _delay_between(self, src: str, dst: str) -> Optional[float]:
        """Propagation delay src→dst; None means "adjacent but down".

        Adjacent nodes talk over their real link (and lose messages when
        it is down — this is what makes IP hello-based failure detection
        honest); non-adjacent parties get a default store-and-forward
        latency, standing in for multi-hop control traffic.
        """
        if self.topology is not None:
            live = {e.dst: e.propagation_delay for e in self.topology.edges_from(src)}
            if dst in live:
                return live[dst]
            adjacent = any(
                e.dst == dst for e in self.topology.all_edges() if e.src == src
            )
            if adjacent:
                return None  # the only wire between them is down
        return self.DEFAULT_DELAY

    def send(self, src: str, dst: str, message: Any) -> None:
        handler = self._handlers.get(dst)
        if handler is None:
            return
        delay = self._delay_between(src, dst)
        if delay is None:
            return  # link down: the message is lost
        self.messages.add()
        self.sim.after(delay, handler, src, message)


class _HeldPacket:
    __slots__ = ("size", "release", "enqueued_at", "prev_hop")

    def __init__(self, size: int, release: Callable[[], None], now: float, prev_hop: str) -> None:
        self.size = size
        self.release = release
        self.enqueued_at = now
        self.prev_hop = prev_hop


class FlowLimiter:
    """Token-bucket soft state for one congested downstream queue."""

    def __init__(
        self,
        sim: Simulator,
        key: LimitKey,
        rate_bps: float,
        burst_bytes: int,
        expiry: float,
    ) -> None:
        self.sim = sim
        self.key = key
        self.rate_bps = rate_bps
        self.burst_bytes = burst_bytes
        self.expiry = expiry
        self.tokens = float(burst_bytes)
        self._last_refill = sim.now
        self.held: List[_HeldPacket] = []
        self._release_scheduled = False

    def refresh(self, rate_bps: float, expiry: float) -> None:
        self._refill()
        self.rate_bps = rate_bps
        self.expiry = max(self.expiry, expiry)

    def ramp_up(self, factor: float) -> None:
        """Raise the authorized rate once the signal has gone stale."""
        self._refill()
        self.rate_bps *= factor

    def _refill(self) -> None:
        now = self.sim.now
        # The bucket normally caps at the burst size, but must be able
        # to accumulate enough for the head-of-line packet even when it
        # exceeds the configured burst — otherwise an oversized packet
        # would deadlock the flow.
        cap = float(self.burst_bytes)
        if self.held:
            cap = max(cap, float(self.held[0].size))
        self.tokens = min(
            cap,
            self.tokens + (now - self._last_refill) * self.rate_bps / 8.0,
        )
        self._last_refill = now

    def try_consume(self, size: int) -> bool:
        """Consume ``size`` bytes of budget if available right now."""
        self._refill()
        if self.held:
            return False  # FIFO: earlier held packets go first
        if self.tokens >= size:
            self.tokens -= size
            return True
        return False

    def hold(self, size: int, release: Callable[[], None], prev_hop: str = "") -> None:
        self.held.append(_HeldPacket(size, release, self.sim.now, prev_hop))
        self._schedule_release()

    #: Byte tolerance for bucket comparisons — floating-point refill can
    #: leave the bucket an epsilon short, and a wait computed from that
    #: epsilon underflows simulation-time resolution (a frozen-clock
    #: spin).  One microsecond is far below any delay the model cares
    #: about.
    _TOKEN_EPSILON = 1e-6
    _MIN_RELEASE_WAIT = 1e-6

    def _schedule_release(self) -> None:
        if self._release_scheduled or not self.held:
            return
        self._refill()
        deficit = max(0.0, self.held[0].size - self.tokens)
        wait = deficit * 8.0 / self.rate_bps if self.rate_bps > 0 else 1.0
        self._release_scheduled = True
        self.sim.after(max(wait, self._MIN_RELEASE_WAIT), self._release_head)

    def _release_head(self) -> None:
        self._release_scheduled = False
        if not self.held:
            return
        self._refill()
        head = self.held[0]
        if self.tokens + self._TOKEN_EPSILON >= head.size:
            self.held.pop(0)
            self.tokens = max(0.0, self.tokens - head.size)
            head.release()
        self._schedule_release()

    @property
    def backlog(self) -> int:
        return len(self.held)


class RateControlManager:
    """Per-router congestion logic: detect, signal, limit, cascade."""

    def __init__(
        self,
        sim: Simulator,
        node_name: str,
        control_plane: ControlPlane,
        check_interval: float = 1e-3,
        queue_high_watermark: int = 8,
        target_utilization: float = 0.9,
        hold_time: float = 20e-3,
        burst_bytes: int = 8 * 1500,
        ramp_factor: float = 2.0,
        cascade_backlog: int = 8,
        enabled: bool = True,
    ) -> None:
        self.sim = sim
        self.node_name = node_name
        self.control_plane = control_plane
        self.check_interval = check_interval
        self.queue_high_watermark = queue_high_watermark
        self.target_utilization = target_utilization
        self.hold_time = hold_time
        self.burst_bytes = burst_bytes
        self.ramp_factor = ramp_factor
        self.cascade_backlog = cascade_backlog
        self.enabled = enabled
        self.limits: Dict[LimitKey, FlowLimiter] = {}
        self._ports: Dict[int, Any] = {}  # port_id -> OutputPort
        self.signals_sent = Counter(f"{node_name}.signals_sent")
        self.signals_received = Counter(f"{node_name}.signals_received")
        #: Invoked whenever a RateSignal installs or refreshes a flow
        #: limit — the dataplane flushes its flow cache then, because a
        #: cached route may steer straight into the congested queue.
        self.on_rebind: Optional[Callable[[], None]] = None
        control_plane.register(node_name, self._on_control_message)
        #: The sampling grid, ``check_interval`` apart from construction
        #: on.  A sample fires only with a watched queue at the watermark
        #: or a limit held; without either the grid sleeps until
        #: :meth:`_wake`, ``_due`` being the instant after the last sample.
        self._due = sim.now + check_interval
        self._asleep = True

    # -- wiring ---------------------------------------------------------------

    def watch_port(self, port_id: int, output_port: Any) -> None:
        self._ports[port_id] = output_port
        output_port.watermark = self.queue_high_watermark
        output_port.on_watermark = self._wake
        if output_port.queue_depth >= self.queue_high_watermark:
            self._wake()

    # -- detection ---------------------------------------------------------------

    def _wake(self) -> None:
        """Resume sampling at the grid's next instant after now — for a
        queue reaching the watermark, a port watched at it, or a signal."""
        if not self._asleep or not self.enabled:
            return
        self._asleep = False
        due, now = self._due, self.sim.now
        while due <= now:
            due += self.check_interval
        self._due = due
        self.sim.at(due, self._periodic_check)

    def _periodic_check(self) -> None:
        congested = False
        for port_id, port in self._ports.items():
            if port.queue_depth >= self.queue_high_watermark:
                congested = True
                self._signal_feeders(port_id, port)
        self._ramp_stale_limits()
        self._due = due = self._due + self.check_interval
        if congested or self.limits:
            self.sim.at(due, self._periodic_check)
        else:
            self._asleep = True

    def _signal_feeders(self, port_id: int, port: Any) -> None:
        """Tell every upstream feeder of this queue to slow down.

        "Because the congested router has access to the source route, it
        can easily determine the upstream routers feeding the queue" —
        each backlogged packet's route/trailer names the hop it came
        through; the simulator records that as ``hop_log``.
        """
        feeders: Dict[str, int] = {}
        for packet in port.backlog_packets():
            prev = _previous_hop(packet, self.node_name)
            if prev:
                feeders[prev] = feeders.get(prev, 0) + 1
        if not feeders:
            return
        service_rate = port.attachment.rate_bps
        advised = service_rate * self.target_utilization / len(feeders)
        signal = RateSignal(
            congested_node=self.node_name,
            port_id=port_id,
            advised_rate_bps=advised,
            hold_time=self.hold_time,
            origin=self.node_name,
        )
        for feeder in feeders:
            self.signals_sent.add()
            self.control_plane.send(self.node_name, feeder, signal)

    # -- receiving signals -----------------------------------------------------------

    def _on_control_message(self, src: str, message: Any) -> None:
        if not isinstance(message, RateSignal):
            return
        self._wake()
        self.signals_received.add()
        key: LimitKey = (message.congested_node, message.port_id)
        expiry = self.sim.now + message.hold_time
        limiter = self.limits.get(key)
        if limiter is None:
            self.limits[key] = FlowLimiter(
                self.sim, key, message.advised_rate_bps, self.burst_bytes, expiry
            )
        else:
            limiter.refresh(message.advised_rate_bps, expiry)
        if self.on_rebind is not None:
            self.on_rebind()

    def _ramp_stale_limits(self) -> None:
        """Stale limits ramp up and eventually evaporate (soft state)."""
        dead: List[LimitKey] = []
        for key, limiter in self.limits.items():
            if self.sim.now > limiter.expiry and not limiter.held:
                limiter.ramp_up(self.ramp_factor)
                limiter.expiry = self.sim.now + self.hold_time
                if limiter.rate_bps > 10e9:
                    dead.append(key)
        for key in dead:
            del self.limits[key]

    # -- the forwarding-path hook ----------------------------------------------------

    def admit_or_hold(
        self,
        packet: Any,
        next_node: str,
        next_port: Optional[int],
        size: int,
        forward: Callable[..., None],
        *args: Any,
    ) -> bool:
        """Apply any matching flow limit; returns True if forwarded now.

        The match is on the packet's *future* path: it is about to go to
        ``next_node`` and take ``next_port`` there — exactly the queue a
        RateSignal named.  ``forward(*args)`` runs now, or when the
        limiter releases the packet.
        """
        if not self.enabled or next_port is None:
            forward(*args)
            return True
        limiter = self.limits.get((next_node, next_port))
        if limiter is None or limiter.try_consume(size):
            forward(*args)
            return True
        prev = _previous_hop(packet, self.node_name)
        limiter.hold(size, partial(forward, *args), prev_hop=prev)
        if limiter.backlog >= self.cascade_backlog:
            self._cascade(limiter)
        return False

    def _cascade(self, limiter: FlowLimiter) -> None:
        """Push the limit further upstream when our own holds pile up."""
        feeders = {h.prev_hop for h in limiter.held if h.prev_hop}
        if not feeders:
            return
        advised = limiter.rate_bps / len(feeders)
        signal = RateSignal(
            congested_node=limiter.key[0],
            port_id=limiter.key[1],
            advised_rate_bps=advised,
            hold_time=self.hold_time,
            origin=self.node_name,
        )
        for feeder in feeders:
            self.signals_sent.add()
            self.control_plane.send(self.node_name, feeder, signal)

    def total_held(self) -> int:
        return sum(l.backlog for l in self.limits.values())


def _previous_hop(packet: Any, here: str) -> str:
    """The node this packet arrived from, read off its hop log.

    The hop log is the simulator's rendition of what the trailer's
    source-route information gives a real router.
    """
    log = getattr(packet, "hop_log", None)
    if not log:
        return getattr(packet, "source", "") or ""
    # hop_log entries are appended as the packet is processed; the entry
    # before 'here' is the feeder.
    for index in range(len(log) - 1, -1, -1):
        if log[index] == here:
            if index > 0:
                return log[index - 1]
            return getattr(packet, "source", "") or ""
    return log[-1]
