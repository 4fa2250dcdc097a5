"""The Sirpent cut-through router (§2, §2.1) — the simulator's adapter.

Per-packet pipeline, exactly as the paper lays it out:

1. As the header starts to arrive the router "strips the header off to
   a loopback register"; the port field leads, so the switching decision
   overlaps reception of the token and portInfo.  In the simulator the
   ``on_header`` event fires when the first segment has arrived and the
   router charges only its ``decision_delay`` before the outbound
   transmission begins.
2. The port token, if present, is checked against the token cache
   (optimistic / blocking / drop on a miss, §2.2).
3. The network-specific portion is reversed into a correct return hop
   and appended to the trailer; the packet is forwarded out the port the
   segment names — or to the blocked-packet handler, or delivered
   locally (port 0).

The hop itself — finding the leading segment in the packet's frame
bytes, the decision (token admission, logical-port resolution,
strip/reverse/append planning, truncation, multicast expansion, the
§2.2 flow cache) and its application with the live overlay's own moves
(:func:`~repro.live.frames.forward_into`,
:func:`~repro.live.frames.truncate_into`) — is the sans-IO
:class:`repro.dataplane.router.RouterCore`, shared verbatim with the
live UDP overlay.  This class is the simulator's **adapter**: it owns
attachments, output queues, simulated timing, multicast clones, abort
propagation and the congestion manager, and supplies the core the
simulator's link rule (the return hop reverses the arrival frame's
MACs).

Store-and-forward operation (for rate-mismatched hops, or to model an
IP-era software router on the same hardware) runs the same core from
the ``on_packet`` event instead, plus a per-packet processing charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.core.blocked import BlockedPolicy
from repro.core.congestion import ControlPlane, RateControlManager
from repro.core.packet import HEADER, FramePacket
from repro.core.queues import OutputPort
from repro.dataplane import Action, Decision, PortMap
from repro.dataplane.router import FrameHop, RouterCore, core_attribute
from repro.live.frames import SEG_COUNT_OFFSET, payload_offset
from repro.net.addresses import MacAddress
from repro.net.link import Transmission
from repro.net.node import Attachment, Node
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram
from repro.tokens.cache import CachePolicy
from repro.viper.portinfo import EthernetInfo
from repro.viper.wire import LOCAL_PORT, PORT_OFFSET, HeaderSegment


@dataclass
class RouterConfig:
    """Tunable characteristics of one router.

    ``decision_delay`` is the paper's "switch decision and setup time
    (significantly less than a microsecond)"; ``store_forward_process_delay``
    models the per-packet software cost a conventional router pays
    (reception already accounted separately by the link model).
    """

    cut_through: bool = True
    decision_delay: float = 0.5e-6
    store_forward_process_delay: float = 50e-6
    buffer_bytes: int = 64 * 1024
    blocked_policy: BlockedPolicy = BlockedPolicy.QUEUE
    delay_line_s: float = 50e-6
    max_delay_loops: int = 8
    token_policy: CachePolicy = CachePolicy.OPTIMISTIC
    require_tokens: bool = False
    token_verify_cost: float = 200e-6
    congestion_enabled: bool = True


@dataclass
class RouterStats:
    """Counters and delay samples the benchmarks consume."""

    forwarded: Counter = field(default_factory=lambda: Counter("forwarded"))
    delivered_local: Counter = field(default_factory=lambda: Counter("local"))
    dropped_no_route: Counter = field(default_factory=lambda: Counter("no_route"))
    dropped_token: Counter = field(default_factory=lambda: Counter("token_reject"))
    dropped_bad_portinfo: Counter = field(default_factory=lambda: Counter("bad_portinfo"))
    route_exhausted: Counter = field(default_factory=lambda: Counter("route_exhausted"))
    truncated: Counter = field(default_factory=lambda: Counter("truncated"))
    multicast_copies: Counter = field(default_factory=lambda: Counter("mcast_copies"))
    cut_through_forwards: Counter = field(default_factory=lambda: Counter("cut_through"))
    store_forwards: Counter = field(default_factory=lambda: Counter("store_forward"))
    slick_reroutes: Counter = field(default_factory=lambda: Counter("slick_reroutes"))
    slick_fallback_exhausted: Counter = field(
        default_factory=lambda: Counter("slick_fallback_exhausted")
    )
    router_delay: Histogram = field(default_factory=lambda: Histogram("router_delay"))

    #: Drop reason -> the field counting it (the router core's ``drops``
    #: tallies every reason; these are the ones the benchmarks read).
    DROP_FIELDS = {
        "no_route": "dropped_no_route", "token_reject": "dropped_token",
        "bad_portinfo": "dropped_bad_portinfo", "route_exhausted": "route_exhausted",
        "slick_fallback_exhausted": "slick_fallback_exhausted",
    }

    def drop(self, reason: str) -> None:
        """Count one frame dropped for ``reason``, if a field counts it."""
        name = self.DROP_FIELDS.get(reason)
        if name is not None:
            getattr(self, name).add()

    def count(self, event: str) -> None:
        """Count one ``event``, a counter field's name."""
        getattr(self, event).add()


#: The decisions the hop branches on, read once: an enum member read
#: through its class costs Python 3.11 about 75 ns.
_FORWARD, _FANOUT = Action.FORWARD, Action.FANOUT


def _stamp_feed_forward(packet: Any, queued_behind: int) -> None:
    """An output port's transmit-start hook: the "feed forward" load
    hint (§2.2), the packets queued behind this one."""
    if isinstance(packet, FramePacket):
        packet.feed_forward_load = queued_behind


class SirpentRouter(Node):
    """A Sirpent switching node: the simulator's adapter over the
    :class:`~repro.dataplane.router.RouterCore`."""

    pipeline = core_attribute("pipeline")
    token_cache = core_attribute("token_cache")
    flow_cache = core_attribute("flow_cache")
    mint = core_attribute("mint")
    logical = core_attribute("logical")
    groups = core_attribute("groups")
    tracer = core_attribute("sink.tracer")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: Optional[RouterConfig] = None,
        control_plane: Optional[ControlPlane] = None,
        mint_secret: Optional[bytes] = None,
        rng=None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config if config is not None else RouterConfig()
        self.stats = RouterStats()
        self.output_ports: Dict[int, OutputPort] = {}
        self.core = RouterCore(
            name,
            mint_secret,
            token_policy=self.config.token_policy,
            require_tokens=self.config.require_tokens,
            verify_cost=self.config.token_verify_cost,
            multicast=True,
            # Attachments answer kind / mtu / rate_bps / up themselves,
            # live; output ports expose queue_depth for the logical
            # map's least-loaded member selection.
            ports=PortMap(self.ports, self.output_ports),
            link_rule=self._reverse_arrival,
            counters=self.stats,
            clock=lambda: sim.now,
            rng=rng,
        )
        #: The transmission the hop in progress arrived by (None between
        #: hops): what the link rule reads.
        self._arrival: Optional[Transmission] = None
        self.local_handler: Optional[Callable[[FramePacket, Attachment], None]] = None
        self.congestion: Optional[RateControlManager] = None
        if control_plane is not None:
            self.congestion = RateControlManager(
                sim, name, control_plane, enabled=self.config.congestion_enabled
            )
            # Congestion rebinds route packets around hot queues; cached
            # flow decisions may point straight at one — flush them.
            self.congestion.on_rebind = lambda: self.pipeline.on_congestion_rebind()

    # -- wiring -----------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this router and
        every output port (existing and future attachments)."""
        self.core.sink.tracer = tracer
        for outport in self.output_ports.values():
            outport.tracer = tracer

    def attach(self, port_id: int, attachment: Attachment) -> None:
        super().attach(port_id, attachment)
        outport = OutputPort(
            self.sim,
            attachment,
            buffer_bytes=self.config.buffer_bytes,
            blocked_policy=self.config.blocked_policy,
            delay_line_s=self.config.delay_line_s,
            max_delay_loops=self.config.max_delay_loops,
        )
        outport.on_transmit_start = _stamp_feed_forward
        outport.tracer = self.tracer
        self.output_ports[port_id] = outport
        if self.congestion is not None:
            self.congestion.watch_port(port_id, outport)
        # Topology changed: any cached flow naming this port is stale.
        self.pipeline.on_topology_change(port_id)

    # -- receive hooks -------------------------------------------------------

    def on_header(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, FramePacket):
            return
        if not self.config.cut_through:
            return
        view = packet.view
        buffer, start = view.buffer, view.start
        if not buffer[start + SEG_COUNT_OFFSET]:
            return  # a spent route: handled (and counted) at completion
        port = buffer[start + HEADER + PORT_OFFSET]
        if port == LOCAL_PORT:
            return  # local delivery needs the full packet
        # Cut-through needs matching rates ("only applicable when the
        # input link and the output link are the same data rates").
        core = self.core
        outport_id = core.pipeline.peek_physical_port(port)
        if outport_id is not None:
            attachment = self.ports.get(outport_id)
            if attachment is None or attachment.rate_bps != inport.rate_bps:
                return  # fall back to store-and-forward at completion
        tx.taken_by(inport)  # the completion is no moment for us
        self.stats.cut_through_forwards.add()
        if packet.trace_id and core.sink.stamp(packet.trace_id):
            core.sink.trace_event("cut_through_start", in_port=inport.port_id)
        self._process(packet, inport, tx, tx.size, 0.0)

    def on_packet(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, FramePacket):
            return
        port = packet.leading_port()
        delay = 0.0
        if port is not None and port != LOCAL_PORT:
            self.stats.store_forwards.add()
            sink = self.core.sink
            if packet.trace_id and sink.stamp(packet.trace_id):
                sink.trace_event("store_forward_start", in_port=inport.port_id)
            delay = self.config.store_forward_process_delay
        self._process(packet, inport, tx, tx.size, delay)

    def on_abort(self, packet: Any, inport: Attachment) -> None:
        """Upstream preemption mid-cut-through: propagate the abort."""
        if not isinstance(packet, FramePacket):
            return
        for outport in self.output_ports.values():
            if outport.streaming is packet:
                if outport.attachment.current_packet() is packet:
                    outport.attachment.abort_current()
                return

    # -- one hop through the core, then simulated time -----------------------

    def _reverse_arrival(self, hop: FrameHop) -> bytes:
        """The simulator's link rule: reverse the arrival frame's network
        header (Ethernet src/dst swap, §2) — present only when an
        Ethernet segment carried it; a point-to-point wire has none.

        ethertype 0 placeholder: the sender of the return route fills in
        the Sirpent type; sizes are identical either way.
        """
        tx = self._arrival
        if tx.src_mac is not None and tx.dst_mac is not None:
            return EthernetInfo(dst=tx.src_mac, src=tx.dst_mac, ethertype=0).to_bytes()
        return b""

    def _process(  # sirlint: hot
        self,
        packet: FramePacket,
        inport: Attachment,
        tx: Transmission,
        size: int,
        extra_process_delay: float,
    ) -> None:
        """One hop of a packet that arrived, now, ``size`` bytes long."""
        packet.hop_log.append(self.name)
        core = self.core
        sim = self.sim
        core.hop.now_ms = int(sim.now * 1000)
        self._arrival = tx
        decision = core.step(
            packet.view, HEADER, packet.trace_id, inport.port_id, size,
            # Found when the previous hop sent the frame, not again here.
            HEADER + packet.decision_prefix_bytes(), packet.grow,
        )
        self._arrival = None  # read only while deciding: keep nothing alive
        if decision is None:
            return
        if decision.action is _FORWARD:
            packet.hops_taken += 1
            packet.lead_bytes = None  # a new leading segment
            delay = (
                self.config.decision_delay + decision.token_delay
                + extra_process_delay
            )
            # The size the packet leaves with: counted once, carried from here.
            sim.after(
                delay,
                self._forward,
                packet, packet.wire_size(), decision.out_port, decision.effective,
                decision.dst_mac, sim.now,
            )
        elif decision.action is _FANOUT:
            self._fan_out(decision, packet, inport, tx, extra_process_delay)
        else:
            if core.sink.trace_id:
                self.tracer.deliver(
                    core.sink.trace_id, self.sim.now, self.name, hops=packet.hops_taken,
                )
            if self.local_handler is not None:
                self.local_handler(packet, inport)

    def _fan_out(
        self,
        decision: Decision,
        packet: FramePacket,
        inport: Attachment,
        tx: Transmission,
        extra_process_delay: float,
    ) -> None:
        """Multicast: re-frame a clone per branch and run each through
        the pipeline again (token checks per branch segment).  A branch
        replaces the leading segment, or — tree multicast — the whole
        route and its alternate blocks."""
        hop = self.core.hop
        mem = packet.view.mem
        payload_len = hop.payload_len
        if decision.fanout_replaces_route:
            rest = mem[payload_offset(mem, hop):]
            kept = 0
        else:
            rest = mem[hop.next_rel:]
            kept = hop.seg_count - 1
        for branch in decision.branches:
            clone = FramePacket(
                len(branch) + kept, payload_len,
                b"".join([s.wire for s in branch]) + rest,
                packet_id=self.sim.new_packet_id(),
                created_at=packet.created_at,
                source=packet.source,
                hops_taken=packet.hops_taken,
                hop_log=list(packet.hop_log[:-1]),  # _process re-appends
                trace_id=packet.trace_id,
            )
            self.stats.multicast_copies.add()
            self._process(clone, inport, tx, clone.wire_size(), extra_process_delay)

    def _forward(  # sirlint: hot
        self, packet: FramePacket, size: int, port: int,
        segment: HeaderSegment, dst_mac: Optional[MacAddress], arrival_time: float,
    ) -> None:
        outport = self.output_ports[port]
        if self.congestion is None or not self.congestion.limits:
            self._submit(packet, size, outport, segment, dst_mac, arrival_time)
            return
        self.congestion.admit_or_hold(
            packet,
            self.ports[port].peer_name_for(dst_mac),
            packet.leading_port(),
            size,
            self._submit, packet, size, outport, segment, dst_mac, arrival_time,
        )

    def _submit(
        self, packet: FramePacket, size: int, outport: OutputPort,
        segment: HeaderSegment, dst_mac: Optional[MacAddress], arrival_time: float,
    ) -> None:
        stats = self.stats
        stats.router_delay.add(self.sim.now - arrival_time)
        stats.forwarded.add()
        outport.submit(
            packet, size, packet.decision_prefix_bytes(), dst_mac,
            segment.priority, segment.dib,
        )
