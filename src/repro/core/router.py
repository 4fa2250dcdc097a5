"""The Sirpent cut-through router (§2, §2.1) — the simulator's driver.

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

The *decision* itself — token admission, logical-port resolution,
strip/reverse/append planning, truncation, multicast expansion, the
§2.2 flow cache — lives in the sans-IO
:class:`repro.dataplane.ForwardingPipeline`, shared verbatim with the
live UDP overlay.  This class is the simulator-side **driver**: it owns
attachments, output queues, simulated timing, the congestion manager
and the tracer, and it *applies* the pipeline's
:class:`~repro.dataplane.Decision` to the packet's frame bytes with the
live overlay's own moves (:func:`~repro.live.frames.forward_into`,
:func:`~repro.live.frames.truncate_into`) — one hop transform for both
substrates.

Store-and-forward operation (for rate-mismatched hops, or to model an
IP-era software router on the same hardware) uses the same pipeline from
the ``on_packet`` event instead, plus a per-packet processing charge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.core.blocked import BlockedPolicy
from repro.core.congestion import ControlPlane, RateControlManager
from repro.core.packet import HEADER, PAYLOAD_LEN_AT, SEG_COUNT_AT, FramePacket
from repro.core.queues import OutputPort
from repro.dataplane import (
    Action,
    Capabilities,
    Decision,
    EffectSink,
    FlowCache,
    ForwardingPipeline,
    PortMap,
    apply_drop,
)
from repro.dataplane.logical import LogicalPortMap
from repro.dataplane.multicast import GroupPortMap
from repro.live.frames import (
    FRAME_DATA, SEQ_NONE, forward_into, leading_alt_block, payload_offset, truncate_into,
)
from repro.net.addresses import MacAddress
from repro.net.link import Transmission
from repro.net.node import Attachment, Node
from repro.obs.trace import NULL_TRACER
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.portinfo import EthernetInfo
from repro.viper.wire import LOCAL_PORT, HeaderSegment, parse_segment_view


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


class _SimPortMap(PortMap):
    """The pipeline's view of a router's attachments (live objects)."""

    def __init__(self, router: "SirpentRouter") -> None:
        self._router = router

    def profile(self, port_id: int) -> Optional[Attachment]:
        # An attachment answers kind / mtu / rate_bps / up itself, live
        # — the whole ``PortMap.profile`` surface — so a hop builds none.
        return self._router.ports.get(port_id)

    def ids(self) -> Iterable[int]:
        return sorted(self._router.ports)

    def load_view(self) -> Dict[int, Any]:
        # OutputPorts expose queue_depth and .attachment for the
        # logical map's least-loaded member selection.
        return self._router.output_ports


class _SimEffectSink(EffectSink):
    """Counter + trace applicator for one packet in the simulator."""

    #: Abstract counter name -> RouterStats attribute.
    COUNTERS = {
        "no_route": "dropped_no_route",
        "token_reject": "dropped_token",
        "bad_portinfo": "dropped_bad_portinfo",
        "route_exhausted": "route_exhausted",
        "truncated": "truncated",
        "mcast_copy": "multicast_copies",
        "multicast_unsupported": "dropped_no_route",
    }

    __slots__ = ("_router", "_packet")

    def __init__(self, router: "SirpentRouter", packet: FramePacket) -> None:
        self._router = router
        self._packet = packet

    def bump(self, name: str, n: int = 1) -> None:
        counter: Counter = getattr(
            self._router.stats, self.COUNTERS.get(name, name)
        )
        counter.add(n)

    def trace_drop(self, reason: str, **fields: Any) -> None:
        router, packet = self._router, self._packet
        if packet.trace_id and router.tracer.enabled:
            router.tracer.drop(
                packet.trace_id, router.sim.now, router.name, reason, **fields
            )


class _SimHop:
    """One arrival as the pipeline reads it (the ``HopInput`` surface),
    found in the packet's frame the way the live router finds it:
    ``lead`` is the leading segment's bytes, ``segment`` parses them
    when first asked — which a frame the flow cache answers never does
    — and ``wire_size`` is the size the delivering transmission
    carried.

    The hop is also the frame's preamble as the move reads it (the
    :class:`~repro.live.frames.Preamble` surface): a sim frame is built
    by a host, never received off a socket, and always carries the
    untraced data preamble, so only its counts are read from the bytes.
    """

    kind = FRAME_DATA
    seq = SEQ_NONE
    trace_id = 0
    header_len = HEADER

    __slots__ = (
        "lead", "seg_count", "payload_len", "wire_size", "in_port",
        "now_ms", "next_rel", "_packet", "_inport", "_tx", "_parsed",
    )

    def __init__(
        self, packet: FramePacket, inport: Attachment, tx: Transmission,
        size: int, now_ms: int,
    ) -> None:
        view = packet.view
        buffer, start = view.buffer, view.start
        self.seg_count = buffer[start + SEG_COUNT_AT]
        self.payload_len = buffer[start + PAYLOAD_LEN_AT] << 8 | buffer[start + PAYLOAD_LEN_AT + 1]
        # Found when the previous hop sent the frame, not again here.
        next_at = start + HEADER + packet.decision_prefix_bytes()
        self.next_rel = next_at - start
        self.lead = buffer[start + HEADER:next_at]
        self._packet = packet
        self.wire_size = size
        self.in_port = inport.port_id
        self.now_ms = now_ms
        self._inport = inport
        self._tx = tx
        self._parsed = None

    @property
    def segment(self):
        # Of an immutable copy: the flow cache may keep what it is handed.
        if self._parsed is None:
            self._parsed = parse_segment_view(bytes(self.lead))
        return self._parsed

    def reverse_portinfo(self) -> bytes:
        """Reverse the arrival network header (Ethernet src/dst swap, §2).

        ethertype 0 placeholder: the sender of the return route fills in
        the Sirpent type; sizes are identical either way.
        """
        tx = self._tx
        if (
            self._inport.kind == "ethernet"
            and tx.src_mac is not None
            and tx.dst_mac is not None
        ):
            return EthernetInfo(
                dst=tx.src_mac, src=tx.dst_mac, ethertype=0
            ).to_bytes()
        return b""

    def alternate(self) -> Optional[List[HeaderSegment]]:
        return leading_alt_block(self._packet.view.mem, HEADER, self.seg_count)


class SirpentRouter(Node):
    """A Sirpent switching node: IO/timing driver over the pipeline."""

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
        self.mint = TokenMint(
            mint_secret if mint_secret is not None else f"secret:{name}".encode(),
            issuer=name,
        )
        self.token_cache = TokenCache(
            self.mint,
            policy=self.config.token_policy,
            verify_cost=self.config.token_verify_cost,
            require_tokens=self.config.require_tokens,
        )
        self.logical = LogicalPortMap(rng=rng)
        self.groups = GroupPortMap()
        self.flow_cache = FlowCache()
        self.pipeline = ForwardingPipeline(
            name,
            token_cache=self.token_cache,
            ports=_SimPortMap(self),
            logical=self.logical,
            groups=self.groups,
            flow_cache=self.flow_cache,
            capabilities=Capabilities(multicast=True),
        )
        self.stats = RouterStats()
        self.local_handler: Optional[Callable[[FramePacket, Attachment], None]] = None
        self.output_ports: Dict[int, OutputPort] = {}
        self.congestion: Optional[RateControlManager] = None
        if control_plane is not None:
            self.congestion = RateControlManager(
                sim, name, control_plane, enabled=self.config.congestion_enabled
            )
            # Congestion rebinds route packets around hot queues; cached
            # flow decisions may point straight at one — flush them.
            self.congestion.on_rebind = self.pipeline.on_congestion_rebind
        #: Hop tracer (repro.obs); NULL_TRACER = tracing disabled.
        self.tracer = NULL_TRACER

    # -- wiring -----------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this router and
        every output port (existing and future attachments)."""
        self.tracer = tracer
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
        outport.on_transmit_start = self._stamp_feed_forward(outport)
        outport.tracer = self.tracer
        self.output_ports[port_id] = outport
        if self.congestion is not None:
            self.congestion.watch_port(port_id, outport)
        # Topology changed: any cached flow naming this port is stale.
        self.pipeline.on_topology_change(port_id)

    @staticmethod
    def _stamp_feed_forward(outport: OutputPort) -> Callable[[Any], None]:
        def stamp(entry: Any) -> None:
            packet = entry.packet
            if isinstance(packet, FramePacket):
                packet.feed_forward_load = outport.queue_depth
        return stamp

    # -- receive hooks -------------------------------------------------------

    def on_header(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, FramePacket):
            return
        if not self.config.cut_through:
            return
        port = packet.leading_port()
        if port is None:
            return  # handled (and counted) at completion
        if port == LOCAL_PORT:
            return  # local delivery needs the full packet
        # Cut-through needs matching rates ("only applicable when the
        # input link and the output link are the same data rates").
        outport_id = self.pipeline.peek_physical_port(port)
        if outport_id is not None:
            attachment = self.ports.get(outport_id)
            if attachment is None or attachment.rate_bps != inport.rate_bps:
                return  # fall back to store-and-forward at completion
        tx.taken_by(inport)  # the completion is no moment for us
        self.stats.cut_through_forwards.add()
        if packet.trace_id and self.tracer.enabled:
            self.tracer.event(
                packet.trace_id, self.sim.now, self.name,
                "cut_through_start", in_port=inport.port_id,
            )
        self._process(packet, inport, tx, tx.size, 0.0)

    def on_packet(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, FramePacket):
            return
        port = packet.leading_port()
        if port is None:
            apply_drop(
                _SimEffectSink(self, packet),
                Decision(Action.DROP, reason="route_exhausted"),
            )
            return
        if port == LOCAL_PORT:
            self._deliver_local(packet, inport)
            return
        self.stats.store_forwards.add()
        if packet.trace_id and self.tracer.enabled:
            self.tracer.event(
                packet.trace_id, self.sim.now, self.name,
                "store_forward_start", in_port=inport.port_id,
            )
        self._process(
            packet, inport, tx, tx.size, self.config.store_forward_process_delay
        )

    def on_abort(self, packet: Any, inport: Attachment) -> None:
        """Upstream preemption mid-cut-through: propagate the abort."""
        if not isinstance(packet, FramePacket):
            return
        for outport in self.output_ports.values():
            if outport.streaming is packet:
                if outport.attachment.current_packet() is packet:
                    outport.attachment.abort_current()
                return

    # -- decide (pipeline) then apply (driver) ----------------------------

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
        hop = _SimHop(packet, inport, tx, size, int(self.sim.now * 1000))
        self._apply(self.pipeline.decide(hop), packet, hop, extra_process_delay)

    def _apply(  # sirlint: hot
        self,
        decision: Decision,
        packet: FramePacket,
        hop: _SimHop,
        extra_process_delay: float,
    ) -> None:
        if decision.action is Action.DROP:
            apply_drop(_SimEffectSink(self, packet), decision)
            return
        if decision.action is Action.DELIVER_LOCAL:
            self._deliver_local(packet, hop._inport, append_hop=False)
            return
        if decision.action is Action.FANOUT:
            self._fan_out(decision, packet, hop, extra_process_delay)
            return

        # FORWARD: the live router's move on the frame — strip the
        # segment, append the return hop (§2), splice any transit tail
        # or the slick alternate — then truncate to the egress MTU and
        # transmit after the decision/verification/processing delay.
        while not forward_into(packet.view, decision, hop, hop.next_rel):
            packet.grow()
        packet.hops_taken += 1
        tracing = packet.trace_id and self.tracer.enabled
        if decision.slick_reroute:
            # Slick-Packets local reroute (ARCHITECTURE §16): the
            # in-band alternate replaced the *entire* remaining route.
            self.stats.slick_reroutes.add()
            if tracing:
                self.tracer.event(
                    packet.trace_id, self.sim.now, self.name,
                    "slick_reroute", out_port=decision.out_port,
                )
        if tracing:
            self.tracer.event(
                packet.trace_id, self.sim.now, self.name,
                "strip_reverse_append", out_port=decision.out_port,
                segments_left=packet.seg_count,
            )
        if decision.truncate_to:
            while not truncate_into(packet.view, decision.truncate_to):
                packet.grow()
            self.stats.truncated.add()
        packet.lead_bytes = None  # a new leading segment
        delay = (
            self.config.decision_delay + decision.token_delay + extra_process_delay
        )
        # The size the packet leaves with: counted once, carried from here.
        self.sim.after(
            delay,
            self._forward,
            packet, packet.wire_size(), decision.out_port, decision.effective,
            decision.dst_mac, self.sim.now,
        )

    def _fan_out(
        self,
        decision: Decision,
        packet: FramePacket,
        hop: _SimHop,
        extra_process_delay: float,
    ) -> None:
        """Multicast: re-frame a clone per branch and run each through
        the pipeline again (token checks per branch segment).  A branch
        replaces the leading segment, or — tree multicast — the whole
        route and its alternate blocks."""
        mem = packet.view.mem
        if decision.fanout_replaces_route:
            rest = mem[payload_offset(mem, hop):]
            kept = 0
        else:
            rest = mem[hop.next_rel:]
            kept = hop.seg_count - 1
        for branch in decision.branches:
            clone = FramePacket(
                len(branch) + kept, hop.payload_len,
                b"".join([s.wire for s in branch]) + rest,
                payload=packet.payload,
                packet_id=self.sim.new_packet_id(),
                created_at=packet.created_at,
                source=packet.source,
                hops_taken=packet.hops_taken,
                hop_log=list(packet.hop_log[:-1]),  # _process re-appends
                trace_id=packet.trace_id,
            )
            self.stats.multicast_copies.add()
            self._process(clone, hop._inport, hop._tx, clone.wire_size(), extra_process_delay)

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
        self.stats.router_delay.add(self.sim.now - arrival_time)
        self.stats.forwarded.add()
        outport.submit(
            packet, size, packet.decision_prefix_bytes(),
            dst_mac=dst_mac, priority=segment.priority, dib=segment.dib,
        )

    # -- local delivery -----------------------------------------------------------

    def _deliver_local(
        self, packet: FramePacket, inport: Attachment, append_hop: bool = True
    ) -> None:
        self.stats.delivered_local.add()
        if append_hop:
            packet.hop_log.append(self.name)
        if packet.trace_id and self.tracer.enabled:
            self.tracer.deliver(
                packet.trace_id, self.sim.now, self.name,
                hops=packet.hops_taken,
            )
        if self.local_handler is not None:
            self.local_handler(packet, inport)
