"""A Sirpent router as a live asyncio UDP daemon — the overlay's driver.

:class:`LiveRouter` receives VIPER frames on a real socket as batches of
ring-slot views, finds the *leading* header segment in place
(:func:`repro.viper.wire.segment_span`), runs the **same** sans-IO
:class:`repro.dataplane.ForwardingPipeline` as the simulator's
:class:`~repro.core.router.SirpentRouter` — token-cache admission, the
§2.2 flow cache, strip/reverse/append planning — and forwards the frame
out the named port, which in the overlay is a UDP peer address.  Port 0
delivers locally, exactly as §5 reserves it.

A frame crosses the router one way only: ``_on_batch`` →
:func:`~repro.live.frames.forward_into` (the hop move or the slick
splice, the same call the simulator's router makes) →
:meth:`~repro.live.link.LiveEndpoint.send_view`.  The frame never leaves
its slot and there is no materialising twin.  ``_on_batch`` hands the
pipeline each frame's leading-segment *bytes*; the segment is parsed
only when the §2.2 flow cache does not answer for them.

Sim↔live decision parity is *structural*: both routers call the one
pipeline, so the parity tests assert plumbing, not a duplicated
algorithm.

Unsupported in the live overlay: multicast fan-out/tree ports and
logical-port splicing — the pipeline is built with
``Capabilities(multicast=False)`` and an empty logical map, so frames
naming them are dropped and counted, never crash the daemon.
Undecodable datagrams are likewise dropped-and-counted (the decoder
totality the fuzz suite enforces is what makes this safe).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Set

from repro.dataplane import (
    Action,
    Capabilities,
    Decision,
    EffectSink,
    FlowCache,
    ForwardingPipeline,
    PortMap,
    PortProfile,
    UNKNOWN_IN_PORT,
    apply_drop,
)
from repro.live.frames import forward_into, leading_alt_block
from repro.live.link import (
    Address,
    BatchEntry,
    Impairments,
    LiveEndpoint,
    ReliabilityConfig,
)
from repro.live.metrics import EndpointMetrics
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACER
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.errors import ViperDecodeError
from repro.viper.portinfo import ETHERNET_INFO_BYTES, EthernetInfo
from repro.viper.wire import (
    HeaderSegment,
    PacketView,
    SegmentView,
    parse_segment_view,
    segment_span,
)

__all__ = [
    "Action",
    "Decision",
    "LiveRouter",
    "LiveRouterConfig",
]


@dataclass
class LiveRouterConfig:
    """Tunables of one live router daemon."""

    token_policy: CachePolicy = CachePolicy.OPTIMISTIC
    require_tokens: bool = False
    #: Per-hop forwarding uses ack/retry when True (dead peers become
    #: detectable instead of silent loss).
    reliable_hops: bool = True


# Every live port has one of two profiles.  UDP hops carry no Ethernet
# portInfo and never truncate (the datagram either fits the socket or
# was refused at encode time), hence mtu=0 (unlimited).  ``up`` is the
# router's link-health view: ack-timeout peer death marks it down, any
# inbound frame marks it back up — the signal the pipeline's slick
# reroute stage keys on.
_PORT_UP = PortProfile(kind="udp", mtu=0, up=True)
_PORT_DOWN = PortProfile(kind="udp", mtu=0, up=False)


class _LivePortMap(PortMap):
    """The pipeline's view of the router's UDP peer table."""

    def __init__(self, router: "LiveRouter") -> None:
        self._router = router

    def profile(self, port_id: int) -> Optional[PortProfile]:
        router = self._router
        if port_id in router.ports:
            return _PORT_DOWN if port_id in router.dead_ports else _PORT_UP
        return None

    def ids(self) -> Iterable[int]:
        return sorted(self._router.ports)


class _LiveEffectSink(EffectSink):
    """Counter + trace applicator of one live router.

    One per router, restamped per decided frame
    (:meth:`LiveRouter._on_batch`): ``trace_id`` is the current frame's
    trace id when it carries one *and* a tracer is installed, else 0 —
    the one tracing guard.  The driver tests it before a ``trace_event``
    call that takes fields, so an untraced frame does not build the
    kwargs either.
    """

    __slots__ = ("_router", "trace_id")

    def __init__(self, router: "LiveRouter") -> None:
        self._router = router
        self.trace_id = 0

    def bump(self, name: str, n: int = 1) -> None:
        router = self._router
        for _ in range(n):
            router.metrics.drop(name)
        if router.recorder.enabled:
            router.recorder.record(
                "frame_dropped", node=router.name, reason=name, n=n,
            )

    def trace_event(self, event: str, **fields: Any) -> None:
        if self.trace_id:
            router = self._router
            router.tracer.event(
                self.trace_id, time.monotonic(), router.name, event, **fields
            )

    def trace_drop(self, reason: str, **fields: Any) -> None:
        if self.trace_id:
            router = self._router
            router.tracer.drop(
                self.trace_id, time.monotonic(), router.name, reason, **fields
            )


class _LiveHop:
    """One arrival as the pipeline reads it (the ``HopInput`` surface).

    One per router, restamped per frame (:meth:`LiveRouter._on_batch`):
    ``lead`` is the leading segment's bytes, still in the ring slot
    ``mem`` views; ``segment`` parses them when first asked — which a
    frame the flow cache answers never does — from a private copy, so
    the pipeline may keep the view it is handed (the flow cache does)
    after the slot has moved on.
    """

    __slots__ = (
        "lead", "seg_count", "wire_size", "in_port", "now_ms",
        "mem", "header_len", "_parsed", "_parsed_from",
    )

    def __init__(self) -> None:
        self.now_ms = 0
        self._parsed = self._parsed_from = None

    @property
    def segment(self) -> SegmentView:
        # Parsed once per frame: every frame brings its own ``lead``.
        if self._parsed_from is not self.lead:
            self._parsed_from = self.lead
            self._parsed = parse_segment_view(bytes(self.lead))
        return self._parsed

    def reverse_portinfo(self) -> bytes:
        """Reverse the hop's network-specific bytes for the return route:
        an Ethernet-shaped portInfo is reversed (src/dst swap); a
        point-to-point/UDP hop's is empty — the same link-layer rule the
        sim driver applies to its arrival transmission.  The segment
        leads with its portInfo length, so the common answer needs no
        parse."""
        if self.lead[0] != ETHERNET_INFO_BYTES:
            return b""
        try:
            return EthernetInfo.from_bytes(
                self.segment.portinfo
            ).reversed().to_bytes()
        except ViperDecodeError:  # pragma: no cover - length-checked
            return b""

    def alternate(self) -> Optional[List[HeaderSegment]]:
        return leading_alt_block(self.mem, self.header_len, self.seg_count)


class LiveRouter:
    """One Sirpent switching node running over a real UDP socket."""

    def __init__(
        self,
        name: str,
        config: Optional[LiveRouterConfig] = None,
        mint_secret: Optional[bytes] = None,
        impairments: Optional[Impairments] = None,
        reliability: Optional[ReliabilityConfig] = None,
    ) -> None:
        self.name = name
        self.config = config if config is not None else LiveRouterConfig()
        # The same default secret scheme as the simulator's router, so a
        # directory that mints against the sim topology produces tokens
        # this live router verifies.
        self.mint = TokenMint(
            mint_secret if mint_secret is not None else f"secret:{name}".encode(),
            issuer=name,
        )
        self._build_soft_state()
        self.metrics = EndpointMetrics(name)
        self.endpoint = LiveEndpoint(
            name, metrics=self.metrics,
            impairments=impairments, reliability=reliability,
        )
        # Whole batches of ring-slot views per loop wakeup.
        self.endpoint.on_batch = self._on_batch
        #: Reusable hop-decision input — one mutable record the batch
        #: path restamps per frame instead of allocating per packet.
        self._hop = _LiveHop()
        self._sink = _LiveEffectSink(self)
        #: VIPER port id -> peer UDP address.
        self.ports: Dict[int, Address] = {}
        #: Peer UDP address -> the VIPER port frames from it arrive on.
        self.addr_port: Dict[Address, int] = {}
        #: Link health (§2.2 soft state): ports whose peer stopped
        #: acking (``on_peer_dead``) and has not been heard from since.
        #: The pipeline sees these as ``up=False`` and a slick frame
        #: gets its in-band reroute instead of a doomed transmit.
        self.dead_ports: Set[int] = set()
        #: Optional observer called after the router marks a port dead.
        self.on_link_down: Optional[Callable[[int], None]] = None
        self.endpoint.on_peer_dead = self._on_peer_dead
        #: Optional hook receiving ``(datagram, source)`` for port-0 frames.
        self.local_handler = None
        #: Hop tracer (repro.obs); NULL_TRACER = tracing disabled.
        #: Timestamps are ``time.monotonic()`` seconds.
        self.tracer = NULL_TRACER
        #: Flight recorder (repro.obs); NULL_RECORDER = not recording.
        self.recorder = NULL_RECORDER
        self._started_at = time.monotonic()

    # -- wiring ------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the router's socket; returns its address."""
        return await self.endpoint.open(host, port)

    def stop(self) -> None:
        """Shut the router down (its peers will see a dead hop)."""
        self.endpoint.close()

    async def restart(self, host: str = "127.0.0.1") -> Address:
        """Crash recovery: rebind the socket, **re-derive** soft state.

        §2.2's claim is that a Sirpent router keeps *only* soft state —
        so recovery is: keep the configuration (port wiring, mint
        secret, policy), throw away every cache, and come back up.  The
        token cache and flow cache are rebuilt empty (they repopulate
        from traffic), the pipeline is rebuilt over them, and the
        endpoint re-opens on the **same UDP port** so peers' wiring
        stays valid.  The endpoint's own soft state (retry table, dedup
        windows, hop sequence space) is re-derived by
        :meth:`~repro.live.link.LiveEndpoint.open`'s reopen path.
        """
        port = self.address[1] if self.address is not None else 0
        self._build_soft_state()
        self.dead_ports.clear()
        self._started_at = time.monotonic()
        address = await self.endpoint.open(host, port)
        if self.recorder.enabled:
            self.recorder.record(
                "router_restarted", node=self.name,
                port=address[1] if address else 0,
            )
        return address

    def _build_soft_state(self) -> None:
        """Everything §2.2 lets a router forget, built empty: the token
        cache, the flow cache, and the pipeline over them."""
        self.token_cache = TokenCache(
            self.mint,
            policy=self.config.token_policy,
            require_tokens=self.config.require_tokens,
        )
        self.flow_cache = FlowCache()
        self.pipeline = ForwardingPipeline(
            self.name,
            token_cache=self.token_cache,
            ports=_LivePortMap(self),
            flow_cache=self.flow_cache,
            capabilities=Capabilities(multicast=False),
        )

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this router."""
        self.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install a :class:`repro.obs.recorder.FlightRecorder`."""
        self.recorder = recorder

    def connect_port(self, port_id: int, peer: Address) -> None:
        """Map VIPER ``port_id`` to the UDP address of the next node."""
        if not 0 < port_id <= 255:
            raise ValueError(f"port {port_id} invalid: VIPER ports are 1..255")
        self.ports[port_id] = peer
        self.addr_port[peer] = port_id
        self.dead_ports.discard(port_id)
        # Topology changed: cached flows naming this port are stale.
        self.pipeline.on_topology_change(port_id)

    def _on_peer_dead(self, addr: Address) -> None:
        """Ack-timeout link-health signal from the endpoint (§2.2).

        Marks the peer's port down so the pipeline reroutes slick
        frames around it; cached flows steering into it are flushed
        (the reroute stage re-flushes defensively, but a non-slick
        flow must stop hitting the warm path too).
        """
        port_id = self.addr_port.get(addr)
        if port_id is None or port_id in self.dead_ports:
            return
        self.dead_ports.add(port_id)
        self.pipeline.on_topology_change(port_id)
        if self.recorder.enabled:
            self.recorder.record("link_down", node=self.name, port=port_id)
        if self.on_link_down is not None:
            self.on_link_down(port_id)

    def _revive_port(self, port_id: int) -> None:
        """An inbound frame proves the peer is alive again."""
        if port_id in self.dead_ports:
            self.dead_ports.discard(port_id)
            if self.recorder.enabled:
                self.recorder.record("link_up", node=self.name, port=port_id)

    @property
    def address(self) -> Optional[Address]:
        """The router's bound UDP address (None before :meth:`start`)."""
        return self.endpoint.address

    # -- decide (pipeline) then apply (driver) -----------------------------

    def _on_batch(self, batch: List[BatchEntry]) -> None:  # sirlint: hot
        """Forward one endpoint wakeup's worth of frames, in place.

        Each frame arrives as a :class:`~repro.viper.wire.PacketView`
        over a ring slot this router now owns, with the preamble the
        endpoint decoded from it; every path below either releases the
        slot or hands it to
        :meth:`~repro.live.link.LiveEndpoint.send_view` (which then owns
        it) — exactly once.  The flow-cache clock is read once per
        batch: a wakeup's frames arrived together.

        A frame is *found*, not parsed: the leading segment's span is
        checked against the frame (which is all the validation a
        segment has) and its bytes go to the pipeline, whose flow cache
        answers a frame that repeats the previous one — the rest of a
        §4 packet group — by comparing them.  Only a frame the cache
        does not know is parsed (:attr:`_LiveHop.segment`).

        The move happens *inside* the ring slot
        (:func:`~repro.live.frames.forward_into`): the preamble is
        rewritten just before the surviving segments and the memoized
        return tail (``Decision.return_tail``, encoded once at
        flow-cache install) lands in the slot's tail-room, the frame
        sliding to the slot's head first when that is short.  The move
        refuses only a frame whose *outgoing* size exceeds the slot —
        one the next endpoint would drop as ``oversize`` unacked — so it
        is dropped here, with that reason, instead of being retried
        into a false ``on_peer_dead``.
        """
        hop = self._hop
        hop.now_ms = self._now_ms()
        sink = self._sink
        addr_port = self.addr_port
        dead_ports = self.dead_ports
        for view, source, preamble in batch:
            mem = view.mem
            header_len = preamble.header_len
            try:
                if preamble.seg_count == 0:
                    raise ViperDecodeError("no leading segment")
                next_rel = segment_span(mem, header_len)
            except ViperDecodeError:
                # Line noise / malformed frame: drop and count,
                # never crash.
                view.release()
                sink.trace_id = 0
                apply_drop(
                    sink, Decision(Action.DROP, reason="undecodable")
                )
                continue
            trace_id = preamble.trace_id
            sink.trace_id = (
                trace_id if trace_id and self.tracer.enabled else 0
            )
            in_port = addr_port.get(source, UNKNOWN_IN_PORT)
            if dead_ports:
                self._revive_port(in_port)
            hop.lead = mem[header_len:next_rel]
            hop.seg_count = preamble.seg_count
            hop.wire_size = preamble.payload_len
            hop.in_port = in_port
            hop.mem = mem
            hop.header_len = header_len
            decision = self.pipeline.decide(hop)
            if decision.action is Action.DROP:
                view.release()
                apply_drop(sink, decision)
                continue
            if decision.action is Action.DELIVER_LOCAL:
                self._deliver_local(view, source)
                continue
            # FORWARD (FANOUT cannot happen: multicast=False drops
            # earlier).
            if in_port == UNKNOWN_IN_PORT:
                # A frame from an unwired peer cannot get a correct
                # return hop; refusing it mirrors Sirpent's "routes
                # only work when every hop is reversible".  The
                # decision above still ran the token cache.
                view.release()
                apply_drop(
                    sink, Decision(Action.DROP, reason="unknown_peer")
                )
                continue
            if sink.trace_id:
                sink.trace_event(
                    "switch_decision",
                    in_port=in_port, out_port=decision.out_port,
                )
            try:
                moved = forward_into(view, decision, preamble, next_rel)
            except (ValueError, ViperDecodeError):
                # The bytes contradict the decision (a slick flag with no
                # well-formed block behind the route, a return hop too
                # large to frame): corrupt frame.
                view.release()
                apply_drop(sink, Decision(Action.DROP, reason="undecodable"))
                continue
            if not moved:
                view.release()
                apply_drop(sink, Decision(Action.DROP, reason="oversize"))
                continue
            if decision.slick_reroute:
                self._count_slick_reroute(sink, in_port, decision)
            self._count_forward(sink, in_port, decision, preamble.seg_count)
            self.endpoint.send_view(
                view, self.ports[decision.out_port],
                reliable=self.config.reliable_hops,
            )

    def _deliver_local(self, view: PacketView, source: Address) -> None:
        """Port 0 (§5): the frame leaves the overlay here."""
        self.metrics.delivered_local += 1
        self._sink.trace_event("deliver_local")
        if self.recorder.enabled:
            self.recorder.record("frame_delivered", node=self.name)
        if self.local_handler is not None:
            # Local delivery leaves the overlay: materialise here.
            datagram = view.tobytes()
            view.release()
            self.local_handler(datagram, source)
        else:
            view.release()

    def _count_slick_reroute(
        self, sink: _LiveEffectSink, in_port: int, decision: Decision,
    ) -> None:
        self.metrics.slick_reroutes += 1
        if sink.trace_id:
            sink.trace_event(
                "slick_reroute", in_port=in_port, out_port=decision.out_port,
            )
        if self.recorder.enabled:
            self.recorder.record(
                "slick_reroute", node=self.name,
                in_port=in_port, out_port=decision.out_port,
            )

    def _count_forward(
        self, sink: _LiveEffectSink, in_port: int, decision: Decision,
        seg_count: int,
    ) -> None:
        self.metrics.forwarded += 1
        if sink.trace_id:
            sink.trace_event(
                "strip_reverse_append",
                out_port=decision.out_port,
                # A reroute leaves its alternate's tail, a strip the rest.
                segments_left=(
                    len(decision.splice_tail) if decision.slick_reroute
                    else seg_count - 1
                ),
            )
        if self.recorder.enabled:
            self.recorder.record(
                "frame_forwarded", node=self.name,
                in_port=in_port, out_port=decision.out_port,
            )

    def _now_ms(self) -> int:
        return int((time.monotonic() - self._started_at) * 1000)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveRouter {self.name!r} ports={sorted(self.ports)}>"
