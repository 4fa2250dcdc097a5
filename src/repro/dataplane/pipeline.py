"""The sans-IO forwarding pipeline: one per-hop algorithm, one router core.

Sirpent's per-hop operation is a single fixed algorithm (§2, §5):

    multicast-expand -> token-admit -> logical-resolve ->
    strip/reverse/append -> truncate -> egress-resolve

The repo used to implement it twice — structurally in
``core.router.SirpentRouter`` and on raw bytes in ``live.LiveRouter`` —
held together only by a parity test.  :class:`ForwardingPipeline` is
that algorithm exactly once, with **no IO**: it consumes a
:class:`HopInput` (a view of the leading segment plus sizes, the
arrival port and the clock) and produces a
:class:`~repro.dataplane.effects.Decision`.  The router core
(:class:`~repro.dataplane.router.RouterCore`) feeds it and applies the
decision to the frame's bytes with the one move in
:mod:`repro.live.frames`; the two routers around the core own sockets,
simulated links and timing.

On top sits the paper's §2.2 soft state: a per-port
:class:`~repro.dataplane.flowcache.FlowCache` memoizing
(arrival port, leading segment's bytes) -> the decision, so repeat
packets of a flow skip the parse, token verification and logical
resolution entirely and pay only the per-packet stage (the warm arm of
:meth:`ForwardingPipeline.decide`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.dataplane.effects import Action, Decision
from repro.dataplane.flowcache import FlowCache, FlowEntry
from repro.dataplane.logical import LogicalPortMap
from repro.dataplane.multicast import (
    BROADCAST_PORT,
    GROUP_PORT_BASE,
    GroupPortMap,
    TREE_PORT,
    decode_tree_info,
)
from repro.tokens.cache import TokenCache, Verdict
from repro.viper.errors import DecodeError
from repro.viper.packet import TRAILER_LENGTH_BYTES, TRUNCATION_SENTINEL
from repro.viper.portinfo import (
    COMPRESSED_ETHERNET_INFO_BYTES,
    CompressedEthernetInfo,
    EthernetInfo,
    ETHERNET_INFO_BYTES,
)
from repro.viper.flags import FLAG_SLICK
from repro.viper.wire import (
    ALT_COUNT_BYTES, FIXED_SEGMENT_BYTES, LENGTH_ESCAPE, LOCAL_PORT,
    PORT_OFFSET, HeaderSegment, flagless_segment,
)

#: ``HopInput.in_port`` value meaning "arrival port unknown" — the
#: return segment cannot be built and the flow is never cached (the
#: live driver uses this for frames from unwired peers, which it
#: refuses after the decision, preserving drop-reason precedence).
UNKNOWN_IN_PORT = -1

#: Where a segment's flags byte sits, and its slick bit there.
_FLAGS_OFFSET, _SLICK_BIT = FIXED_SEGMENT_BYTES - 1, FLAG_SLICK << 4


@dataclass(frozen=True)
class PortProfile:
    """What the pipeline may know about one egress port, sans IO — a
    ready-made value for drivers with no port object of their own."""

    kind: str = "p2p"       # "ethernet" | "p2p" | "udp"
    mtu: int = 0            # 0 = unlimited (no truncation on this hop)
    rate_bps: float = 0.0
    up: bool = True


class PortMap:
    """The pipeline's view of one router's ports: ``{port_id: profile}``
    plus the ports whose link is down.

    A profile is any object the pipeline can read ``kind`` / ``mtu`` /
    ``rate_bps`` / ``up`` from — a :class:`PortProfile` value, or the
    adapter's own port object when that answers them live (the
    simulator's attachments, whose ``up`` follows their link).  The map
    holds the adapter's dict by reference, so wiring a port is storing
    its profile.  ``down`` is link health learned from outside the port
    object (the live overlay's probe ladder): the pipeline sees such a port
    with ``up=False``, which is what a slick segment's in-band reroute
    keys on.  ``ids`` lists the physical port ids (broadcast
    membership); ``load_view`` exposes the adapter's per-port load
    objects for the logical map's least-loaded selection (empty when
    the adapter has no queues).
    """

    __slots__ = ("profiles", "down", "_load_view")

    def __init__(
        self,
        profiles: Dict[int, Any],
        load_view: Optional[Dict[int, Any]] = None,
    ) -> None:
        self.profiles = profiles
        self.down: Set[int] = set()
        self._load_view = load_view if load_view is not None else {}

    def profile(self, port_id: int) -> Optional[Any]:
        profile = self.profiles.get(port_id)
        if profile is not None and port_id in self.down:
            return PortProfile(profile.kind, profile.mtu, profile.rate_bps, up=False)
        return profile

    def ids(self) -> Iterable[int]:
        return sorted(self.profiles)

    def load_view(self) -> Dict[int, Any]:
        return self._load_view


@dataclass(frozen=True)
class Capabilities:
    """What this driver's substrate supports.

    The live overlay (v1) forwards unicast only: frames naming
    multicast ports are dropped-and-counted rather than crashing the
    daemon, and the decision (not the driver) says so.
    """

    multicast: bool = True


@dataclass
class HopInput:
    """Everything the per-hop decision may read — no packet object.

    The contract is the surface, not the class: the pipeline reads
    ``lead``, ``segment``, ``seg_count``, ``wire_size``, ``in_port``,
    ``now_ms`` and calls ``reverse_portinfo()`` / ``alternate()``
    lazily, nothing else, so a caller may pass any object that answers
    those eight.  Both routers pass the one hop reader,
    :class:`repro.dataplane.router.FrameHop`, which finds them in a
    frame's bytes; this dataclass is the reference form tests and the
    structural oracle build by hand.

    ``lead`` is the leading segment's encoding — any bytes-like, exactly
    the segment — and with ``in_port`` it is the flow-cache key.
    ``segment`` is the same segment parsed (a structural
    :class:`HeaderSegment` or a :class:`~repro.viper.wire.SegmentView`
    over bytes that will not change — the flow cache keeps it); the
    pipeline touches it only when the cache did not answer, so a driver
    holding bytes may parse on demand.  The decision is a function of that key — plus, from outside
    it, exactly these, each with the handling that keeps a memoized
    decision equal to a fresh one:

    ==================  ==================================================
    ``seg_count``       0 drops before the cache is consulted; otherwise
                        not read (a driver that traces the remaining
                        route length knows it)
    ``wire_size``       per packet: charged to the token's budget and the
                        ledger, tested against the egress MTU
    ``now_ms``          per packet: TTL and token expiry at lookup
    arrival frame       ``reverse_portinfo()`` — the sim reverses the
                        arrival MACs — is compared per packet with the
                        memoized return hop, which is rebuilt on a change
    alternate block     ``alternate()`` feeds only a slick reroute, which
                        is decided per packet and never memoized
    egress state        the egress's profile and ``PortMap.down`` are read
                        per packet: a dead or vanished egress purges the
                        entry
    token state         the token-cache entry is charged per packet; a
                        token-cache flush flushes the flow cache
    port maps           group membership is read per packet, before the
                        cache; the logical map is configuration, read at
                        install — editing it under live flows calls for
                        ``on_topology_change()``
    ==================  ==================================================

    ``wire_size`` is the size charged against the token (the sim
    charges the full wire size; the live overlay charges the payload
    length it knows from the preamble).  ``reverse_portinfo`` supplies
    the link-reversed network-specific bytes for the return hop — how
    they are derived (swapping the arrival frame's MACs, reversing the
    segment's own Ethernet portInfo) is the one link rule each
    substrate hands the router core.
    """

    segment: HeaderSegment
    seg_count: int
    wire_size: int
    in_port: int = UNKNOWN_IN_PORT
    now_ms: int = 0
    reverse_portinfo: Callable[[], bytes] = staticmethod(lambda: b"")
    #: Thunk producing the leading alternate block — the Slick-Packets
    #: backup route carried in-band for this hop (ARCHITECTURE §16) —
    #: or None when the packet carries none or the block fails to
    #: decode.  A thunk, not a value: the live driver only pays the
    #: block parse when the egress is actually dead.
    alternate: Callable[[], Optional[List[HeaderSegment]]] = staticmethod(
        lambda: None
    )

    @property
    def lead(self) -> bytes:
        return self.segment.wire


class ForwardingPipeline:
    """One router's forwarding decision engine (sans IO).

    Construction wires in the router's *state* — token cache, logical
    and group port maps, the port table view, and the flow cache — all
    of which the driver owns and may mutate between packets.
    """

    def __init__(
        self,
        name: str,
        token_cache: TokenCache,
        ports: PortMap,
        logical: Optional[LogicalPortMap] = None,
        groups: Optional[GroupPortMap] = None,
        flow_cache: Optional[FlowCache] = None,
        capabilities: Optional[Capabilities] = None,
    ) -> None:
        self.name = name
        self.token_cache = token_cache
        self.ports = ports
        self.logical = logical if logical is not None else LogicalPortMap()
        self.groups = groups if groups is not None else GroupPortMap()
        self.flow_cache = flow_cache if flow_cache is not None else FlowCache(
            enabled=False
        )
        self.capabilities = (
            capabilities if capabilities is not None else Capabilities()
        )
        # A token-cache flush (router restart) orphans every flow entry
        # whose verdict was derived from the flushed entries — soft
        # state dies together (§2.2).
        token_cache.on_flush = self.flow_cache.flush

    # -- cut-through peek --------------------------------------------------

    def peek_physical_port(self, port: int) -> Optional[int]:
        """Resolve a leading segment's ``port`` to a physical id, no
        side effects.

        None when the port needs process-time work (local delivery,
        logical resolution, multicast expansion) — the cut-through
        driver then falls back to store-and-forward.
        """
        if port == LOCAL_PORT:
            return None
        if self.logical.is_logical(port):
            return None
        if port in (TREE_PORT, BROADCAST_PORT) or self.groups.is_group(port):
            return None
        return port

    # -- the stages --------------------------------------------------------

    def decide(self, hop: HopInput) -> Decision:  # sirlint: hot
        """Run the per-hop pipeline for one packet view.

        Stages 0–2a, which every packet pays.  For a packet of a known
        flow stage 2a is all there is — the *per-packet stage*: a warm
        decision splits into what the flow fixes (egress, return hop
        and its encoded tail, splice: the memoized
        :attr:`FlowEntry.decision`, built once at install) and what a
        packet changes (its size, charged against the token's byte
        budget and the ledger and tested against the egress MTU; the
        arrival frame its return hop reverses), and a packet that leaves
        whole with the memoized return hop is handed the memoized
        decision itself, nothing parsed and nothing constructed.
        Everything else falls through to :meth:`_decide_cold`.
        """
        # Stage 0: route exhaustion / local delivery (port 0, §5).
        if hop.seg_count == 0:
            return Decision(Action.DROP, reason="route_exhausted")
        lead = hop.lead
        port = lead[PORT_OFFSET]
        if port == LOCAL_PORT:
            return Decision(Action.DELIVER_LOCAL)

        # Stage 1: multicast expansion — before token checks, so each
        # copy is admitted against the port it actually takes (§2).
        # Every multicast port sits at or above GROUP_PORT_BASE.
        if port >= GROUP_PORT_BASE:
            if port == TREE_PORT:
                return self._expand_tree(hop.segment)
            if port == BROADCAST_PORT or self.groups.is_group(port):
                return self._expand_group(hop, port)

        # Stage 2a: flow-cache fast path (§2.2 soft state).
        cached = self.flow_cache.lookup(hop.in_port, lead, hop.now_ms)
        if cached is None:
            return self._decide_cold(hop, port)
        decision = cached.decision
        out_port = decision.out_port
        ports = self.ports
        # ``ports.profile(out_port)``'s answer, without its down-copy.
        profile = ports.profiles.get(out_port)
        if profile is None or not profile.up or out_port in ports.down:
            # Egress vanished or died under the entry (topology change
            # or link failure raced the invalidation): purge, and take
            # the slow path, where a slick packet gets its reroute.
            self.flow_cache.invalidate_port(out_port)
            return self._decide_cold(hop, port)
        if cached.token_entry is not None:
            if not self.token_cache.account_flow_hit(
                cached.token_entry, hop.wire_size, decision.effective.priority
            ):
                # The byte budget cannot cover this packet: the full
                # admission produces the authoritative reject.
                self.flow_cache.invalidate_token(cached.token)
                return self._decide_cold(hop, port)
        size_delta = cached.post_size_delta
        return_segment = decision.return_segment
        if return_segment is not None:
            reverse_info = hop.reverse_portinfo()
            if reverse_info != return_segment.portinfo:
                # The upstream link re-framed (new arrival MACs) under
                # the cached flow: rebuild this packet's return hop
                # (the driver re-encodes — the memoized span is stale).
                rebuilt = return_segment.copy(portinfo=reverse_info)
                size_delta += rebuilt.wire_size() - return_segment.wire_size()
                decision = replace(
                    decision, return_segment=rebuilt, return_tail=None
                )
        size = hop.wire_size + size_delta
        if profile.mtu and size > profile.mtu and size - _stripped_block(hop) > profile.mtu:
            return replace(decision, truncate_to=profile.mtu)
        return decision

    def _decide_cold(self, hop: HopInput, port: int) -> Decision:
        """Stages 2b–6: the full decision for a packet the flow cache
        did not answer, memoized on the way out when it may be.

        The flow's decision is built once.  The packet that built it is
        handed that same object when it leaves whole and without
        waiting for its token check — the warm arm's answer — and its
        own copy only when it is cut or held (or, the flow not
        installable, the object is its own anyway).
        """
        segment = hop.segment
        priority = segment.priority
        token = segment.token

        # Stage 2b: token admission (§2.2).
        verdict, token_delay, token_entry = self.token_cache.admit(
            token, port, priority, hop.wire_size,
            now_ms=hop.now_ms, rpf=segment.rpf,
        )
        if verdict is Verdict.REJECT:
            return Decision(
                Action.DROP, reason="token_reject", drop_fields={"port": port}
            )

        # Stage 3: logical port resolution (§2.2).
        spliced: Optional[List[HeaderSegment]] = None
        if self.logical.is_logical(port):
            flow_hint = self.logical.flow_hint_of(segment)
            physical, spliced = self.logical.resolve(
                port, self.ports.load_view(), flow_hint=flow_hint
            )
            if physical is None:
                return Decision(
                    Action.DROP, reason="no_route", drop_fields={"port": port}
                )
            resolved_port = physical
        else:
            resolved_port = port

        profile = self.ports.profile(resolved_port)
        if segment.slick and (profile is None or not profile.up):
            # Stage 3b: Slick-Packets local reroute (ARCHITECTURE §16)
            # — the egress this slick segment names is dead, and the
            # packet carries its own backup route.  Splice it in-band;
            # only when no usable alternate remains does the packet
            # fall back to the end-to-end path (drop here, quarantine/
            # rebind recovers).
            rerouted = self._slick_reroute(hop)
            if rerouted is not None:
                return rerouted
            return Decision(
                Action.DROP, reason="slick_fallback_exhausted",
                drop_fields={"port": resolved_port},
            )
        if profile is None:
            return Decision(
                Action.DROP, reason="no_route",
                drop_fields={"port": resolved_port},
            )

        # Stage 4: strip/reverse/append inputs (§2) — the *driver*
        # performs the strip; the pipeline provides the pieces.
        effective = segment if spliced is None else spliced[0].copy(
            priority=priority, dib=segment.dib
        )
        dst_mac = None
        if profile.kind == "ethernet":
            dst_mac = resolve_dst_mac(effective, "ethernet")
            if dst_mac is None:
                return Decision(
                    Action.DROP, reason="bad_portinfo",
                    drop_fields={"port": resolved_port},
                )
        return_segment, return_tail = self._return_hop(
            hop, priority, token, token_entry
        )
        splice_tail = (
            [s.copy(priority=priority) for s in spliced[1:]]
            if spliced and len(spliced) > 1 else ()
        )
        # Post-hop wire-size change of the move: the stripped segment
        # gives way to the splice tail plus the new trailer element.  A
        # slick segment also takes its alternate block with it; that
        # block is the packet's own, not the flow's, so it is sized per
        # packet and left out of the memoized delta.
        size_delta = -segment.wire_size()
        for transit in splice_tail:
            size_delta += transit.wire_size()
        if return_segment is not None:
            size_delta += return_segment.wire_size() + TRAILER_LENGTH_BYTES
        # Stage 5: truncation instead of fragmentation (§2).
        truncate_to = 0
        size = hop.wire_size + size_delta
        if profile.mtu and size > profile.mtu and size - _stripped_block(hop) > profile.mtu:
            truncate_to = profile.mtu
        # What the flow fixes, built once; this packet's truncation and
        # its wait for the token check are its own.
        decision = Decision(
            Action.FORWARD, out_port=resolved_port, effective=effective,
            return_segment=return_segment, return_tail=return_tail,
            splice_tail=splice_tail, dst_mac=dst_mac,
        )

        # Stage 6: install the flow — deterministic resolutions only,
        # never for an unknown arrival port, nor under a token whose
        # cached claims would not admit the next packet (an optimistic
        # first packet is let through before its claims are read:
        # invalid, expired, or naming another port or priority).
        if (
            hop.in_port != UNKNOWN_IN_PORT
            and self.logical.deterministic(port)
            and (token_entry is None or self.token_cache.authorizes(
                token_entry, port, priority, segment.rpf
            ))
        ):
            self.flow_cache.install(FlowEntry(
                in_port=hop.in_port,
                # ``hop.segment`` parsed immutable bytes of the lead:
                # bytes of bytes is that object, not another copy.
                lead=bytes(hop.lead),
                port=port,
                token=token,
                decision=decision,
                token_entry=token_entry,
                post_size_delta=size_delta,
                expires_at_ms=token_entry.expiry_ms if token_entry else 0,
            ), hop.now_ms)

        if truncate_to or token_delay:
            return replace(
                decision, truncate_to=truncate_to, token_delay=token_delay
            )
        return decision

    # -- stage helpers -----------------------------------------------------

    def _expand_tree(self, segment: HeaderSegment) -> Decision:
        """Mechanism-2 multicast: clone per encoded branch (§2)."""
        if not self.capabilities.multicast:
            return Decision(Action.DROP, reason="multicast_unsupported")
        try:
            branches = decode_tree_info(segment.portinfo)
        except DecodeError:
            return Decision(
                Action.DROP, reason="bad_portinfo",
                drop_fields={"port": TREE_PORT},
            )
        return Decision(
            Action.FANOUT,
            branches=[[s.copy() for s in b.segments] for b in branches],
            fanout_replaces_route=True,
        )

    def _expand_group(self, hop: HopInput, port: int) -> Decision:
        """Mechanism-1 multicast: duplicate out each member port (§2)."""
        if not self.capabilities.multicast:
            return Decision(Action.DROP, reason="multicast_unsupported")
        members = (
            list(self.ports.ids()) if port == BROADCAST_PORT
            else self.groups.members(port)
        )
        segment = hop.segment
        branches = [
            [segment.copy(port=member)]
            for member in members
            if member != hop.in_port and self.ports.profile(member) is not None
        ]
        return Decision(Action.FANOUT, branches=branches)

    def _slick_reroute(self, hop: HopInput) -> Optional[Decision]:
        """Splice the packet's in-band alternate over the dead egress.

        Returns the reroute FORWARD decision, or None when the
        alternate is unusable (absent, malformed, nested-slick, names
        a local/logical/multicast port, its egress is also dead, or
        its token is rejected) — the caller then drops with
        ``slick_fallback_exhausted`` and end-to-end recovery takes
        over.

        A reroute is decided per packet and never memoized: it reads
        the packet's alternate block, which the flow-cache key does not
        cover, and it must stop the moment the egress is back.  The
        flow cache holds nothing steering this flow into the dead
        egress either — the warm arm purged the entry (stale
        pre-failover return tail included) on the way here.
        """
        segment = hop.segment
        alternate = hop.alternate()
        if not alternate:
            return None
        alt0 = alternate[0]
        # Alternates are depth-1 by construction (the decoder rejects
        # nested slick) and must resolve without process-time work:
        # local delivery, logical resolution and multicast expansion
        # all change the shape of the decision mid-failover.
        if alt0.port == LOCAL_PORT or self.logical.is_logical(alt0.port):
            return None
        if alt0.port in (TREE_PORT, BROADCAST_PORT) or self.groups.is_group(
            alt0.port
        ):
            return None
        profile = self.ports.profile(alt0.port)
        if profile is None or not profile.up:
            return None
        verdict, token_delay, token_entry = self.token_cache.admit(
            alt0.token, alt0.port, segment.priority, hop.wire_size,
            now_ms=hop.now_ms, rpf=segment.rpf,
        )
        if verdict is Verdict.REJECT:
            return None
        effective = alt0.copy(priority=segment.priority, dib=segment.dib)
        dst_mac = resolve_dst_mac(effective, profile.kind)
        if profile.kind == "ethernet" and dst_mac is None:
            return None
        splice_tail = [
            s.copy(priority=segment.priority) for s in alternate[1:]
        ]
        # Truncation is deliberately skipped on the reroute hop: the
        # post-hop wire size depends on the whole replaced route and
        # the discarded alternate blocks, and cutting a packet that is
        # actively dodging a failure trades delivery for a cap one hop
        # later can still apply.
        return_segment, return_tail = self._return_hop(
            hop, segment.priority, alt0.token, token_entry
        )
        return Decision(
            Action.FORWARD,
            out_port=alt0.port,
            effective=effective,
            return_segment=return_segment,
            return_tail=return_tail,
            splice_tail=splice_tail,
            dst_mac=dst_mac,
            token_delay=token_delay,
            slick_reroute=True,
        )

    def _return_hop(
        self, hop: HopInput, priority: int, token: bytes, token_entry: Any,
    ) -> Tuple[Optional[HeaderSegment], Optional[bytes]]:
        """The reversed hop for the trailer and its wire span, the tail
        the move appends (``(None, None)`` when the arrival port is
        unknown; the tail is None when the hop is too large to frame).
        The forward ``token`` rides it only when its claims say so ("the
        token can be used for the return route as well", §2.2)."""
        in_port = hop.in_port
        if in_port == UNKNOWN_IN_PORT:
            return None, None
        if token_entry is None or not (
            token_entry.valid and token_entry.reverse_ok
        ):
            token = b""
        portinfo = hop.reverse_portinfo()
        if len(token) < LENGTH_ESCAPE and len(portinfo) < LENGTH_ESCAPE:
            # Every field already checked: the port was wired as
            # 1..255, the priority is the wire's nibble.
            segment = flagless_segment(in_port, priority, token, portinfo)
        else:
            segment = HeaderSegment(
                port=in_port, priority=priority, token=token,
                portinfo=portinfo,
            )
        size = segment.wire_bytes
        if size >= TRUNCATION_SENTINEL:
            return segment, None  # the move's own encode rejects it
        return segment, segment.wire + size.to_bytes(TRAILER_LENGTH_BYTES, "big")

    # -- invalidation hooks (drivers call these) ---------------------------

    def on_topology_change(self, port_id: Optional[int] = None) -> None:
        """A port was attached/re-wired: the cached egresses may be stale."""
        if port_id is None:
            self.flow_cache.flush()
        else:
            self.flow_cache.invalidate_port(port_id)

    def on_congestion_rebind(self) -> None:
        """A congestion signal installed/refreshed a rate limit: cached
        routes may steer into the congested queue — re-resolve."""
        self.flow_cache.flush()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ForwardingPipeline {self.name!r} cache={self.flow_cache!r}>"


def _stripped_block(hop: HopInput) -> int:
    """Wire bytes of the alternate block the strip removes with a slick
    leading segment (ARCHITECTURE §16); 0 for any other segment."""
    block = hop.alternate() if hop.lead[_FLAGS_OFFSET] & _SLICK_BIT else None
    return ALT_COUNT_BYTES + sum(s.wire_size() for s in block) if block else 0


def resolve_dst_mac(segment: HeaderSegment, port_kind: str) -> Optional[Any]:
    """Decode the egress Ethernet destination from a segment's portInfo.

    Pure: returns None off-Ethernet or when the portInfo doesn't parse
    (footnote 4's compressed form — destination + type only — is
    accepted; the attachment supplies the source address at frame time).
    """
    if port_kind != "ethernet":
        return None
    try:
        if len(segment.portinfo) == ETHERNET_INFO_BYTES:
            return EthernetInfo.from_bytes(segment.portinfo).dst
        if len(segment.portinfo) == COMPRESSED_ETHERNET_INFO_BYTES:
            return CompressedEthernetInfo.from_bytes(segment.portinfo).dst
    except DecodeError:
        return None
    return None
