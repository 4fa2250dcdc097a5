"""One Sirpent router, sans IO: the §2 hop both substrates run.

Every Sirpent router does one job over §2.2 soft state: it finds the
leading segment of an arriving frame, decides (the
:class:`~repro.dataplane.pipeline.ForwardingPipeline`), strips the
segment, reverses it onto the trailer and forwards the frame — or
delivers it locally, or drops it.  :class:`RouterCore` is that job
exactly once, for the simulator's
:class:`~repro.core.router.SirpentRouter` and the live overlay's
:class:`~repro.live.router.LiveRouter` alike.  It owns:

* the soft state — mint, :class:`~repro.tokens.cache.TokenCache`,
  :class:`~repro.dataplane.flowcache.FlowCache`, the logical and group
  maps and the pipeline over them — with one :meth:`RouterCore.forget`
  (the live router's restart);
* the one :class:`~repro.dataplane.pipeline.PortMap`, with
  :meth:`RouterCore.port_down` / :meth:`RouterCore.port_up` inputs;
* the one hop reader, :class:`FrameHop`, over a frame's bytes;
* the one applier, the second half of :meth:`RouterCore.step`, which
  turns a :class:`~repro.dataplane.effects.Decision` into the in-place move
  (:func:`~repro.live.frames.forward_into` /
  :func:`~repro.live.frames.truncate_into`), a local delivery or a
  drop, through the one :class:`RouterSink`: one counter vocabulary
  (the pipeline's drop reasons, tallied in :attr:`RouterCore.drops`),
  one trace guard and the flight recorder.

An adapter supplies what is not the router's to decide: the counters
object its readers expect, the tracer and recorder (each on its own
clock), and the one link rule — how an arrival's network header
reverses into the return hop's portInfo.  The simulator's adapter keeps simulated timing
(cut-through, delays, output queues, aborts, multicast clones,
congestion); the live adapter keeps sockets, batching and the link's
probe ladder (its dead peers are this core's port-down input).
"""

from __future__ import annotations

from functools import partial
from operator import attrgetter
from typing import Any, Callable, Dict, List, Optional

from repro.dataplane.effects import Action, Decision, EffectSink, apply_drop
from repro.dataplane.flowcache import FlowCache
from repro.dataplane.logical import LogicalPortMap
from repro.dataplane.multicast import GroupPortMap
from repro.dataplane.pipeline import (
    Capabilities,
    ForwardingPipeline,
    PortMap,
    UNKNOWN_IN_PORT,
)
from repro.live.frames import (
    FRAME_DATA,
    PAYLOAD_LEN_OFFSET,
    PREAMBLE_BYTES,
    SEG_COUNT_OFFSET,
    forward_into,
    hop_move_into,
    leading_alt_block,
    truncate_into,
)
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.errors import ViperDecodeError
from repro.viper.wire import HeaderSegment, SegmentView, parse_segment_view, segment_span


def core_attribute(name: str) -> property:
    """A read-only router attribute that is the core's ``name`` (a
    dotted path is followed): what an adapter exposes of the core."""
    return property(attrgetter(f"core.{name}"))


class FrameHop:
    """One arrival as the pipeline reads it (the ``HopInput`` surface)
    and as the move reads its preamble (the ``Preamble`` surface), found
    in the frame's bytes.

    One per router, restamped per frame by :meth:`RouterCore.step`:
    ``lead`` is the leading segment's bytes — the flow cache's own copy
    when the frame repeats the lead its arrival port's flow answered
    with last, else the one copy the walk made (a view into the frame
    ``view`` when the adapter said where the lead ends); ``segment``
    parses them when first asked — which a frame the flow cache answers
    never does — into a view of immutable bytes (a view's copy, which
    then is ``lead`` too), so the pipeline may keep what it is handed
    and a new flow's key is the bytes its segment was parsed from.
    ``trace_id`` is
    the one the frame's own preamble carries (a simulated frame's trace
    id is metadata, never on the wire).
    """

    kind = FRAME_DATA

    __slots__ = (
        "lead", "seg_count", "payload_len", "wire_size", "in_port", "now_ms",
        "view", "header_len", "next_rel", "trace_id", "reverse_portinfo",
        "_parsed", "_parsed_from",
    )

    def __init__(self, link_rule: Callable[["FrameHop"], bytes]) -> None:
        self.now_ms = 0
        self._parsed = self._parsed_from = None
        #: ``reverse_portinfo()``: the adapter's link rule, on this hop.
        self.reverse_portinfo = partial(link_rule, self)

    @property
    def segment(self) -> SegmentView:
        # Memoised on the lead's identity: a walked frame's is a fresh
        # view, replaced here by the copy parsed; a found frame's is the
        # flow entry's immutable bytes.
        if self._parsed_from is not self.lead:
            self.lead = self._parsed_from = lead = bytes(self.lead)
            self._parsed = parse_segment_view(lead)
        return self._parsed

    def alternate(self) -> Optional[List[HeaderSegment]]:
        return leading_alt_block(self.view.mem, self.header_len, self.seg_count)


class RouterSink(EffectSink):
    """The router's counters, trace and flight recorder, per frame.

    ``trace_id`` is the current frame's trace id when it carries one
    *and* a tracer is installed, else 0 — the one tracing guard
    (:meth:`stamp`).  The core tests it before a ``trace_event`` call
    that takes fields, so an untraced frame does not build the kwargs
    either.  ``tracer`` and ``recorder`` are None until the adapter
    installs them; each stamps its events on its own clock.
    ``counters`` is the adapter's stats object: it answers
    ``drop(reason)`` and ``count(event)``.
    """

    __slots__ = (
        "name", "counters", "tracer", "recorder", "trace_id", "drops",
    )

    def __init__(self, name: str, counters: Any) -> None:
        self.name = name
        self.counters = counters
        self.tracer = self.recorder = None
        self.trace_id = 0
        #: Drop reason -> frames this router dropped for it.
        self.drops: Dict[str, int] = {}

    def stamp(self, trace_id: int) -> int:
        """Trace the frame ``trace_id`` names, if a tracer is on."""
        self.trace_id = trace_id if trace_id and self.tracer is not None else 0
        return self.trace_id

    def bump(self, name: str) -> None:
        self.drops[name] = self.drops.get(name, 0) + 1
        self.counters.drop(name)
        self.record("frame_dropped", reason=name, n=1)

    def trace_event(self, event: str, **fields: Any) -> None:
        if self.trace_id:
            self.tracer.event(self.trace_id, self.name, event, **fields)

    def trace_drop(self, reason: str, **fields: Any) -> None:
        if self.trace_id:
            self.tracer.drop(self.trace_id, self.name, reason, **fields)

    def record(self, event: str, **fields: Any) -> None:
        if self.recorder is not None:
            self.recorder.record(event, node=self.name, **fields)


class RouterCore:
    """One Sirpent router's state and per-hop work, with no IO.

    Inputs: a frame (:meth:`step`), port down / up, and the clock the
    adapter stamps on :attr:`hop` (``now_ms``).  Outputs: the decision
    :meth:`step` returns for the adapter to carry out (transmit out
    ``out_port``, hand to the local handler, or clone per branch), and
    every count, trace event and record through :attr:`sink`, built
    over the adapter's ``counters``.
    """

    def __init__(
        self,
        name: str,
        mint_secret: Optional[bytes],
        token_policy: CachePolicy,
        require_tokens: bool,
        verify_cost: float,
        multicast: bool,
        ports: PortMap,
        link_rule: Callable[[FrameHop], bytes],
        counters: Any,
        rng: Any = None,
    ) -> None:
        self.name = name
        # One default secret scheme on both substrates, so a directory
        # minting against the simulator's topology produces tokens the
        # live router verifies.
        self.mint = TokenMint(
            mint_secret if mint_secret is not None else f"secret:{name}".encode(),
            issuer=name,
        )
        self._token_policy = token_policy
        self._require_tokens = require_tokens
        self._verify_cost = verify_cost
        self.ports = ports
        self.logical = LogicalPortMap(rng=rng)
        self.groups = GroupPortMap()
        self.capabilities = Capabilities(multicast=multicast)
        self.hop = FrameHop(link_rule)
        self.sink = RouterSink(name, counters)
        #: Drop reason -> frames dropped: the one vocabulary, the same
        #: on both substrates.
        self.drops = self.sink.drops
        self.forget()

    # -- soft state ---------------------------------------------------------

    def forget(self) -> None:
        """Everything §2.2 lets a router forget, rebuilt empty: the
        token cache, the flow cache, the pipeline over them and the
        link health learned from outside.  Configuration — mint, port
        wiring, logical and group maps — survives."""
        self.token_cache = TokenCache(
            self.mint,
            policy=self._token_policy,
            verify_cost=self._verify_cost,
            require_tokens=self._require_tokens,
        )
        self.flow_cache = FlowCache()
        self.pipeline = ForwardingPipeline(
            self.name,
            token_cache=self.token_cache,
            ports=self.ports,
            logical=self.logical,
            groups=self.groups,
            flow_cache=self.flow_cache,
            capabilities=self.capabilities,
        )
        self.ports.down.clear()

    # -- port inputs --------------------------------------------------------

    def port_down(self, port_id: int) -> None:
        """The link behind ``port_id`` died: the pipeline sees it down
        (a slick frame reroutes in-band) and flows steering into it are
        flushed."""
        if port_id in self.ports.down:
            return
        self.ports.down.add(port_id)
        self.pipeline.on_topology_change(port_id)
        self.sink.record("link_down", port=port_id)

    def port_up(self, port_id: int) -> None:
        """A frame arrived from behind ``port_id``: its link is alive."""
        if port_id in self.ports.down:
            self.ports.down.discard(port_id)
            self.sink.record("link_up", port=port_id)

    # -- one hop ------------------------------------------------------------

    def step(  # sirlint: hot
        self, view, header_len: int, traced: int, in_port: int,
        wire_size: int, next_rel: int = 0,
        grow: Optional[Callable[[], Any]] = None,
    ) -> Optional[Decision]:
        """Read, decide and apply one arrival: the decision the adapter
        carries out (FORWARD: transmit the moved frame out ``out_port``;
        DELIVER_LOCAL: hand it to the local handler, counted — the
        adapter closes its trace; FANOUT: clone it), or None when the
        frame was dropped here (counted and traced).

        ``view`` is the frame (preamble first) and ``header_len`` its
        preamble's length; ``traced`` the trace id it is traced under
        (0: not traced); ``wire_size`` the size the pipeline charges.
        ``next_rel``, when the
        adapter already knows it, is where the leading segment ends;
        otherwise the segment is found here, which is all the
        validation a segment has: bytes equal to the lead the flow
        cache answered with last are that segment, anything else is
        walked.

        A move the buffer has no room for calls ``grow()``, which
        returns the frame's view over a larger buffer (the simulator's
        frames own theirs), and retries; a frame that cannot grow
        (``grow`` None: a live ring slot) would reach the next endpoint
        as an ``oversize`` datagram it drops unacked, so it is dropped
        here with that reason.  Bytes that contradict the decision are
        line noise on a live frame, dropped as ``undecodable``; a
        simulated frame is built from a valid route, so there they are
        a bug and raise.
        """
        sink = self.sink
        sink.trace_id = 0
        buffer, start = view.buffer, view.start
        seg_count = buffer[start + SEG_COUNT_OFFSET]
        if next_rel:
            lead = view.mem[header_len:next_rel]
        elif not seg_count:
            next_rel, lead = header_len, b""  # stage 0 drops it unread
        else:
            # A segment's span is a function of its own bytes, and the
            # lead the arrival port's flow answered with last was walked
            # at install: equal bytes here are that segment, found and
            # validated by the one compare.
            last = self.flow_cache.last
            lead = last[in_port].lead if in_port in last else None
            if lead is not None and buffer.startswith(
                lead, start + header_len, view.end
            ):
                next_rel = header_len + len(lead)
            else:
                mem = view.mem
                try:
                    next_rel = segment_span(mem, header_len)
                except ViperDecodeError:
                    # Line noise / malformed frame: drop and count,
                    # never crash.
                    apply_drop(sink, Decision(Action.DROP, reason="undecodable"))
                    return None
                lead = bytes(mem[header_len:next_rel])  # sirlint: disable=SIR008 -- a walked lead's one copy: the flow cache's key, and the bytes a new flow parses and keeps

        if traced:
            sink.stamp(traced)
        hop = self.hop
        hop.lead = lead
        hop.seg_count = seg_count
        at = start + PAYLOAD_LEN_OFFSET
        hop.payload_len = buffer[at] << 8 | buffer[at + 1]
        hop.wire_size = wire_size
        hop.in_port = in_port
        hop.view = view
        hop.header_len = header_len
        hop.next_rel = next_rel
        hop.trace_id = traced if header_len != PREAMBLE_BYTES else 0
        if self.ports.down:
            self.port_up(in_port)
        decision = self.pipeline.decide(hop)

        # The one applier: the decision becomes a move, a local delivery
        # or a drop.
        action = decision.action
        if action is not Action.FORWARD:
            if action is Action.DROP:
                apply_drop(sink, decision)
                return None
            if action is Action.DELIVER_LOCAL:
                sink.counters.count("delivered_local")
            return decision
        if in_port == UNKNOWN_IN_PORT:
            # A frame from an unwired peer cannot get a correct return
            # hop; refusing it mirrors Sirpent's "routes only work when
            # every hop is reversible".  The decision still ran the
            # token cache.
            apply_drop(sink, Decision(Action.DROP, reason="unknown_peer"))
            return None
        traced = sink.trace_id
        if traced:
            sink.trace_event(
                "switch_decision", in_port=in_port, out_port=decision.out_port,
            )
        # A memoised return tail and no reroute: the decision is the
        # strip itself, moved without the general applier.
        tail = decision.return_tail
        plain = tail is not None and not decision.slick_reroute
        try:
            while not (
                hop_move_into(view, tail, hop, next_rel, decision.splice_tail)
                if plain else forward_into(view, decision, hop, next_rel)
            ):
                if grow is None:
                    apply_drop(sink, Decision(Action.DROP, reason="oversize"))
                    return None
                view = grow()
        except (ValueError, ViperDecodeError):
            # The bytes contradict the decision (a slick flag with no
            # well-formed block behind the route, a return hop too large
            # to frame): corrupt frame.
            if grow is not None:
                raise
            apply_drop(sink, Decision(Action.DROP, reason="undecodable"))
            return None
        if decision.truncate_to:
            # Truncation instead of fragmentation (§2); raises when even
            # an empty payload cannot fit — no route should cross here.
            while not truncate_into(view, decision.truncate_to):
                if grow is None:
                    apply_drop(sink, Decision(Action.DROP, reason="oversize"))
                    return None
                view = grow()
            sink.counters.count("truncated")
        if decision.slick_reroute:
            # Slick-Packets local reroute (ARCHITECTURE §16): the in-band
            # alternate replaced the *entire* remaining route.
            sink.counters.count("slick_reroutes")
            sink.trace_event(
                "slick_reroute", in_port=in_port, out_port=decision.out_port,
            )
            sink.record(
                "slick_reroute", in_port=in_port, out_port=decision.out_port,
            )
        if traced:
            sink.trace_event(
                "strip_reverse_append",
                out_port=decision.out_port,
                segments_left=view.buffer[view.start + SEG_COUNT_OFFSET],
            )
        return decision
