"""The dataplane's effect model: decisions out, IO in the adapters.

The sans-IO :class:`~repro.dataplane.pipeline.ForwardingPipeline`
never touches a socket, a simulated link, a tracer or a stats object.
It returns a :class:`Decision` — what to do with one hop — and the
router core (:class:`~repro.dataplane.router.RouterCore`) applies it:
it moves the frame's bytes (one move for both substrates), bumps the
counters and emits the trace events, leaving the adapter to transmit,
hand over or clone.

Counters and traces are applied through an :class:`EffectSink`; the
core's :class:`~repro.dataplane.router.RouterSink` is the one
implementation.  :func:`apply_drop` is the single drop applicator:
every drop site goes through it, so the drop *counter* and the trace
*reason* can never disagree.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence

from repro.viper.wire import HeaderSegment


class Action(enum.Enum):
    """What the pipeline decided to do with one hop."""

    FORWARD = "forward"
    DELIVER_LOCAL = "local"
    DROP = "drop"
    FANOUT = "fanout"


@dataclass(slots=True)
class Decision:
    """Outcome of the forwarding pipeline for one hop.

    A decision is *descriptive*: nothing has happened yet.  The router
    core applies it — strips/splices/truncates the frame's bytes and
    feeds the effect sink — and its adapter transmits.  It is also
    *shared*: a flow's decision is built once, by its first packet, and
    the flow cache hands that same object to that packet and to every
    later one that leaves whole, so a decision is read and never
    written to.  Whether the cache answered is the cache's to say
    (:attr:`~repro.dataplane.flowcache.FlowCache.stats`), not the
    decision's.

    Fields by action:

    * ``DROP`` — ``reason`` names both the drop counter and the trace
      reason; ``drop_fields`` carries extra trace fields (``port=...``),
      None when there are none.
    * ``DELIVER_LOCAL`` — nothing else.
    * ``FANOUT`` — ``branches`` holds, per copy, the segment list that
      replaces the leading segment; the sim adapter clones the packet per
      branch and runs each clone through the pipeline again.
    * ``FORWARD`` — ``out_port`` is the physical egress;
      ``effective`` is the segment whose priority/DIB/portInfo govern
      the egress submit; ``return_segment`` is the reversed hop to
      append to the trailer; ``splice_tail`` holds transit segments to
      insert after the strip; ``truncate_to`` is the MTU to cut to
      (0 = fits); ``token_delay`` is verification latency the packet
      must absorb (blocking token policy); ``dst_mac`` is the resolved
      Ethernet destination (None off-Ethernet).
    """

    action: Action
    reason: str = ""
    drop_fields: Optional[Dict[str, Any]] = None
    out_port: int = -1
    effective: Optional[HeaderSegment] = None
    return_segment: Optional[HeaderSegment] = None
    #: Wire span of the return hop — ``encode_segment(return_segment)
    #: ++ 2-byte back-length`` — encoded once, when the decision is
    #: built, so every packet of the flow appends bytes nobody
    #: re-encodes (None when the return hop is too large to frame, and
    #: when the warm arm rebuilt it for fresh arrival portInfo; the core
    #: then encodes once itself).
    return_tail: Optional[bytes] = None
    splice_tail: Sequence[HeaderSegment] = ()
    dst_mac: Optional[Any] = None
    truncate_to: int = 0
    token_delay: float = 0.0
    branches: Sequence[List[HeaderSegment]] = ()
    #: True (tree multicast) = each branch is the clone's *entire*
    #: remaining route; False (group/broadcast) = each branch replaces
    #: only the leading segment and the rest of the route is kept.
    fanout_replaces_route: bool = False
    #: True when this FORWARD is a Slick-Packets local reroute
    #: (ARCHITECTURE §16): the move must replace the *entire*
    #: remaining route with ``effective`` + ``splice_tail`` and discard
    #: every alternate block, instead of performing the normal strip.
    slick_reroute: bool = False


class EffectSink:
    """Applicator for drop counters and trace events.

    A sink defines ``bump(name)``, which counts a drop under its reason
    ("no_route", "token_reject", ...: the pipeline's vocabulary), and
    ``trace_event(event, **fields)`` / ``trace_drop(reason, **fields)``,
    which emit a mid-hop or a drop trace event and are no-ops when the
    packet is untraced or tracing is disabled — the sink owns that
    guard, in exactly one place.
    """


def apply_drop(sink: EffectSink, decision: Decision) -> None:
    """THE drop applicator: counter and trace reason, always in sync."""
    sink.bump(decision.reason)
    sink.trace_drop(decision.reason, **(decision.drop_fields or {}))
