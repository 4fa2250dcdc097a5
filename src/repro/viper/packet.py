"""The Sirpent packet: stacked header segments, payload, return-route trailer.

A packet in flight is::

    [seg_k][seg_k+1]...[seg_N] [payload] [trailer elements ...]

Routers strip the leading segment, reverse its network-specific part,
and append it (plus a 2-byte element length) to the trailer.  The
receiver reconstructs the return route by walking the trailer backwards
(§2: "copies each segment into a separate return address area in
reverse order") — :func:`build_return_route`.

The simulator carries packets *structurally*: sizes come from the wire
codec so timing is byte-exact, but we only serialize at the edges (and
in the codec tests), never per hop.

**Sizes are carried.**  A :class:`HeaderSegment` fixes its encoded size
at construction (``wire_bytes``); the simulator's drivers take a hop's
arrival size from the ``Transmission`` that delivered the packet and
recount (:meth:`SirpentPacket.wire_size`, from the parts — right
whatever edited the lists) once per hop, after the transform.

**Segments are shared, lists are not.**  A route, the packets sent on
it, a flow-cache entry and a trailer may hold the *same* segment
object; a packet owns only its ``segments`` / ``alternates`` /
``trailer`` lists.  Hence the one aliasing rule: never mutate a
``HeaderSegment`` in place — every route edit here replaces list
entries, and :meth:`HeaderSegment.stamped` / ``copy`` build new ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

from repro.sim.ids import PacketIdAllocator
from repro.viper.errors import DecodeError, SegmentLimitError
from repro.viper.wire import (
    ALT_COUNT_BYTES,
    MAX_SEGMENTS,
    HeaderSegment,
    decode_alt_blocks,
    decode_segment,
    encode_alt_blocks,
    encode_segment,
    segment_span,
    slick_count,
)

#: Trailing 2-byte length value reserved for the truncation mark — large
#: enough that no legal encoded segment reaches it, so it is "not a
#: legal Sirpent header segment" as §2 requires.
TRUNCATION_SENTINEL = 0xFFFF

#: Wire size of the truncation mark (just the sentinel).
TRUNCATION_MARK_BYTES = 2

#: Per-trailer-element length suffix.
TRAILER_LENGTH_BYTES = 2


class _TruncationMark:
    """Singleton marker a router appends when it truncated the packet."""

    wire_bytes = TRUNCATION_MARK_BYTES

    def __repr__(self) -> str:
        return "TRUNCATION_MARK"


TRUNCATION_MARK = _TruncationMark()


@dataclass
class TrailerElement:
    """One reversed header segment living in the trailer."""

    segment: HeaderSegment
    #: The segment plus its 2-byte back-length.
    wire_bytes: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.wire_bytes = self.segment.wire_bytes + TRAILER_LENGTH_BYTES


#: Fallback id source for bare construction (unit tests, clones).
#: Engine-owned packets pass ``packet_id=`` explicitly from their
#: simulator's/overlay's own allocator so ids are seed-stable.
_DEFAULT_IDS = PacketIdAllocator()


@dataclass
class SirpentPacket:
    """A Sirpent/VIPER packet as carried by the simulator.

    ``payload`` is opaque to the internetwork (a transport PDU object or
    bytes); only ``payload_size`` affects timing.  Simulation metadata
    (identity, timestamps, the hop log) lives here too because the
    benchmarks need per-packet delay decompositions.
    """

    segments: List[HeaderSegment]
    payload_size: int
    payload: Any = None
    trailer: List[Union[TrailerElement, _TruncationMark]] = field(default_factory=list)
    # -- simulation metadata (not on the wire) --
    packet_id: int = field(default_factory=_DEFAULT_IDS.allocate)
    created_at: float = 0.0
    source: str = ""
    corrupted: bool = False
    hops_taken: int = 0
    hop_log: List[str] = field(default_factory=list)
    #: "Feed forward" load hint (§2.2): number of packets queued behind
    #: this one at its previous router, stamped at transmit start.
    feed_forward_load: int = 0
    #: Observability: 64-bit trace id when this packet was sampled by a
    #: :class:`repro.obs.trace.Tracer`, else 0 ("untraced") — the
    #: one-int guard every instrumented hot path tests first.
    trace_id: int = 0
    #: Slick-Packets failover (ARCHITECTURE §16): one alternate-route
    #: block per slick-flagged segment, in route order, carried on the
    #: wire between the primary route and the payload.
    alternates: List[List[HeaderSegment]] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.payload_size < 0:
            raise ValueError("payload_size must be non-negative")
        if len(self.segments) > MAX_SEGMENTS:
            raise SegmentLimitError(
                f"{len(self.segments)} segments exceed VIPER's {MAX_SEGMENTS}"
            )

    # -- sizes ---------------------------------------------------------------

    def header_size(self) -> int:
        return sum(s.wire_bytes for s in self.segments)

    def alt_size(self) -> int:
        """Wire bytes of the appended alternate blocks (0 when none)."""
        if not self.alternates:
            return 0
        return sum(
            ALT_COUNT_BYTES + sum(s.wire_bytes for s in block)
            for block in self.alternates
        )

    def trailer_size(self) -> int:
        return sum(e.wire_bytes for e in self.trailer)

    def wire_size(self) -> int:
        return (
            self.header_size() + self.alt_size() + self.payload_size
            + self.trailer_size()
        )

    def decision_prefix_bytes(self) -> int:
        """Bytes a router must receive before it can switch the packet.

        The whole first segment: the out-going stream begins with the
        *second* segment, whose first byte arrives right after the first
        segment ends, and the stripped segment is held in the loopback
        register meanwhile (§2.1).
        """
        if not self.segments:
            return self.wire_size()
        return self.segments[0].wire_bytes

    # -- routing algebra ----------------------------------------------------

    @property
    def current_segment(self) -> HeaderSegment:
        if not self.segments:
            raise IndexError("packet has no remaining header segments")
        return self.segments[0]

    @property
    def truncated(self) -> bool:
        return any(e is TRUNCATION_MARK for e in self.trailer)

    def advance(self, return_segment: HeaderSegment) -> HeaderSegment:
        """Strip the leading segment, appending its reverse to the trailer.

        Returns the stripped segment.  This is the router's core move.
        A slick leading segment takes its (leading) alternate block with
        it — an un-taken alternate is dead weight past its hop.
        """
        stripped = self.segments.pop(0)
        if stripped.slick and self.alternates:
            self.alternates.pop(0)
        self.trailer.append(TrailerElement(return_segment))
        self.hops_taken += 1
        return stripped

    def apply_slick_reroute(self, alternate: List[HeaderSegment]) -> None:
        """Replace the remaining route with an alternate block's segments.

        The Slick-Packets local-reroute move: every remaining primary
        segment and every remaining alternate block is discarded — the
        alternate is a complete replacement tail, and the failover DAG
        is depth-1 so the spliced route carries no blocks of its own.
        """
        self.segments[:] = list(alternate)
        self.alternates = []

    def mark_truncated(self, keep_bytes: int) -> None:
        """Record that the payload was cut to ``keep_bytes`` mid-flight."""
        if keep_bytes < 0:
            raise ValueError("keep_bytes must be non-negative")
        self.payload_size = min(self.payload_size, keep_bytes)
        if not self.truncated:
            self.trailer.append(TRUNCATION_MARK)

    def trailer_segments(self) -> List[HeaderSegment]:
        """The reversed segments accumulated so far, in arrival order."""
        return [e.segment for e in self.trailer if isinstance(e, TrailerElement)]

    # -- corruption (no header checksum, §4.1) --------------------------------

    def corrupted_copy(self, rng) -> "SirpentPacket":
        """A bit-error rendition of this packet.

        Sirpent carries no header checksum, so corruption is *delivered*
        rather than dropped: half the time we flip the leading port field
        (possible misrouting), otherwise we poison the payload.  The
        transport layer is responsible for detecting either (§4.1).
        """
        clone = SirpentPacket(
            segments=list(self.segments),
            payload_size=self.payload_size,
            payload=self.payload,
            trailer=list(self.trailer),
            created_at=self.created_at,
            source=self.source,
            hops_taken=self.hops_taken,
            hop_log=list(self.hop_log),
            trace_id=self.trace_id,
            alternates=[list(block) for block in self.alternates],
        )
        clone.corrupted = True
        if clone.segments and rng.random() < 0.5:
            clone.segments[0] = clone.segments[0].copy(port=rng.randrange(0, 256))
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SirpentPacket #{self.packet_id} segs={len(self.segments)} "
            f"payload={self.payload_size}B trailer={len(self.trailer)} "
            f"hops={self.hops_taken}>"
        )


def build_return_route(packet: SirpentPacket) -> List[HeaderSegment]:
    """Construct the return source route from a delivered packet's trailer.

    §2: the receiver "copies each segment into a separate return address
    area in reverse order".  The routers already rewrote each element so
    it is a correct return hop; the receiver's work is purely
    network-independent reversal.  Return segments get the RPF flag.
    """
    reversed_segments = []
    for element in reversed(packet.trailer):
        if element is TRUNCATION_MARK:
            continue
        reversed_segments.append(element.segment.copy(rpf=True))
    return reversed_segments


# -- whole-packet wire codec (used at the edges and in tests) ---------------


def encode_packet(packet: SirpentPacket, payload_bytes: Optional[bytes] = None) -> bytes:
    """Serialize header segments, payload and trailer to one buffer.

    ``payload_bytes`` defaults to zero padding of ``payload_size`` —
    benches only need sizes, but transports may pass real bytes.
    """
    if payload_bytes is None:
        payload_bytes = bytes(packet.payload_size)
    elif len(payload_bytes) != packet.payload_size:
        raise ValueError(
            f"payload is {len(payload_bytes)} bytes but payload_size="
            f"{packet.payload_size}"
        )
    slick_segments = slick_count(packet.segments)
    if len(packet.alternates) != slick_segments:
        raise SegmentLimitError(
            f"{slick_segments} slick segment(s) but "
            f"{len(packet.alternates)} alternate block(s); the wire form "
            "needs exactly one block per slick segment"
        )
    out = bytearray()
    for segment in packet.segments:
        out += encode_segment(segment)
    out += encode_alt_blocks(packet.alternates)
    out += payload_bytes
    for element in packet.trailer:
        if element is TRUNCATION_MARK:
            out += TRUNCATION_SENTINEL.to_bytes(TRAILER_LENGTH_BYTES, "big")
        else:
            encoded = encode_segment(element.segment)
            if len(encoded) >= TRUNCATION_SENTINEL:
                raise SegmentLimitError("trailer element too large to frame")
            out += encoded
            out += len(encoded).to_bytes(TRAILER_LENGTH_BYTES, "big")
    return bytes(out)


def decode_trailer(
    buffer: bytes, end: Optional[int] = None
) -> Tuple[List[Union[TrailerElement, _TruncationMark]], int]:
    """Walk the trailer backwards from ``end``.

    Returns ``(elements_in_original_order, start_offset_of_trailer)``.
    The walk stops when a back-length does not frame a decodable segment
    — that boundary is where the payload ends.
    """
    if end is None:
        end = len(buffer)
    elements: List[Union[TrailerElement, _TruncationMark]] = []
    cursor = end
    while cursor >= TRAILER_LENGTH_BYTES:
        length = int.from_bytes(buffer[cursor - TRAILER_LENGTH_BYTES:cursor], "big")
        if length == TRUNCATION_SENTINEL:
            elements.append(TRUNCATION_MARK)
            cursor -= TRAILER_LENGTH_BYTES
            continue
        start = cursor - TRAILER_LENGTH_BYTES - length
        if length < 4 or start < 0:
            break
        try:
            segment, consumed = decode_segment(buffer, start)
        except DecodeError:
            break
        if consumed != cursor - TRAILER_LENGTH_BYTES:
            break
        elements.append(TrailerElement(segment))
        cursor = start
    elements.reverse()
    return elements, cursor


def trailer_spans(  # sirlint: hot
    buffer, floor: int = 0, end: Optional[int] = None
) -> Tuple[List[Tuple[int, int]], int]:
    """Span twin of :func:`decode_trailer`: where each element sits.

    Walks ``buffer[floor:end]`` backwards with exactly the checks of
    ``decode_trailer(buffer[floor:end])`` — a back-length must frame one
    whole valid segment — but builds no segment.  Returns the
    ``(start, end)`` of every reversed segment **in walk order** (last
    appended first, which is the order of the return route; truncation
    marks have no span) and the offset where the walk stopped: ``floor``
    exactly when the whole region frames.
    """
    if end is None:
        end = len(buffer)
    spans = []  # sirlint: disable=SIR008 -- the result: int pairs, no segments
    cursor = end
    while cursor - floor >= TRAILER_LENGTH_BYTES:
        segment_end = cursor - TRAILER_LENGTH_BYTES
        length = (buffer[segment_end] << 8) | buffer[segment_end + 1]
        if length == TRUNCATION_SENTINEL:
            cursor = segment_end
            continue
        start = segment_end - length
        if length < 4 or start < floor:
            break
        try:
            consumed = segment_span(buffer, start)
        except DecodeError:
            break
        if consumed != segment_end:
            break
        spans.append((start, segment_end))
        cursor = start
    return spans, cursor


def decode_packet(
    buffer: bytes, segment_count: int
) -> Tuple[SirpentPacket, bytes]:
    """Parse a buffer holding ``segment_count`` leading segments.

    Returns the structural packet plus the raw payload bytes.  The
    payload boundary comes from walking the trailer backwards, which is
    how a Sirpent receiver locates "the beginning of the trailer" (§2).
    """
    segments = []
    offset = 0
    for _ in range(segment_count):
        segment, offset = decode_segment(buffer, offset)
        segments.append(segment)
    alternates, offset = decode_alt_blocks(
        buffer, slick_count(segments), offset
    )
    trailer, payload_end = decode_trailer(buffer, len(buffer))
    if payload_end < offset:
        raise DecodeError("trailer overlaps header segments")
    payload_bytes = buffer[offset:payload_end]
    packet = SirpentPacket(
        segments=segments,
        payload_size=len(payload_bytes),
        payload=payload_bytes,
        trailer=trailer,
        alternates=alternates,
    )
    return packet, payload_bytes
