"""The Sirpent packet: stacked header segments, payload, return-route trailer.

A packet in flight is::

    [seg_k][seg_k+1]...[seg_N] [payload] [trailer elements ...]

Routers strip the leading segment, reverse its network-specific part,
and append it (plus a 2-byte element length) to the trailer.  The
receiver reconstructs the return route by walking the trailer backwards
(§2: "copies each segment into a separate return address area in
reverse order").

This module is the *structural* codec: :class:`SirpentPacket` holds the
parts as objects and :func:`encode_packet` turns them into bytes.  The
trailer has one validating walk, :func:`trailer_spans`, which the hosts
run on every arriving frame; :func:`trailer_elements` materialises what
it walked, as the segments and alternate blocks decode through
:mod:`repro.viper.wire`'s walks.

Nothing forwards a ``SirpentPacket`` any more: both substrates carry
each packet as its encoded live frame and move it hop by hop with the
one in-place transform in :mod:`repro.live.frames` — the simulator's
:class:`repro.core.packet.FramePacket` is that frame plus simulation
metadata.  The structural hop algebra (strip, slick splice,
truncation, corruption), the whole-packet decoder and the return-route
reversal live with the tests, as the reference those byte moves are
checked against (``tests/live/oracle.py``).

**Segments are shared, lists are not.**  A route, the packets built
on it, a flow-cache entry and a trailer may hold the *same* segment
object; a packet owns only its ``segments`` / ``alternates`` /
``trailer`` lists.  Hence the one aliasing rule: never mutate a
``HeaderSegment`` in place — :meth:`HeaderSegment.copy` builds a new one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple, Union

from repro.viper.errors import DecodeError, SegmentLimitError
from repro.viper.wire import (
    MAX_SEGMENTS,
    HeaderSegment,
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

    def __repr__(self) -> str:
        return "TRUNCATION_MARK"


TRUNCATION_MARK = _TruncationMark()


@dataclass
class TrailerElement:
    """One reversed header segment living in the trailer."""

    segment: HeaderSegment


@dataclass
class SirpentPacket:
    """A Sirpent/VIPER packet as structures: the codec's view of one.

    ``payload`` is opaque to the internetwork (its bytes, or None for
    ``payload_size`` zeros); only ``payload_size`` is framed.
    """

    segments: List[HeaderSegment]
    payload_size: int
    payload: Any = None
    trailer: List[Union[TrailerElement, _TruncationMark]] = field(default_factory=list)
    #: Observability: 64-bit trace id when this packet was sampled by a
    #: :class:`repro.obs.trace.Tracer`, else 0 ("untraced"); a live
    #: frame carries it in its preamble.
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

    def wire_size(self) -> int:
        """Bytes on the wire: the length of :func:`encode_packet`."""
        return len(encode_packet(self))

    @property
    def truncated(self) -> bool:
        return any(e is TRUNCATION_MARK for e in self.trailer)


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


def trailer_elements(
    buffer, spans: List[Tuple[int, int]], boundary: int, end: int
) -> List[Union[TrailerElement, _TruncationMark]]:
    """The trailer elements of ``buffer[boundary:end]``, in original
    order, from its walk (:func:`trailer_spans`): each span's segment,
    and a truncation mark for every 2 bytes between spans."""
    elements: List[Union[TrailerElement, _TruncationMark]] = []
    cursor = boundary
    for start, segment_end in reversed(spans):
        elements += [TRUNCATION_MARK] * ((start - cursor) // TRAILER_LENGTH_BYTES)
        elements.append(TrailerElement(decode_segment(buffer, start)[0]))
        cursor = segment_end + TRAILER_LENGTH_BYTES
    elements += [TRUNCATION_MARK] * ((end - cursor) // TRAILER_LENGTH_BYTES)
    return elements


def trailer_spans(  # sirlint: hot
    buffer, floor: int = 0, end: Optional[int] = None
) -> Tuple[List[Tuple[int, int]], int]:
    """The trailer's one validating walk: where each element sits.

    Walks ``buffer[floor:end]`` backwards — a back-length must frame one
    whole valid segment (:func:`~repro.viper.wire.segment_span`), the
    truncation sentinel is a 2-byte mark — and builds no segment.
    Returns the ``(start, end)`` of every reversed segment **in walk
    order** (last appended first, which is the order of the return
    route; truncation marks have no span) and the offset where the walk
    stopped: ``floor`` exactly when the whole region frames.
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
