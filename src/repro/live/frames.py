"""Framing for VIPER packets carried in real UDP datagrams.

A packet is the same bytes on a real socket and on the simulator's
links (:class:`repro.core.packet.FramePacket`).  A live datagram is the
byte-exact VIPER packet body
(stacked header segments ++ payload ++ return-route trailer, produced
by the *existing* codec in :mod:`repro.viper.wire` and
:mod:`repro.viper.packet`) behind a 7-byte overlay preamble::

     0        1        2        3
    +--------+--------+--------+--------+
    |  'V'   |  'L'   |version |  kind  |
    +--------+--------+--------+--------+
    |segCount|   payloadLen    |  ...body
    +--------+--------+--------+

* ``kind`` — :data:`FRAME_DATA`, or one of the link's two control
  frames: :data:`FRAME_PROBE` asks a silent neighbour "are you there?"
  and :data:`FRAME_ACK` answers it.  A control frame carries no
  segments and exactly one 32-bit nonce (``payloadLen`` 4), so it is
  exactly 11 bytes (:func:`encode_probe`, :func:`encode_ack`,
  :func:`control_nonce`); the ack echoes the probe's nonce.  Nothing is
  retransmitted at this layer (:mod:`repro.live.link`).
* ``segCount`` — remaining header segments, so a receiver knows the
  segment/payload boundary deterministically (the role Ethernet frame
  typing plays in the paper).
* ``payloadLen`` — bytes of payload between the last segment and the
  first trailer element, making the trailer walk exact rather than
  heuristic.

**Traced frames** (the debug option the observability layer rides on):
when the high bit of ``kind`` is set (:data:`FLAG_TRACED`), an 8-byte
big-endian trace id follows the fixed preamble and the VIPER body
starts at byte 15 instead of 7.  Routers copy the id through on every
hop (:func:`hop_move_into` preserves it), so one 64-bit transport
identifier names the transaction at every node it crosses — the live
analogue of the sim's ``FramePacket.trace_id`` metadata.  A traced
flag with a zero id, or on a control frame, is a decode error; untraced
frames are byte-identical to the pre-tracing wire format.

The preamble is per-UDP-hop overlay plumbing, *not* part of VIPER:
routers rewrite it on every hop (decrementing ``segCount``), exactly as
a link layer would re-frame.  Everything after it is untouched VIPER
bytes.

There is **one** per-hop transform and it works in place on a frame's
view — a ring slot's in the overlay, a packet's own buffer in the
simulator: :func:`forward_into` applies a decision with
:func:`hop_move_into` (or :func:`slick_reroute_into` for the
Slick-Packets splice), and :func:`truncate_into` is the one truncation.
The structural reference they are fuzzed against lives with its tests,
in ``tests/live/oracle.py``.

The host edge (:mod:`repro.dataplane.host`) works on byte spans too:
:func:`encode_route_header` (a route's header, encoded once per route),
:func:`frame_with_header`, :func:`frame_spans`' two walks (an arriving
frame validated by offsets) and :func:`return_route_header` (the
reply's route copied from the trailer spans).  :func:`decode_live_frame`
is that walk materialised and :func:`encode_live_frame` the preamble
plus :func:`~repro.viper.packet.encode_packet`'s body: the structural
pair ``tests/live/test_host_span_differential.py`` checks the span
functions against.
"""

from __future__ import annotations

import struct
from functools import lru_cache
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

from repro.viper.errors import SegmentLimitError, ViperDecodeError
from repro.viper.packet import (
    SirpentPacket,
    TRAILER_LENGTH_BYTES,
    TRUNCATION_SENTINEL,
    encode_packet,
    trailer_elements,
    trailer_spans,
)
from repro.viper.flags import FLAG_DIB, FLAG_SLICK, FLAG_VNT, validate_priority
from repro.viper.wire import (
    ALT_COUNT_BYTES,
    FIXED_SEGMENT_BYTES,
    HeaderSegment,
    MAX_SEGMENTS,
    alt_block_span,
    decode_alt_block,
    decode_alt_blocks,
    decode_route,
    encode_alt_blocks,
    encode_route,
    encode_segment,
    segment_span,
    slick_count,
)

#: Leading magic of every live datagram.
MAGIC = b"VL"

#: Overlay framing version: 2 since the preamble lost its hop sequence
#: number (a version-1 datagram is undecodable, never misread).
VERSION = 2

#: A data frame: preamble + VIPER packet body.
FRAME_DATA = 0

#: The answer to a probe: preamble + the probe's nonce.
FRAME_ACK = 1

#: A liveness probe to a silent peer: preamble + a nonce to echo.
FRAME_PROBE = 2

#: Size of the fixed preamble.
PREAMBLE_BYTES = 7

#: Size of a control frame's nonce, its whole payload.
NONCE_BYTES = 4

#: Byte offsets of the segment-count and payload-length fields.
SEG_COUNT_OFFSET, PAYLOAD_LEN_OFFSET = 4, 5

#: Size of the payload-length field.
PAYLOAD_LEN_BYTES = 2

#: High bit of ``kind``: an 8-byte trace id follows the fixed preamble.
FLAG_TRACED = 0x80

#: Size of the optional trace id field.
TRACE_ID_BYTES = 8

#: Largest representable payload (16-bit length field).
MAX_PAYLOAD_BYTES = 0xFFFF


#: The fixed preamble's wire layout: magic, version, kind, segCount,
#: payloadLen.
_PREAMBLE = struct.Struct(">2sBBBH")

#: A whole control frame: the preamble, then its nonce.
_CONTROL = struct.Struct(">2sBBBHI")

_TRACE_ID = struct.Struct(">Q")

#: A traced data frame's preamble: the fixed fields, then the trace id.
_TRACED_PREAMBLE = struct.Struct(">2sBBBHQ")
#: Joins a frame's parts into one datagram.
_JOIN = b"".join

#: Where a segment's port octet sits (Figure 1: the two length octets
#: come first).
_PORT_OFFSET = 2

#: The trailer's truncation mark as it sits on the wire.
_TRUNCATION_MARK = TRUNCATION_SENTINEL.to_bytes(TRAILER_LENGTH_BYTES, "big")

#: The slick, VNT and DIB flags as they sit in a segment's flags byte.
_SLICK_BIT = FLAG_SLICK << 4
_VNT_BIT = FLAG_VNT << 4
_DIB_BIT = FLAG_DIB << 4


class Preamble(NamedTuple):
    """Decoded overlay preamble of one live datagram.

    Decoded by the receiving endpoint and handed on with the frame's
    view (ARCHITECTURE §14) — **once per peer** while its frames repeat
    the same preamble bytes: every untraced data frame that does shares
    the one record, read and never written.  A tuple because the
    record is built for every other datagram the overlay receives.
    """

    kind: int
    seg_count: int
    payload_len: int
    #: 64-bit trace id carried by the traced-frame option; 0 = untraced.
    trace_id: int = 0

    @property
    def header_len(self) -> int:
        """Bytes before the VIPER body (7, or 15 when traced)."""
        return PREAMBLE_BYTES + (TRACE_ID_BYTES if self.trace_id else 0)


#: Builds a :class:`Preamble` from its four fields, as the named tuple's
#: own ``__new__`` does, without that Python-level call: one per datagram.
_preamble = tuple.__new__


def encode_preamble(
    kind: int, seg_count: int, payload_len: int, trace_id: int = 0
) -> bytes:
    """Serialize the overlay preamble (7 bytes, 15 when ``trace_id``)."""
    if kind not in (FRAME_DATA, FRAME_ACK, FRAME_PROBE):
        raise ValueError(f"unknown frame kind {kind}")
    if not 0 <= seg_count <= MAX_SEGMENTS:
        raise ValueError(f"segment count {seg_count} outside 0..{MAX_SEGMENTS}")
    if not 0 <= payload_len <= MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload length {payload_len} outside 16 bits")
    if not 0 <= trace_id <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"trace id {trace_id} outside 64 bits")
    if trace_id and kind != FRAME_DATA:
        raise ValueError("only data frames carry the traced option")
    wire_kind = kind | (FLAG_TRACED if trace_id else 0)
    out = (
        MAGIC
        + bytes((VERSION, wire_kind, seg_count))
        + payload_len.to_bytes(PAYLOAD_LEN_BYTES, "big")
    )
    if trace_id:
        out += trace_id.to_bytes(TRACE_ID_BYTES, "big")
    return out


def decode_preamble(datagram) -> Preamble:
    """Parse the overlay preamble; total over arbitrary bytes.

    ``datagram`` may be ``bytes``, ``bytearray`` or a ``memoryview``
    bounding a ring slot.  ``tests/live/test_preamble_differential.py``
    holds the field-by-field reference this is fuzzed against.
    """
    if len(datagram) < PREAMBLE_BYTES:
        raise ViperDecodeError(
            f"datagram of {len(datagram)} bytes is shorter than the "
            f"{PREAMBLE_BYTES}-byte preamble"
        )
    magic, version, wire_kind, seg_count, payload_len = (
        _PREAMBLE.unpack_from(datagram)
    )
    if magic != MAGIC:
        raise ViperDecodeError("bad live-frame magic")
    if version != VERSION:
        raise ViperDecodeError(f"unsupported live-frame version {version}")
    kind = wire_kind & ~FLAG_TRACED
    if kind > FRAME_PROBE:
        raise ViperDecodeError(f"unknown live-frame kind {kind}")
    if seg_count > MAX_SEGMENTS:
        raise ViperDecodeError(
            f"segment count {seg_count} exceeds VIPER's {MAX_SEGMENTS}"
        )
    if wire_kind == kind:
        return _preamble(Preamble, (kind, seg_count, payload_len, 0))
    if kind != FRAME_DATA:
        raise ViperDecodeError("traced flag on a non-data frame")
    if len(datagram) < PREAMBLE_BYTES + TRACE_ID_BYTES:
        raise ViperDecodeError("traced frame shorter than its trace id")
    (trace_id,) = _TRACE_ID.unpack_from(datagram, PREAMBLE_BYTES)
    if trace_id == 0:
        raise ViperDecodeError("traced flag with zero trace id")
    return _preamble(Preamble, (kind, seg_count, payload_len, trace_id))


def encode_probe(nonce: int) -> bytes:
    """A liveness probe carrying ``nonce``, which the peer's ack echoes."""
    return _control(FRAME_PROBE, nonce)


def encode_ack(nonce: int) -> bytes:
    """The answer to the probe that carried ``nonce``."""
    return _control(FRAME_ACK, nonce)


def _control(kind: int, nonce: int) -> bytes:
    try:
        return _CONTROL.pack(MAGIC, VERSION, kind, 0, NONCE_BYTES, nonce)
    except struct.error:
        raise ValueError(f"nonce {nonce} outside 32 bits") from None


def control_nonce(datagram, preamble: Preamble) -> int:
    """The nonce of the probe or ack frame ``datagram``.

    ``preamble`` is its decoded preamble.  A control frame is exactly
    its preamble plus one nonce and carries no segments; anything else
    raises :class:`~repro.viper.errors.ViperDecodeError` and must
    release nothing.
    """
    if (
        preamble.seg_count
        or preamble.payload_len != NONCE_BYTES
        or len(datagram) != PREAMBLE_BYTES + NONCE_BYTES
    ):
        raise ViperDecodeError(
            f"malformed control frame: {len(datagram)} bytes, segCount "
            f"{preamble.seg_count}, payloadLen {preamble.payload_len}"
        )
    return _CONTROL.unpack_from(datagram)[5]


# -- whole-frame codec (endpoints) ------------------------------------------


def encode_live_frame(
    packet: SirpentPacket, payload_bytes: bytes, trace_id: int = 0,
) -> bytes:
    """Serialize a structural packet into one live datagram.

    The preamble, then the body :func:`~repro.viper.packet.encode_packet`
    encodes — a live frame *is* a VIPER packet, raising what that
    raises.  ``trace_id`` (or a non-zero ``packet.trace_id``) selects
    the traced debug option.
    """
    if packet.payload_size > MAX_PAYLOAD_BYTES:
        raise ValueError(
            f"payload of {packet.payload_size} bytes exceeds the live "
            f"frame's {MAX_PAYLOAD_BYTES}-byte limit"
        )
    slick_segments = slick_count(packet.segments)
    if len(packet.alternates) != slick_segments:
        raise ValueError(
            f"{slick_segments} slick segment(s) but "
            f"{len(packet.alternates)} alternate block(s); the wire form "
            "needs exactly one block per slick segment"
        )
    return encode_preamble(
        FRAME_DATA, len(packet.segments), packet.payload_size,
        trace_id=trace_id or packet.trace_id,
    ) + encode_packet(packet, payload_bytes)


def decode_live_frame(
    datagram: bytes, preamble: Optional[Preamble] = None,
) -> Tuple[Preamble, SirpentPacket, bytes]:
    """Parse one live datagram into ``(preamble, packet, payload_bytes)``.

    ``preamble`` is the record the receiving endpoint already decoded
    from this datagram (the batch contract carries it); None decodes it
    here.

    :func:`frame_spans`' walk, materialised: the explicit ``segCount``
    and ``payloadLen`` make the walk deterministic, and the trailer
    region after the payload must frame completely.  Total over arbitrary bytes: malformed input
    raises :class:`~repro.viper.errors.ViperDecodeError`.
    """
    if preamble is None:
        preamble = decode_preamble(datagram)
    _, offset, payload_end, spans = frame_spans(datagram, preamble)
    segments, header_end = decode_route(
        datagram, preamble.seg_count, preamble.header_len
    )
    alternates, _ = decode_alt_blocks(
        datagram, slick_count(segments), header_end
    )
    payload_bytes = datagram[offset:payload_end]
    trailer = trailer_elements(datagram, spans, payload_end, len(datagram))
    packet = SirpentPacket(
        segments=segments,
        payload_size=len(payload_bytes),
        payload=payload_bytes,
        trailer=trailer,
        trace_id=preamble.trace_id,
        alternates=alternates,
    )
    return preamble, packet, payload_bytes


# -- the host's edges, on byte spans (repro.dataplane.host) -----------------


def encode_route_header(
    segments: Sequence[HeaderSegment],
    alternates: Sequence[Sequence[HeaderSegment]],
    priority: int = 0,
    dib: bool = False,
) -> Tuple[bytes, int]:
    """``(header bytes, segCount)`` of a frame sent along a route.

    The stacked segments (every one stamped with the send's
    ``priority`` and ``dib``) followed by the alternate blocks (stamped
    with ``priority``): exactly the bytes :func:`encode_live_frame`
    puts between the preamble and the payload, from the same encoders,
    raising what it raises — :class:`ValueError` for a bad priority or
    a slick segment without its block,
    :class:`~repro.viper.errors.SegmentLimitError` past 48 segments.
    A pure function of its arguments, so a route computes it once.
    """
    if len(alternates) != slick_count(segments):
        raise ValueError(
            f"{slick_count(segments)} slick segment(s) but "
            f"{len(alternates)} alternate block(s); the wire form "
            "needs exactly one block per slick segment"
        )
    # The segments' cached encodings, each flags byte stamped in place:
    # priority and DIB on the route, priority on its alternates.
    stamp = validate_priority(priority) | (_DIB_BIT if dib else 0)
    header = bytearray(encode_route(segments) + encode_alt_blocks(alternates))
    at = FIXED_SEGMENT_BYTES - 1
    for s in segments:
        header[at] = header[at] & ~(_DIB_BIT | 0xF) | stamp
        at += s.wire_bytes
    for block in alternates:
        at += ALT_COUNT_BYTES
        for s in block:
            header[at] = header[at] & 0xF0 | priority
            at += s.wire_bytes
    return bytes(header), len(segments)


def return_route_header(
    datagram: bytes,
    spans: Sequence[Tuple[int, int]],
    reply_socket: int,
    priority: int = 0,
    dib: bool = False,
) -> Tuple[bytes, int]:
    """``(header bytes, segCount)`` of a reply to a delivered frame.

    ``spans`` are ``datagram``'s trailer segments in return-route order
    (:func:`~repro.viper.packet.trailer_spans`).  The receiver's §2
    move as a byte move: each reversed segment is copied as it arrived
    with RPF set and the reply's ``priority``/``dib`` stamped in its
    flags byte, and the replying socket's segment closes the route —
    byte for byte what the structural reversal of the trailer (the
    tests' ``build_return_route``) → :func:`encode_live_frame` emits,
    with the same errors (a slick trailer segment has no block
    to travel with; a 49th segment does not fit VIPER).
    """
    # The replying socket's segment closes the route; the flags byte the
    # shared encoder gives it is the stamp of every segment before it.
    closing = _closing_segment(reply_socket, priority, dib)
    stamp = closing[FIXED_SEGMENT_BYTES - 1]
    if len(spans) >= MAX_SEGMENTS:
        raise SegmentLimitError(
            f"{len(spans) + 1} segments exceed VIPER's {MAX_SEGMENTS}"
        )
    out = bytearray()
    for start, end in spans:
        flags_at = len(out) + FIXED_SEGMENT_BYTES - 1
        out += datagram[start:end]
        flags = out[flags_at]
        if flags & _SLICK_BIT:
            raise ValueError(
                "slick segment in the return route but no alternate "
                "block; the wire form needs exactly one block per slick "
                "segment"
            )
        out[flags_at] = (flags & _VNT_BIT) | stamp
    out += closing
    return bytes(out), len(spans) + 1


@lru_cache(maxsize=None)
def _closing_segment(reply_socket: int, priority: int, dib: bool) -> bytes:
    """The replying socket's segment of a return route, encoded once per
    (socket, priority, DIB) — at most 8,192 of them; an invalid one
    raises on every call (a raise is never cached)."""
    return encode_segment(
        HeaderSegment(port=reply_socket, priority=priority, dib=dib, rpf=True)
    )


def frame_with_header(
    header: bytes, seg_count: int, payload: bytes, trace_id: int = 0
) -> bytes:
    """One data frame around an already encoded route header.

    ``preamble ++ header ++ payload``, in one join; ``header``/``seg_count``
    come from :func:`encode_route_header` or :func:`return_route_header`,
    which validated them.  The preamble is :func:`encode_preamble`'s, packed
    directly.  Raises :class:`ValueError` for a payload past the 16-bit
    length field or a trace id past 64 bits.
    """
    payload_len = len(payload)
    if payload_len > MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload length {payload_len} outside 16 bits")
    if not trace_id:
        return _JOIN((
            _PREAMBLE.pack(MAGIC, VERSION, FRAME_DATA, seg_count, payload_len),
            header, payload,
        ))
    if not 0 < trace_id <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"trace id {trace_id} outside 64 bits")
    return _JOIN((
        _PREAMBLE.pack(
            MAGIC, VERSION, FRAME_DATA | FLAG_TRACED, seg_count, payload_len,
        ),
        _TRACE_ID.pack(trace_id), header, payload,
    ))


def frame_spans(
    datagram: bytes, preamble: Preamble
) -> Tuple[Optional[int], int, int, List[Tuple[int, int]]]:
    """Open a data frame by offsets: ``(leading port, payload start,
    payload end, trailer spans)``.

    The leading port — the receiving host's socket — is None when no
    segment is left.

    A data frame's one validating walk: :func:`frame_bounds` (every
    segment, every slick segment's alternate block, the payload bound)
    and :func:`framed_trailer` (a trailer that frames completely),
    raising :class:`~repro.viper.errors.ViperDecodeError` on anything
    else.  Nothing is built beyond the trailer's spans, which come in
    return-route order (:func:`~repro.viper.packet.trailer_spans`);
    :func:`decode_live_frame` materialises what it accepted.
    """
    socket, offset, payload_end = frame_bounds(datagram, preamble)
    return socket, offset, payload_end, framed_trailer(datagram, payload_end)


def frame_bounds(
    datagram: bytes, preamble: Preamble
) -> Tuple[Optional[int], int, int]:
    """The head of :func:`frame_spans`' walk: ``(leading port, payload
    start, payload end)`` of a data frame whose header and payload
    bound are valid; the trailer after ``payload end`` is not read."""
    if preamble.kind != FRAME_DATA:
        raise ViperDecodeError("not a data frame")
    offset = payload_offset(datagram, preamble)
    payload_end = offset + preamble.payload_len
    if payload_end > len(datagram):
        raise ViperDecodeError(
            f"payload of {preamble.payload_len} bytes overruns the "
            f"{len(datagram)}-byte datagram"
        )
    if not preamble.seg_count:
        return None, offset, payload_end
    # The leading segment's port, just past the preamble (header_len, inline).
    lead = PREAMBLE_BYTES + TRACE_ID_BYTES if preamble.trace_id else PREAMBLE_BYTES
    return datagram[lead + _PORT_OFFSET], offset, payload_end


def framed_trailer(buffer, floor: int = 0) -> List[Tuple[int, int]]:
    """The tail of :func:`frame_spans`' walk: the spans of the trailer
    that is all of ``buffer[floor:]``, in return-route order, or
    :class:`~repro.viper.errors.ViperDecodeError` when it does not frame
    completely.  The walk reads nothing before ``floor``, so the
    trailer's own bytes (``floor`` 0) walk to the same spans less
    ``floor``."""
    spans, boundary = trailer_spans(buffer, floor)
    if boundary != floor:
        raise ViperDecodeError(
            f"trailer region does not frame: {boundary - floor} "
            "undecodable leading bytes"
        )
    return spans


def payload_offset(buffer, preamble: Preamble) -> int:  # sirlint: hot
    """Where the payload of the data frame ``buffer`` starts: past every
    segment and every slick segment's alternate block, each walked by
    :func:`~repro.viper.wire.segment_span` /
    :func:`~repro.viper.wire.alt_block_span` (raising
    :class:`~repro.viper.errors.ViperDecodeError` on a malformed one)."""
    offset = preamble.header_len
    blocks = 0
    for _ in range(preamble.seg_count):
        flags_at = offset + FIXED_SEGMENT_BYTES - 1
        offset = segment_span(buffer, offset)
        if buffer[flags_at] & _SLICK_BIT:
            blocks += 1
    for _ in range(blocks):
        offset = alt_block_span(buffer, offset)
    return offset


# -- the router's hop move (in place, on buffer-ring views) -------------------


def leading_alt_block(
    buffer, header_len: int, seg_count: int
) -> Union[List[HeaderSegment], None]:
    """Decode the leading segment's alternate block, *totally*.

    Returns the block's segments, or None when the frame carries no
    block or the bytes are malformed — the pipeline's reroute stage
    treats every failure as "no usable alternate", because a router
    forwarding attacker-controllable bytes must never throw mid-hop.
    The block sits after the *last* primary segment, so the walk spans
    the whole remaining route first.  It is decoded from a copy: its
    tokens are looked up in the token cache, and a view of the frame's
    writable buffer cannot be hashed.
    """
    try:
        offset = header_len
        for _ in range(seg_count):
            offset = segment_span(buffer, offset)
        end = alt_block_span(buffer, offset)
        block, _ = decode_alt_block(bytes(buffer[offset:end]))
        return block
    except ViperDecodeError:
        return None


def encode_preamble_into(
    buffer, offset: int, seg_count: int, payload_len: int, trace_id: int = 0,
) -> int:
    """Write a data-frame preamble into ``buffer`` at ``offset`` in place.

    The allocation-free twin of :func:`encode_preamble` for the hop
    fast path (always ``FRAME_DATA``).  Returns the header length
    written (7, or 15 when traced).
    """
    if not 0 <= seg_count <= MAX_SEGMENTS:
        raise ValueError(f"segment count {seg_count} outside 0..{MAX_SEGMENTS}")
    if not 0 <= payload_len <= MAX_PAYLOAD_BYTES:
        raise ValueError(f"payload length {payload_len} outside 16 bits")
    _PREAMBLE.pack_into(
        buffer, offset, MAGIC, VERSION,
        FRAME_DATA | FLAG_TRACED if trace_id else FRAME_DATA,
        seg_count, payload_len,
    )
    if not trace_id:
        return PREAMBLE_BYTES
    if not 0 < trace_id <= 0xFFFFFFFFFFFFFFFF:
        raise ValueError(f"trace id {trace_id} outside 64 bits")
    _TRACE_ID.pack_into(buffer, offset + PREAMBLE_BYTES, trace_id)
    return PREAMBLE_BYTES + TRACE_ID_BYTES


def return_tail_of(return_segment: HeaderSegment) -> bytes:
    """The trailer tail the hop move appends, encoded once.

    ``encoded return segment ++ 2-byte back-length`` — the span the
    flow cache memoizes (:attr:`repro.dataplane.effects.Decision.
    return_tail`) so the warm path appends bytes it never re-encodes.
    """
    encoded = encode_segment(return_segment)
    if len(encoded) >= TRUNCATION_SENTINEL:
        raise ValueError("return segment too large to frame in the trailer")
    return encoded + len(encoded).to_bytes(TRAILER_LENGTH_BYTES, "big")


def _land(  # sirlint: hot
    view, survivors: int, header_len: int, seg_count: int, payload_len: int,
    trace_id: int, tail: bytes, lead: bytes = b"",
) -> None:
    """The last step of every move: the frame becomes ``preamble ++ lead
    ++ buffer[survivors:view.end] ++ tail``.

    The rewritten preamble (and ``lead``, segments a splice puts first)
    land directly before the surviving bytes, which stay where they are;
    only when that leaves no head-room or the tail-room is short do the
    survivors first slide to the head of the buffer (one overlapping
    copy).  The caller has checked that the outgoing frame fits and
    that ``seg_count`` is in range; the preamble is one ``pack_into``,
    and only the trace id, which a caller may supply, is checked here.
    """
    buffer = view.buffer
    end = view.end
    lead_len = len(lead) if lead else 0
    tail_len = len(tail)
    new_start = survivors - lead_len - header_len
    if new_start < 0 or end + tail_len > len(buffer):
        at = header_len + lead_len
        buffer[at:at + end - survivors] = buffer[survivors:end]
        new_start, end = 0, at + end - survivors
    tail_end = end + tail_len
    if trace_id:
        if not 0 < trace_id <= 0xFFFFFFFFFFFFFFFF:
            raise ValueError(f"trace id {trace_id} outside 64 bits")
        _TRACED_PREAMBLE.pack_into(
            buffer, new_start, MAGIC, VERSION, FRAME_DATA | FLAG_TRACED,
            seg_count, payload_len, trace_id,
        )
    else:
        _PREAMBLE.pack_into(
            buffer, new_start, MAGIC, VERSION, FRAME_DATA, seg_count,
            payload_len,
        )
    if lead_len:
        at = new_start + header_len
        buffer[at:at + lead_len] = lead
    buffer[end:tail_end] = tail
    view.start = new_start
    view.end = tail_end


def hop_move_into(  # sirlint: hot
    view, tail: bytes, preamble: Preamble = None, next_rel: int = None,
    splice: Sequence[HeaderSegment] = (),
) -> bool:
    """The router's core move, **in place** on a frame's view.

    Strips the leading header segment by rewriting the (decremented)
    preamble directly before the surviving bytes — the packet *moves
    forward inside its buffer* instead of being copied — and appends the
    memoized return tail (see :func:`return_tail_of`) into the
    tail-room; when that is too short the stripped frame first slides to
    the head of the buffer.  ``splice`` — the transit segments a logical
    port (§2.2) resolves to beyond its first hop — is written right
    after the new preamble, ahead of the surviving route.  This is the
    only implementation in ``src/``, for the live overlay's ring slots
    and the simulator's packets alike; ``tests/live/oracle.py`` holds
    the structural reference the differential suites pin it against.

    ``preamble``/``next_rel`` (the leading segment's end, relative to
    the view start) skip re-validation when the caller already parsed
    them.  Returns False — view untouched — only when the *outgoing*
    frame is larger than the buffer: a frame every peer's endpoint would
    drop as ``oversize``, so the caller drops it with that reason.
    Raises :class:`ValueError` when a splice would leave more segments
    than a preamble may carry.
    """
    if preamble is None:
        preamble = decode_preamble(view.mem)
    seg_count = preamble.seg_count
    if preamble.kind != FRAME_DATA or seg_count == 0:
        raise ViperDecodeError("cannot forward: no leading segment")
    header_len = preamble.header_len
    if next_rel is None:
        next_rel = segment_span(view.mem, header_len)
    buffer = view.buffer
    start = view.start
    seg_count -= 1
    room = len(buffer) - header_len - len(tail)
    lead = b""
    if splice:
        seg_count += len(splice)
        lead = b"".join([s.wire for s in splice])  # sirlint: disable=SIR008 -- a transit splice's segments (logical port, §2.2), joined once for the one write ahead of the route; an unspliced move joins nothing
        room -= len(lead)
    if buffer[start + header_len + FIXED_SEGMENT_BYTES - 1] & _SLICK_BIT:
        # The stripped segment takes its alternate block with it: the
        # surviving segments slide right over the block (one overlapping
        # move inside the buffer) so the packet stays contiguous.
        mem = view.mem
        header_end = next_rel
        for _ in range(preamble.seg_count - 1):
            header_end = segment_span(mem, header_end)
        block_end = alt_block_span(mem, header_end)
        keep = header_end - next_rel
        survivors = start + block_end - keep
        if view.end - survivors > room:
            return False
        if keep:
            buffer[survivors:survivors + keep] = bytes(mem[next_rel:header_end])  # sirlint: disable=SIR008 -- the surviving segments slide over the stripped alternate block: an overlapping move inside one buffer, which slice assignment copies through a snapshot
    else:
        survivors = start + next_rel
        if view.end - survivors > room:
            return False
    if seg_count > MAX_SEGMENTS:  # a splice raised it
        raise ValueError(f"segment count {seg_count} outside 0..{MAX_SEGMENTS}")
    _land(
        view, survivors, header_len, seg_count, preamble.payload_len,
        preamble.trace_id, tail, lead,
    )
    return True


def slick_reroute_into(view, tail: bytes, preamble: Preamble = None) -> bool:
    """Slick local reroute **in place**: splice the alternate, take its
    first hop, append the return tail.

    The leading segment's alternate block replaces the *entire*
    remaining route — every primary segment and every alternate block is
    dropped, the block's first segment is stripped (it is the hop being
    forwarded right now) and the rest of the block becomes the new
    route.  The surviving alternate segments already sit contiguous in
    the buffer, so the splice is one overlapping move plus a preamble
    rewrite, exactly like the normal hop move — including the slide to
    the buffer's head when the tail-room is short.

    Returns False — view untouched — only when the outgoing frame is
    larger than the buffer (see :func:`hop_move_into`); raises
    :class:`~repro.viper.errors.ViperDecodeError` when the frame carries
    no alternate block to splice.
    """
    mem = view.mem
    if preamble is None:
        preamble = decode_preamble(mem)
    if preamble.kind != FRAME_DATA or preamble.seg_count == 0:
        raise ViperDecodeError("cannot forward: no leading segment")
    header_len = preamble.header_len
    if not mem[header_len + FIXED_SEGMENT_BYTES - 1] & _SLICK_BIT:
        raise ViperDecodeError(
            "cannot reroute: leading segment is not slick"
        )
    # Spans: all primary segments, then every alternate block (there is
    # one per slick primary segment; the leading one supplies the splice).
    header_end = header_len
    blocks = 0
    for _ in range(preamble.seg_count):
        if mem[header_end + FIXED_SEGMENT_BYTES - 1] & _SLICK_BIT:
            blocks += 1
        header_end = segment_span(mem, header_end)
    block_end = alt_block_span(mem, header_end)  # validates the block
    alt_count = mem[header_end]
    alt_first_end = segment_span(mem, header_end + ALT_COUNT_BYTES)
    blocks_end = block_end
    for _ in range(blocks - 1):
        blocks_end = alt_block_span(mem, blocks_end)
    # Keep the block's tail (everything after its first segment) and
    # slide it right against the payload, over the remaining blocks.
    keep = block_end - alt_first_end
    survivors = view.start + blocks_end - keep
    if view.end - survivors + header_len + len(tail) > len(view.buffer):
        return False
    if keep:
        view.buffer[survivors:survivors + keep] = bytes(mem[alt_first_end:block_end])
    # The block's count is validated (at most MAX_SEGMENTS) above.
    _land(
        view, survivors, header_len, alt_count - 1, preamble.payload_len,
        preamble.trace_id, tail,
    )
    return True


def forward_into(  # sirlint: hot
    view, decision, preamble: Preamble, next_rel: int,
) -> bool:
    """Apply a FORWARD :class:`~repro.dataplane.Decision` to a frame, in
    place — the one hop transform both routers run (the router core
    calls :func:`hop_move_into` itself for a decision that carries its
    return tail and is no reroute: all this would do with it).

    The return tail is the decision's memoized one, encoded here when
    the decision carries none (a cold flow, a rebuilt return hop); a
    slick reroute splices the alternate (:func:`slick_reroute_into`),
    anything else is the strip with the decision's splice tail
    (:func:`hop_move_into`).  Returns False — view untouched — when the
    outgoing frame is larger than the buffer.
    """
    tail = decision.return_tail
    if tail is None:
        tail = return_tail_of(decision.return_segment)
    if decision.slick_reroute:
        return slick_reroute_into(view, tail, preamble)
    return hop_move_into(view, tail, preamble, next_rel, decision.splice_tail)


def truncation_marked(frame_len: int, payload_end: int, spans) -> bool:
    """Whether a frame's trailer carries the truncation mark: bytes
    behind ``payload_end`` that its reversed segments' ``spans`` (from
    :func:`frame_spans`, back-lengths included) do not cover."""
    covered = sum(end - start + TRAILER_LENGTH_BYTES for start, end in spans)
    return frame_len - payload_end > covered


def truncate_into(view, mtu: int) -> bool:
    """Truncation instead of fragmentation (§2), **in place**.

    Cuts the payload so the frame's VIPER body — everything after the
    preamble — fits ``mtu`` with the truncation mark appended to the
    trailer ("a special segment ... which is not a legal Sirpent header
    segment"); a frame marked at an earlier hop gets no second mark.
    The trailer slides left over the cut bytes and the preamble's
    ``payloadLen`` is rewritten.  The packet is sized by its bytes —
    segments, alternate blocks and trailer alike.

    Raises :class:`ValueError` when even an empty payload cannot fit —
    the routing service's MTU attribute exists precisely so sources
    never build such packets (§3).  Returns False — view untouched —
    only when the marked frame is larger than the buffer.
    """
    mem = view.mem
    preamble = decode_preamble(mem)
    _, _, payload_end, spans = frame_spans(mem, preamble)
    mark = b"" if truncation_marked(len(mem), payload_end, spans) else (
        _TRUNCATION_MARK
    )
    payload_len = preamble.payload_len
    overhead = len(mem) - preamble.header_len - payload_len + len(mark)
    if overhead > mtu:
        raise ValueError(
            f"packet overhead {overhead}B exceeds MTU {mtu}B — the source "
            "route should never have crossed this hop"
        )
    cut = max(0, payload_len + overhead - mtu)
    if len(mem) - cut + len(mark) > len(view.buffer):
        return False
    if cut:
        at = view.start + payload_end
        view.buffer[at - cut:view.end - cut] = view.buffer[at:view.end]
        view.end -= cut
    _land(
        view, view.start + preamble.header_len, preamble.header_len,
        preamble.seg_count, payload_len - cut, preamble.trace_id, mark,
    )
    return True
