"""Byte-exact codec for the VIPER header segment of Figure 1.

Layout (16-bit rows, big-endian)::

     0                   1
     0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |PortInfoLength |PortTokenLength|
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |     Port      | Flags |Priori.|
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |           PortToken ...       |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
    |           PortInfo  ...       |
    +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+

Both length fields describe variable fields in octets; the value 255 is
an escape meaning "the true length is in the first 32 bits of the
field itself" (§5).  The smallest segment is therefore 32 bits.  The
fixed part leads so cut-through hardware sees the variable-field
lengths as early as possible — the paper calls this out explicitly and
our router model charges its decision time from the moment these four
bytes have arrived.

Each structure has one validating walk, the one the forwarding path
runs on every frame: :func:`parse_segment_view` for a segment
(:func:`segment_span` is its object-free form, sharing the escape walk
:func:`_field_data_span`) and :func:`alt_block_span` for an alternate
block.  The structural decoders materialise what those walks accepted:
:func:`decode_segment` is :func:`parse_segment_view` plus
:meth:`SegmentView.to_segment`, :func:`decode_alt_block` is
:func:`alt_block_span` plus a decode of the segments it bounded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.viper.errors import DecodeError, SegmentLimitError
from repro.viper.flags import (
    FLAG_SLICK,
    pack_flags_priority,
    unpack_flags_priority,
    validate_priority,
)

#: Size of the fixed leading fields: the two length octets + port + flags.
FIXED_SEGMENT_BYTES = 4

#: Escape value for the one-octet length fields.
LENGTH_ESCAPE = 255

#: Bytes of the inline 32-bit extended length.
EXTENDED_LENGTH_BYTES = 4

#: Where the port octet sits in an encoded segment: it leads the
#: variable fields so the switching decision can start on it (§2.1).
PORT_OFFSET = 2

#: VIPER reserves port 0 to mean "local" (§5).
LOCAL_PORT = 0

#: Maximum port value — larger fan-out switches are built hierarchically.
MAX_PORT = 255

#: §2.3 sizes routes at "a maximum of 48 header segments".
MAX_SEGMENTS = 48

#: §5: "The VIPER transmission unit is 1500 bytes".
VIPER_MTU = 1500


@dataclass
class HeaderSegment:
    """One hop's worth of routing information.

    ``token`` and ``portinfo`` are raw octet strings; their
    interpretation (HMAC capability, Ethernet header, logical-hop label)
    belongs to the layer that knows the port's type.

    A segment is a value — routes and packets share it, and its size
    and its encoding are computed once: change one with :meth:`copy`,
    never by assignment.
    """

    port: int
    priority: int = 0
    vnt: bool = False
    dib: bool = False
    rpf: bool = False
    token: bytes = b""
    portinfo: bytes = b""
    #: Slick-Packets failover: an alternate-route block for this hop is
    #: appended after the primary route (ARCHITECTURE §16).
    slick: bool = False
    #: Exact encoded size, ``len(encode_segment(self))``.
    wire_bytes: int = field(init=False, repr=False, compare=False)
    _wire: Optional[bytes] = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if not 0 <= self.port <= MAX_PORT:
            raise ValueError(f"port {self.port} outside 0..{MAX_PORT}")
        validate_priority(self.priority)
        self.wire_bytes = segment_wire_size(len(self.token), len(self.portinfo))

    def wire_size(self) -> int:
        return self.wire_bytes

    @property
    def wire(self) -> bytes:
        """The Figure-1 encoding, built on first use and kept: a route's
        segments are encoded once however many packets share them (the
        flow cache is keyed on these bytes)."""
        wire = self._wire
        if wire is None:
            wire = self._wire = encode_segment(self)
        return wire

    def copy(self, **overrides) -> "HeaderSegment":
        values = dict(
            port=self.port, priority=self.priority, vnt=self.vnt,
            dib=self.dib, rpf=self.rpf, token=self.token,
            portinfo=self.portinfo, slick=self.slick,
        )
        values.update(overrides)
        return HeaderSegment(**values)


def flagless_segment(
    port: int, priority: int, token: bytes, portinfo: bytes,
) -> HeaderSegment:
    """``HeaderSegment(port, priority, token=token, portinfo=portinfo)``,
    encoded, for fields the caller has already checked: ``port`` in
    0..255, ``priority`` a 4-bit nibble, and ``token`` and ``portinfo``
    each shorter than the length escape — a router's return hop, whose
    port was wired as 1..255 and whose priority was read off the wire.
    Built without the constructor's checks, and its Figure-1 encoding
    (no flag set, no extended length) written out here."""
    token_len, portinfo_len = len(token), len(portinfo)
    segment = object.__new__(HeaderSegment)
    segment.port = port
    segment.priority = priority
    segment.vnt = segment.dib = segment.rpf = False
    segment.token = token
    segment.portinfo = portinfo
    segment.slick = False
    segment._wire = bytes((portinfo_len, token_len, port, priority)) + token + portinfo
    segment.wire_bytes = FIXED_SEGMENT_BYTES + token_len + portinfo_len
    return segment


def _field_overhead(length: int) -> int:
    """Wire bytes to carry a variable field of ``length`` octets."""
    if length < 0:
        raise ValueError("negative field length")
    if length >= LENGTH_ESCAPE:
        return EXTENDED_LENGTH_BYTES + length
    return length


def segment_wire_size(token_len: int, portinfo_len: int) -> int:
    """Exact encoded size of a segment with the given field lengths."""
    return (
        FIXED_SEGMENT_BYTES
        + _field_overhead(token_len)
        + _field_overhead(portinfo_len)
    )


def _encode_length(length: int) -> int:
    """The one-octet length field value for a variable field."""
    return LENGTH_ESCAPE if length >= LENGTH_ESCAPE else length


def _encode_field(data: bytes) -> bytes:
    """Encode a variable field body, prefixing the 32-bit extension."""
    if len(data) >= LENGTH_ESCAPE:
        return len(data).to_bytes(EXTENDED_LENGTH_BYTES, "big") + data
    return data


def encode_segment(segment: HeaderSegment) -> bytes:
    """Serialize a header segment per Figure 1."""
    token, portinfo = segment.token, segment.portinfo
    fixed = bytes((
        _encode_length(len(portinfo)), _encode_length(len(token)),
        segment.port,
        pack_flags_priority(
            segment.vnt, segment.dib, segment.rpf, segment.priority,
            slick=segment.slick,
        ),
    ))
    return fixed + _encode_field(token) + _encode_field(portinfo)


#: Mask of the defined flag bits in the flags nibble.  All four bits are
#: now defined (VNT | DIB | RPF | SLICK); the decoder still rejects any
#: bit outside this mask so that every accepted segment re-encodes to
#: exactly the bytes consumed, should the nibble ever shrink again.
_DEFINED_FLAGS_MASK = 0x8 | 0x4 | 0x2 | 0x1


def segment_span(buffer, offset: int = 0) -> int:  # sirlint: hot
    """Offset just past the segment at ``offset`` — no segment object.

    The zero-copy hop fast path uses this to find the strip boundary
    without decoding (and later re-encoding) bytes it forwards
    untouched.  It validates what :func:`parse_segment_view` validates
    — truncation, reserved flag bits, length-escape canonicality — and
    its escape branch is the same field walk, :func:`_field_data_span`:
    it raises :class:`~repro.viper.errors.DecodeError` on every buffer
    that walk rejects and ends where it ends.
    """
    if offset < 0:
        raise DecodeError(f"negative segment offset {offset}")
    size = len(buffer)
    if offset + FIXED_SEGMENT_BYTES > size:
        raise DecodeError("buffer too short for fixed segment fields")
    portinfo_len = buffer[offset]
    token_len = buffer[offset + 1]
    flag_byte = buffer[offset + 3]
    if (flag_byte >> 4) & ~_DEFINED_FLAGS_MASK:
        raise DecodeError(
            f"reserved flag bit set in flags byte {flag_byte:#04x}"
        )
    offset += FIXED_SEGMENT_BYTES
    if portinfo_len != LENGTH_ESCAPE and token_len != LENGTH_ESCAPE:
        # No length escape (every segment the overlay mints): the span
        # is arithmetic, and fitting the buffer is all there is to check.
        end = offset + token_len + portinfo_len
        if end > size:
            raise DecodeError(
                f"truncated segment: need {end} bytes, buffer has {size}"
            )
        return end
    _, offset = _field_data_span(buffer, offset, token_len, "portToken")
    return _field_data_span(buffer, offset, portinfo_len, "portInfo")[1]


def _field_data_span(
    buffer, offset: int, length_octet: int, what: str
) -> Tuple[int, int]:
    """``(data_start, data_end)`` of a variable field, materialising
    nothing: the one walk of a field's 255 length escape (§5)."""
    if length_octet == LENGTH_ESCAPE:
        if offset + EXTENDED_LENGTH_BYTES > len(buffer):
            raise DecodeError(f"truncated extended length for {what}")
        true_length = int.from_bytes(
            buffer[offset:offset + EXTENDED_LENGTH_BYTES], "big"
        )
        if true_length < LENGTH_ESCAPE:
            # The escape is only legal when the field genuinely needs it;
            # accepting the short form would make the decoder accept
            # bytes it cannot re-encode (decode∘encode must be identity).
            raise DecodeError(
                f"non-canonical extended length {true_length} for {what}"
            )
        offset += EXTENDED_LENGTH_BYTES
    else:
        true_length = length_octet
    if offset + true_length > len(buffer):
        raise DecodeError(
            f"truncated {what}: need {true_length} bytes at offset {offset}, "
            f"buffer has {len(buffer)}"
        )
    return offset, offset + true_length


class SegmentView:
    """A parsed header segment that still lives in its buffer.

    The fixed fields (port, flags, priority) are decoded eagerly — they
    are four integer reads — but ``token`` and ``portinfo`` stay as
    offsets until someone asks, at which point the bytes are
    materialised once and cached (the flow-cache key needs hashable
    bytes; everything else on the warm path does not touch them).

    Duck-types with :class:`HeaderSegment` for everything the
    forwarding pipeline reads: ``port``, ``priority``, ``vnt``,
    ``dib``, ``rpf``, ``token``, ``portinfo``, ``wire_size()`` and
    ``copy()`` (which materialises into a real ``HeaderSegment``).
    """

    __slots__ = (
        "buffer", "start", "end", "port", "priority", "vnt", "dib", "rpf",
        "slick",
        "_token_start", "_token_end", "_info_start", "_info_end",
        "_token", "_portinfo",
    )

    def __init__(
        self, buffer, start: int, end: int,
        port: int, priority: int, vnt: bool, dib: bool, rpf: bool,
        token_start: int, token_end: int, info_start: int, info_end: int,
        slick: bool = False,
    ) -> None:
        self.buffer = buffer
        self.start = start
        self.end = end
        self.port = port
        self.priority = priority
        self.vnt = vnt
        self.dib = dib
        self.rpf = rpf
        self.slick = slick
        self._token_start = token_start
        self._token_end = token_end
        self._info_start = info_start
        self._info_end = info_end
        self._token = None
        self._portinfo = None

    @property
    def token(self) -> bytes:
        """The portToken bytes, materialised on first touch."""
        token = self._token
        if token is None:
            token = bytes(self.buffer[self._token_start:self._token_end])
            self._token = token
        return token

    @property
    def portinfo(self) -> bytes:
        """The portInfo bytes, materialised on first touch."""
        info = self._portinfo
        if info is None:
            info = bytes(self.buffer[self._info_start:self._info_end])
            self._portinfo = info
        return info

    def wire_size(self) -> int:  # sirlint: hot
        return self.end - self.start

    def to_segment(self) -> HeaderSegment:
        """Materialise into the structural :class:`HeaderSegment`."""
        return HeaderSegment(
            port=self.port, priority=self.priority, vnt=self.vnt,
            dib=self.dib, rpf=self.rpf, token=self.token,
            portinfo=self.portinfo, slick=self.slick,
        )

    def copy(self, **overrides) -> HeaderSegment:
        """A mutated structural copy (slow path: multicast expansion)."""
        return self.to_segment().copy(**overrides)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SegmentView port={self.port} prio={self.priority} "
            f"[{self.start}:{self.end}]>"
        )


def parse_segment_view(buffer, offset: int = 0) -> SegmentView:  # sirlint: hot
    """Parse one segment into a :class:`SegmentView` — no field copies.

    The segment's one validating walk (truncation, reserved flag bits,
    length-escape canonicality): :class:`DecodeError` on anything
    else.  :func:`decode_segment` is this walk plus materialisation.
    ``buffer`` may be ``bytes``, ``bytearray`` or a ``memoryview``
    bounding a ring slot.
    """
    if offset < 0:
        raise DecodeError(f"negative segment offset {offset}")
    if offset + FIXED_SEGMENT_BYTES > len(buffer):
        raise DecodeError("buffer too short for fixed segment fields")
    portinfo_len = buffer[offset]
    token_len = buffer[offset + 1]
    port = buffer[offset + 2]
    flag_byte = buffer[offset + 3]
    if (flag_byte >> 4) & ~_DEFINED_FLAGS_MASK:
        raise DecodeError(
            f"reserved flag bit set in flags byte {flag_byte:#04x}"
        )
    vnt, dib, rpf, slick, priority = unpack_flags_priority(flag_byte)
    token_start = offset + FIXED_SEGMENT_BYTES
    if portinfo_len != LENGTH_ESCAPE and token_len != LENGTH_ESCAPE:
        # No length escape (every segment the overlay mints): the fields
        # sit at arithmetic offsets, and fitting the buffer is all there
        # is to check — :func:`segment_span`'s arm.
        token_end = info_start = token_start + token_len
        info_end = info_start + portinfo_len
        if info_end > len(buffer):
            raise DecodeError(
                f"truncated segment: need {info_end} bytes, "
                f"buffer has {len(buffer)}"
            )
    else:
        token_start, token_end = _field_data_span(
            buffer, token_start, token_len, "portToken"
        )
        info_start, info_end = _field_data_span(
            buffer, token_end, portinfo_len, "portInfo"
        )
    return SegmentView(
        buffer, offset, info_end,
        port, priority, vnt, dib, rpf,
        token_start, token_end, info_start, info_end,
        slick,
    )


def decode_segment(buffer, offset: int = 0) -> Tuple[HeaderSegment, int]:
    """Parse one header segment; returns ``(segment, next_offset)``.

    :func:`parse_segment_view`'s walk, materialised: total over
    arbitrary bytes, any malformed, truncated, reserved-bit or
    non-canonical input raises :class:`~repro.viper.errors.DecodeError`
    (a.k.a. ``ViperDecodeError``) — never an assertion or index error.
    """
    view = parse_segment_view(buffer, offset)
    segment = view.to_segment()
    # The walk is canonical — accepted bytes re-encode to themselves —
    # so the bytes consumed are the segment's encoding: kept.
    segment._wire = bytes(buffer[offset:view.end])
    return segment, view.end


class PacketView:
    """A zero-copy window onto one packet inside a (ring) buffer.

    ``start``/``end`` delimit the packet inside ``buffer``; the bytes
    before ``start`` are head-room (consumed by in-place strips that
    rewrite a shorter header further in) and the bytes after ``end``
    are tail-room (consumed by in-place trailer appends).  All offsets
    are absolute into ``buffer``.

    When backed by a :class:`~repro.viper.ring.RingSlot` the view
    snapshots the slot's generation, which the slot bumps the moment
    it is released, so an escaped view is detectable instead of
    silently reading recycled bytes.  Ownership rule: the
    holder of the view owns the slot and must :meth:`release` it (or
    hand it off) exactly once.
    """

    __slots__ = ("buffer", "start", "end", "slot", "generation", "_base")

    def __init__(self, buffer, start: int = 0, end: Optional[int] = None,
                 slot=None) -> None:
        self.buffer = buffer
        self.start = start
        self.end = len(buffer) if end is None else end
        self.slot = slot
        self.generation = slot.generation if slot is not None else 0
        self._base = slot.view if slot is not None else memoryview(buffer)

    @classmethod
    def of_slot(cls, slot, length: int) -> "PacketView":  # sirlint: hot
        """A view over the first ``length`` bytes of a ring slot."""
        return cls(slot.buffer, 0, length, slot=slot)

    def release(self) -> None:
        """Return the backing slot to its ring (no-op when unbacked)."""
        slot = self.slot
        if slot is not None:
            slot.ring.release(slot)

    @property
    def mem(self) -> memoryview:  # sirlint: hot
        """A memoryview of exactly the packet bytes."""
        return self._base[self.start:self.end]

    def tobytes(self) -> bytes:
        """Materialise the packet (the slow-path escape hatch)."""
        return bytes(self._base[self.start:self.end])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        backing = "unbacked" if self.slot is None else repr(self.slot)
        return f"<PacketView [{self.start}:{self.end}] over {backing}>"


def encode_route(segments) -> bytes:
    """Serialize a whole source route (the stacked header segments)."""
    if len(segments) > MAX_SEGMENTS:
        raise SegmentLimitError(
            f"route of {len(segments)} segments exceeds VIPER's "
            f"{MAX_SEGMENTS}-segment maximum"
        )
    return b"".join([s.wire for s in segments])


def decode_route(buffer: bytes, count: int, offset: int = 0):
    """Parse ``count`` stacked segments; returns ``(segments, next_offset)``."""
    segments = []
    for _ in range(count):
        segment, offset = decode_segment(buffer, offset)
        segments.append(segment)
    return segments, offset


# -- Slick-Packets alternate-route blocks (ARCHITECTURE §16) -----------------
#
# A route whose segments carry ``FLAG_SLICK`` is followed on the wire by
# one *alternate block* per slick-flagged segment, in route order,
# appended immediately after the primary route::
#
#     [seg_0 .. seg_{n-1}] [altblock for 1st slick seg] [altblock ...]
#
# Each block is one count octet followed by that many ordinary header
# segments — a complete replacement for the *remaining* route, spliced
# in by the router whose egress for the slick hop is dead.  Alternate
# segments may not themselves be slick (the DAG is depth-1: a failed
# failover falls back to the end-to-end rebind path, it does not
# recurse), which the decoder enforces so totality cannot be defeated
# by nesting.

#: Size of an alternate block's leading count octet.
ALT_COUNT_BYTES = 1


def slick_count(segments) -> int:
    """How many segments of a route carry the slick flag — and therefore
    how many alternate blocks follow the route on the wire."""
    return sum(1 for s in segments if s.slick)


def encode_alt_block(segments) -> bytes:
    """Serialize one alternate block (count octet + stacked segments)."""
    if not segments:
        raise SegmentLimitError(
            "an alternate block needs at least one segment"
        )
    if len(segments) > MAX_SEGMENTS:
        raise SegmentLimitError(
            f"alternate block of {len(segments)} segments exceeds VIPER's "
            f"{MAX_SEGMENTS}-segment maximum"
        )
    for segment in segments:
        if segment.slick:
            raise SegmentLimitError(
                "alternate segments may not themselves be slick "
                "(the failover DAG is depth-1)"
            )
    return bytes((len(segments),)) + b"".join([s.wire for s in segments])


def alt_block_span(buffer, offset: int = 0) -> int:  # sirlint: hot
    """Offset just past the alternate block at ``offset`` — no objects.

    The block's one validating walk: truncated, oversized, empty or
    nested-slick blocks raise :class:`~repro.viper.errors.DecodeError`
    — never an assertion or index error.
    """
    if offset < 0:
        raise DecodeError(f"negative alternate-block offset {offset}")
    if offset + ALT_COUNT_BYTES > len(buffer):
        raise DecodeError("buffer too short for alternate-block count")
    count = buffer[offset]
    if count == 0:
        raise DecodeError("alternate block with zero segments")
    if count > MAX_SEGMENTS:
        raise DecodeError(
            f"alternate block claims {count} segments, exceeding the "
            f"{MAX_SEGMENTS}-segment maximum"
        )
    offset += ALT_COUNT_BYTES
    for _ in range(count):
        flag_at = offset + FIXED_SEGMENT_BYTES - 1
        if flag_at >= len(buffer):
            raise DecodeError("buffer too short for fixed segment fields")
        if (buffer[flag_at] >> 4) & FLAG_SLICK:
            raise DecodeError(
                "slick flag inside an alternate block (the failover DAG "
                "is depth-1)"
            )
        offset = segment_span(buffer, offset)
    return offset


def decode_alt_block(buffer, offset: int = 0):
    """Parse one alternate block; returns ``(segments, next_offset)``:
    :func:`alt_block_span`'s walk, then its segments decoded."""
    end = alt_block_span(buffer, offset)
    segments, _ = decode_route(buffer, buffer[offset], offset + ALT_COUNT_BYTES)
    return segments, end


def encode_alt_blocks(alternates) -> bytes:
    """Serialize a route's alternate blocks, in route order."""
    out = bytearray()
    for block in alternates:
        out += encode_alt_block(block)
    return bytes(out)


def decode_alt_blocks(buffer, count: int, offset: int = 0):
    """Parse ``count`` stacked alternate blocks; returns
    ``(blocks, next_offset)``."""
    blocks = []
    for _ in range(count):
        block, offset = decode_alt_block(buffer, offset)
        blocks.append(block)
    return blocks, offset
