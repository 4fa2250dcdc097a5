"""Slick-Packets wire codec: alternate blocks, totality, byte pinning.

Three layers of guarantee (ARCHITECTURE §16):

* the alternate-block codec round-trips and rejects nesting — the
  failover DAG is depth-1 by construction at both encode and decode;
* differential fuzz: mutated slick frames decode *totally* (every
  malformed input raises :class:`~repro.viper.errors.DecodeError`,
  never an IndexError/ValueError/crash), and
  :func:`~repro.viper.wire.alt_block_span` never disagrees with
  :func:`~repro.viper.wire.decode_alt_block` about where a block ends;
* non-slick frames are **byte-identical** to the pre-slick encoding —
  pinned against hard-coded golden bytes, so the flag-gated feature
  provably costs absent traffic nothing on the wire.
"""

import random

import pytest

from repro.viper.errors import DecodeError, SegmentLimitError
from repro.viper.packet import (
    SirpentPacket,
    TrailerElement,
    encode_packet,
)
from repro.viper.wire import (
    ALT_COUNT_BYTES,
    MAX_SEGMENTS,
    HeaderSegment,
    alt_block_span,
    decode_alt_block,
    decode_alt_blocks,
    decode_segment,
    encode_alt_block,
    encode_alt_blocks,
    encode_segment,
    parse_segment_view,
    slick_count,
)
from tests.live.oracle import advance, apply_slick_reroute, decode_packet


def _alt(ports):
    return [HeaderSegment(port=p) for p in ports]


# -- block codec -------------------------------------------------------------


def test_alt_block_roundtrip():
    block = [
        HeaderSegment(port=7, priority=2, token=b"\x01\x02"),
        HeaderSegment(port=9, portinfo=b"\xaa\xbb\xcc"),
        HeaderSegment(port=0),
    ]
    encoded = encode_alt_block(block)
    assert encoded[0] == 3
    decoded, end = decode_alt_block(encoded)
    assert decoded == block
    assert end == len(encoded)
    assert alt_block_span(encoded) == len(encoded)


def test_alt_blocks_roundtrip_in_route_order():
    blocks = [_alt([4, 5]), _alt([6]), _alt([7, 8, 9])]
    encoded = encode_alt_blocks(blocks)
    decoded, end = decode_alt_blocks(encoded, len(blocks))
    assert decoded == blocks
    assert end == len(encoded)


def test_empty_block_rejected_both_directions():
    with pytest.raises(SegmentLimitError):
        encode_alt_block([])
    with pytest.raises(DecodeError):
        decode_alt_block(bytes([0]))


def test_oversized_block_rejected_both_directions():
    too_many = _alt([1] * (MAX_SEGMENTS + 1))
    with pytest.raises(SegmentLimitError):
        encode_alt_block(too_many)
    claim = bytes([MAX_SEGMENTS + 1]) + encode_segment(HeaderSegment(port=1))
    with pytest.raises(DecodeError):
        decode_alt_block(claim)
    with pytest.raises(DecodeError):
        alt_block_span(claim)


def test_nested_slick_rejected_both_directions():
    """The failover DAG is depth-1: no slick inside an alternate."""
    nested = [HeaderSegment(port=3, slick=True)]
    with pytest.raises(SegmentLimitError):
        encode_alt_block(nested)
    # Hand-craft the wire form the encoder refuses to produce.
    raw = bytes([1]) + encode_segment(HeaderSegment(port=3, slick=True))
    with pytest.raises(DecodeError):
        decode_alt_block(raw)
    with pytest.raises(DecodeError):
        alt_block_span(raw)


def test_slick_flag_survives_segment_roundtrip_and_views():
    segment = HeaderSegment(port=12, priority=3, slick=True, token=b"\x9f")
    encoded = encode_segment(segment)
    decoded, _ = decode_segment(encoded)
    assert decoded.slick
    assert decoded == segment
    view = parse_segment_view(encoded)
    assert view.slick
    assert view.to_segment() == segment
    assert segment.copy(priority=1).slick  # copy() carries the flag


def test_slick_count():
    segments = [
        HeaderSegment(port=1, slick=True),
        HeaderSegment(port=2),
        HeaderSegment(port=3, slick=True),
    ]
    assert slick_count(segments) == 2
    assert slick_count([]) == 0


# -- packet layer ------------------------------------------------------------


def _slick_packet():
    return SirpentPacket(
        segments=[
            HeaderSegment(port=2, slick=True),
            HeaderSegment(port=1),
            HeaderSegment(port=0),
        ],
        payload_size=5,
        payload=b"hello",
        alternates=[_alt([3, 1, 0])],
    )


def test_slick_packet_roundtrip():
    packet = _slick_packet()
    wire = encode_packet(packet, b"hello")
    assert len(wire) == packet.wire_size()
    decoded, payload = decode_packet(wire, segment_count=3)
    assert decoded.segments == packet.segments
    assert decoded.alternates == packet.alternates
    assert payload == b"hello"


def test_block_count_must_match_slick_count():
    packet = _slick_packet()
    packet.alternates = []  # slick segment with no block
    with pytest.raises(SegmentLimitError):
        encode_packet(packet)
    packet = _slick_packet()
    packet.segments[0] = packet.segments[0].copy(slick=False)
    with pytest.raises(SegmentLimitError):  # block with no slick segment
        encode_packet(packet)


def test_advance_consumes_leading_alt_block():
    packet = _slick_packet()
    advance(packet, HeaderSegment(port=4, rpf=True))
    assert not packet.alternates
    assert [s.port for s in packet.segments] == [1, 0]


def test_apply_slick_reroute_replaces_route_and_drops_blocks():
    packet = _slick_packet()
    apply_slick_reroute(packet, packet.alternates[0])
    assert [s.port for s in packet.segments] == [3, 1, 0]
    assert packet.alternates == []
    assert not any(s.slick for s in packet.segments)


# -- differential fuzz -------------------------------------------------------


def test_mutated_slick_frames_decode_totally():
    """Any byte mutation either decodes or raises DecodeError — never a
    crash — and span arithmetic always agrees with object decoding."""
    rng = random.Random(0x516C)
    base = encode_packet(_slick_packet())
    header_len = sum(s.wire_size() for s in _slick_packet().segments)
    for trial in range(2000):
        mutated = bytearray(base)
        for _ in range(rng.randint(1, 4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        if rng.random() < 0.3:
            mutated = mutated[:rng.randrange(len(mutated))]
        data = bytes(mutated)
        try:
            decode_packet(data, segment_count=3)
        except DecodeError:
            pass
        # The alt-block walkers must be total over the mutated tail
        # as well, and the arithmetic twin must agree byte-for-byte.
        try:
            _, end = decode_alt_block(data, header_len)
        except DecodeError:
            end = None
        try:
            span = alt_block_span(data, header_len)
        except DecodeError:
            span = None
        assert span == end, (
            f"trial {trial}: alt_block_span={span} but "
            f"decode_alt_block end={end}"
        )


def test_truncated_slick_frames_raise_cleanly():
    wire = encode_packet(_slick_packet())
    for cut in range(len(wire)):
        try:
            decode_packet(wire[:cut], segment_count=3)
        except DecodeError:
            pass


# -- non-slick byte identity (the pre-PR pin) --------------------------------

#: encode_packet() of the packet below, captured BEFORE the slick
#: extension existed.  The slick feature is flag-gated: a route with no
#: slick segments must keep producing these exact bytes forever.
GOLDEN_NON_SLICK = bytes.fromhex(
    "0002028200000000018004000000000000000000000000000001220004"
)


def _golden_packet():
    packet = SirpentPacket(
        segments=[
            HeaderSegment(port=2, priority=2, vnt=True, token=b"\x00\x00"),
            HeaderSegment(port=1, priority=0, vnt=True),
            HeaderSegment(port=0, priority=0, rpf=False, vnt=False,
                          portinfo=b"\x00\x00\x00\x00"),
        ],
        payload_size=5,
        payload=b"hello",
    )
    packet.trailer.append(
        TrailerElement(HeaderSegment(port=1, priority=2, rpf=True))
    )
    return packet


def test_non_slick_encoding_byte_identical_to_pre_slick_pin():
    wire = encode_packet(_golden_packet())
    assert wire == GOLDEN_NON_SLICK, (
        "non-slick wire encoding drifted from the pre-slick golden bytes"
    )


def test_non_slick_segment_encoding_unchanged():
    """Segment-level pin: no slick flag -> flags nibble bit 0 stays 0."""
    segment = HeaderSegment(port=0xAB, priority=3, vnt=True,
                            token=b"\x01\x02", portinfo=b"\x0a\x0b\x0c")
    encoded = encode_segment(segment)
    assert encoded == bytes.fromhex("0302ab830102" + "0a0b0c")
    assert not (encoded[3] >> 4) & 0x1
