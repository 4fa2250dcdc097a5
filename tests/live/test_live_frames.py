"""The live overlay's byte framing, without any sockets.

The live datagram must carry the *byte-exact* VIPER packet behind its
preamble, survive the router's strip/reverse/append performed in place
on those bytes, and reject malformed input with a single exception type
— the same totality contract the wire codec's fuzz suite enforces.
"""

import pytest

from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_PROBE,
    PREAMBLE_BYTES,
    control_nonce,
    decode_live_frame,
    decode_preamble,
    encode_ack,
    encode_live_frame,
    encode_preamble,
    encode_probe,
    hop_move_into,
    return_tail_of,
)
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import SirpentPacket, TrailerElement
from repro.viper.ring import BufferRing
from repro.viper.wire import HeaderSegment, parse_segment_view
from tests.live.oracle import build_return_route, hop_in_place, slot_view


def _packet(payload: bytes) -> SirpentPacket:
    segments = [
        HeaderSegment(port=7, priority=3, token=b"T" * 28, portinfo=b"\x01\x02"),
        HeaderSegment(port=2),
        HeaderSegment(port=1, rpf=True),
    ]
    trailer = [TrailerElement(HeaderSegment(port=9, rpf=True))]
    return SirpentPacket(
        segments=segments,
        payload_size=len(payload),
        payload=payload,
        trailer=trailer,
    )


def test_preamble_roundtrip_golden_bytes():
    raw = encode_preamble(FRAME_DATA, 5, 1234)
    assert raw == bytes.fromhex("564c0200" "05" "04d2")
    assert len(raw) == PREAMBLE_BYTES == 7
    preamble = decode_preamble(raw)
    assert preamble.kind == FRAME_DATA
    assert preamble.seg_count == 5
    assert preamble.payload_len == 1234


@pytest.mark.parametrize("kind,encode", [
    (FRAME_PROBE, encode_probe), (FRAME_ACK, encode_ack),
])
def test_control_frame_roundtrip_golden_bytes(kind, encode):
    """A probe and its ack: the preamble, no segments, one nonce."""
    raw = encode(0x0A0B0C0D)
    assert raw == bytes.fromhex("564c02") + bytes((kind,)) + bytes.fromhex(
        "00" "0004" "0a0b0c0d"
    )
    assert raw == encode_preamble(kind, 0, 4) + bytes.fromhex("0a0b0c0d")
    preamble = decode_preamble(raw)
    assert preamble.kind == kind
    assert control_nonce(raw, preamble) == 0x0A0B0C0D
    with pytest.raises(ValueError):
        encode(1 << 32)


def test_live_frame_roundtrip():
    payload = b"the quick brown fox"
    packet = _packet(payload)
    datagram = encode_live_frame(packet, payload)
    preamble, decoded, decoded_payload = decode_live_frame(datagram)
    assert preamble.seg_count == 3
    assert decoded_payload == payload
    assert decoded.segments == packet.segments
    assert [e.segment for e in decoded.trailer] == [
        e.segment for e in packet.trailer
    ]


def test_leading_segment_view_matches_full_decode():
    """What the router reads to decide — the segment right behind the
    preamble — is the first segment of the full decode."""
    payload = b"x" * 64
    packet = _packet(payload)
    datagram = encode_live_frame(packet, payload)
    preamble = decode_preamble(datagram)
    leading = parse_segment_view(datagram, preamble.header_len)
    assert leading.copy() == packet.segments[0]
    assert preamble.payload_len == len(payload)


def test_hop_move_is_the_router_move():
    payload = b"payload-bytes"
    packet = _packet(payload)
    datagram = encode_live_frame(packet, payload)
    return_hop = HeaderSegment(port=4, priority=3, rpf=True)
    forwarded = hop_in_place(datagram, return_hop)
    preamble, decoded, decoded_payload = decode_live_frame(forwarded)
    # One segment consumed, payload untouched, return hop appended last.
    assert preamble.seg_count == 2
    assert decoded.segments == packet.segments[1:]
    assert decoded_payload == payload
    assert decoded.trailer[-1].segment == return_hop
    # The receiver's reversal yields the hops in return-send order.
    assert build_return_route(decoded)[0].port == 4


def test_hop_move_writes_the_7_byte_preamble():
    payload = b"p"
    datagram = encode_live_frame(_packet(payload), payload)
    forwarded = hop_in_place(datagram, HeaderSegment(port=4))
    assert forwarded[:PREAMBLE_BYTES] == encode_preamble(FRAME_DATA, 2, 1)


@pytest.mark.parametrize(
    "mutant",
    [
        b"",
        b"V",
        b"XX" + b"\x00" * 9,                     # bad magic
        b"VL\x09\x00" + b"\x00" * 7,             # bad version
        b"VL\x02\x07" + b"\x00" * 7,             # unknown kind
        b"VL\x01\x00" + bytes(4) + b"\x00\x00\x00",  # version 1, 11 bytes
        encode_preamble(FRAME_DATA, 2, 0),       # promises 2 segments, has 0
        encode_preamble(FRAME_DATA, 0, 50),      # payload overruns datagram
        encode_preamble(FRAME_DATA, 0, 0) + b"\x01",  # junk trailer
    ],
)
def test_decoder_is_total(mutant):
    with pytest.raises(ViperDecodeError):
        decode_live_frame(mutant)


def test_exhausted_frame_cannot_be_forwarded():
    payload = b"z"
    packet = SirpentPacket(
        segments=[HeaderSegment(port=1)], payload_size=1, payload=payload,
    )
    datagram = encode_live_frame(packet, payload)
    stripped = hop_in_place(datagram, HeaderSegment(port=2))
    view = slot_view(BufferRing(slots=1), stripped)
    with pytest.raises(ViperDecodeError):
        hop_move_into(view, return_tail_of(HeaderSegment(port=3)))
    view.release()
