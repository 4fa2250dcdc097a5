"""Unit tests for the Sirpent packet and trailer algebra (§2).

The structural algebra (strip, truncation mark, corruption) is the
reference in ``tests/live/oracle.py``; the simulator's own packet is
:class:`~repro.core.packet.FramePacket`, the frame's bytes."""

import random

import pytest

from repro.core.packet import FramePacket
from repro.live.frames import (
    decode_live_frame,
    encode_live_frame,
    encode_route_header,
)
from repro.sim.engine import Simulator
from repro.viper.errors import SegmentLimitError
from repro.viper.packet import (
    SirpentPacket,
    TRUNCATION_MARK,
    TRUNCATION_SENTINEL,
    TrailerElement,
    encode_packet,
)
from repro.viper.wire import HeaderSegment
from tests.live.oracle import (
    advance,
    build_return_route,
    corrupted_copy,
    decode_packet,
    decode_trailer,
    mark_truncated,
    trailer_segments,
)


def make_packet(ports=(1, 2, 0), payload=100):
    segments = [HeaderSegment(port=p) for p in ports]
    return SirpentPacket(segments=segments, payload_size=payload)


def test_wire_size_composition():
    packet = make_packet()
    assert packet.wire_size() == 3 * 4 + 100
    packet.trailer.append(TrailerElement(HeaderSegment(port=9)))
    assert packet.wire_size() == 3 * 4 + 100 + (4 + 2)


def frame_packet(ports=(1, 2, 0), payload=100, tokens=()):
    """The simulator's packet for a route, as a host frames it."""
    segments = [
        HeaderSegment(port=p, token=t) for p, t in
        zip(ports, list(tokens) + [b""] * (len(ports) - len(tokens)))
    ]
    header, seg_count = encode_route_header(segments, (), 0, False)
    return FramePacket(seg_count, payload, header, bytes(payload))


def test_decision_prefix_is_first_segment():
    assert frame_packet().decision_prefix_bytes() == 4
    assert frame_packet(tokens=[b"12345678"]).decision_prefix_bytes() == 12


def test_advance_moves_segment_to_trailer():
    packet = make_packet(ports=(1, 2, 0))
    return_segment = HeaderSegment(port=7)
    stripped = advance(packet, return_segment)
    assert stripped.port == 1
    assert [s.port for s in packet.segments] == [2, 0]
    assert trailer_segments(packet) == [return_segment]


def test_size_preserved_when_return_mirrors_forward():
    """The paper's streaming story: a segment leaves the front, a
    same-size reversed element joins the back (plus framing)."""
    packet = make_packet()
    before = packet.wire_size()
    segment = packet.segments[0]
    advance(packet, segment.copy(port=5))
    assert packet.wire_size() == before + 2  # only the trailer length field


def test_truncation_marks_and_cuts():
    packet = make_packet(payload=1000)
    mark_truncated(packet, keep_bytes=300)
    assert packet.truncated
    assert packet.payload_size == 300
    # Marking again never grows the payload and adds no second mark.
    mark_truncated(packet, keep_bytes=500)
    assert packet.payload_size == 300
    assert sum(1 for e in packet.trailer if e is TRUNCATION_MARK) == 1


def test_return_route_reverses_trailer():
    packet = make_packet(ports=(1, 2, 3, 0))
    for return_port in (11, 12, 13):
        advance(packet, HeaderSegment(port=return_port))
    route = build_return_route(packet)
    assert [s.port for s in route] == [13, 12, 11]
    assert all(s.rpf for s in route)


def test_return_route_skips_truncation_mark():
    packet = make_packet(ports=(1, 0), payload=500)
    advance(packet, HeaderSegment(port=9))
    mark_truncated(packet, keep_bytes=100)
    route = build_return_route(packet)
    assert [s.port for s in route] == [9]


def test_segment_limit():
    with pytest.raises(SegmentLimitError):
        SirpentPacket(
            segments=[HeaderSegment(port=1)] * 49, payload_size=0
        )


def test_negative_payload_rejected():
    with pytest.raises(ValueError):
        SirpentPacket(segments=[], payload_size=-1)


def test_corrupted_copy_flips_a_payload_byte_and_preserves_original():
    rng = random.Random(1)
    packet = frame_packet()
    before = packet.view.tobytes()
    clone = packet.corrupted_copy(rng)
    after = clone.view.tobytes()
    # The payload's middle byte is inverted; nothing else of it moves.
    middle = len(before) - 100 + 50
    assert after[middle] == before[middle] ^ 0xFF
    assert after[middle + 1:] == before[middle + 1:]
    assert clone.view.buffer is not packet.view.buffer
    assert packet.view.tobytes() == before  # original untouched
    assert packet.leading_port() == 1


def test_corrupted_copy_sometimes_misroutes():
    rng = random.Random(7)
    ports = set()
    for _ in range(50):
        clone = frame_packet().corrupted_copy(rng)
        ports.add(clone.leading_port())
    assert len(ports) > 1  # some copies got a flipped port field


def test_corrupted_copy_draws_what_the_structural_copy_draws():
    """The frame's bit error and the structural reference's consume the
    same random numbers and pick the same leading port."""
    frames, structs = random.Random(11), random.Random(11)
    for _ in range(50):
        clone = frame_packet().corrupted_copy(frames)
        reference = corrupted_copy(make_packet(), structs)
        assert clone.leading_port() == reference.segments[0].port
    assert frames.random() == structs.random()


def test_packet_ids_unique():
    sim = Simulator()
    ids = {sim.new_packet_id() for _ in range(100)}
    assert len(ids) == 100


class TestWholePacketCodec:
    def test_roundtrip_with_trailer(self):
        packet = make_packet(ports=(1, 2, 0), payload=64)
        advance(packet, HeaderSegment(port=7, portinfo=bytes(14)))
        advance(packet, HeaderSegment(port=8))
        payload = bytes(range(64))
        encoded = encode_packet(packet, payload)
        decoded, got_payload = decode_packet(encoded, segment_count=1)
        assert got_payload == payload
        assert [s.port for s in decoded.segments] == [0]
        assert [e.segment.port for e in decoded.trailer] == [7, 8]

    def test_roundtrip_with_truncation_mark(self):
        packet = make_packet(ports=(1, 0), payload=200)
        advance(packet, HeaderSegment(port=5))
        mark_truncated(packet, keep_bytes=50)
        encoded = encode_packet(packet)
        decoded, payload = decode_packet(encoded, segment_count=1)
        assert decoded.truncated
        assert len(payload) == 50

    def test_payload_size_mismatch_rejected(self):
        packet = make_packet(payload=10)
        with pytest.raises(ValueError):
            encode_packet(packet, b"wrong length")

    def test_trailer_walk_stops_at_payload(self):
        packet = make_packet(ports=(0,), payload=128)
        packet.trailer.append(TrailerElement(HeaderSegment(port=3)))
        encoded = encode_packet(packet)
        elements, boundary = decode_trailer(encoded)
        assert len(elements) == 1
        assert boundary == 4 + 128  # one segment + payload

    def test_empty_trailer(self):
        packet = make_packet(ports=(0,), payload=16)
        encoded = encode_packet(packet)
        elements, boundary = decode_trailer(encoded)
        assert elements == []
        assert boundary == len(encoded)

    def test_oversized_trailer_element_is_a_segment_limit_error(self):
        """A trailer element's back-length is 16 bits and 0xFFFF is the
        truncation mark, so an element must encode to fewer bytes than
        the sentinel — in the packet body and in a live frame alike."""
        def packet_with(element_bytes):
            # 4 fixed bytes + a 4-byte escaped length + the token.
            returned = HeaderSegment(port=9, token=bytes(element_bytes - 8))
            assert returned.wire_bytes == element_bytes
            return SirpentPacket(
                segments=[HeaderSegment(port=0)], payload_size=3,
                trailer=[TrailerElement(returned)],
            )

        for too_large in (TRUNCATION_SENTINEL, TRUNCATION_SENTINEL + 1):
            packet = packet_with(too_large)
            with pytest.raises(SegmentLimitError):
                encode_packet(packet, b"abc")
            with pytest.raises(SegmentLimitError):
                encode_live_frame(packet, b"abc")
        largest = packet_with(TRUNCATION_SENTINEL - 1)
        _, decoded, payload = decode_live_frame(encode_live_frame(largest, b"abc"))
        assert payload == b"abc"
        assert decoded.trailer == largest.trailer
