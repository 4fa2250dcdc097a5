"""Property-based tests (hypothesis) for the VIPER codec and algebra.

These check the invariants the design leans on: codec roundtrips for
arbitrary field contents, wire-size arithmetic, the trailer walk, and
the end-to-end return-route reversal property from §2.
"""

from hypothesis import given, settings, strategies as st

from repro.viper.flags import effective_priority, outranks
from repro.viper.packet import (
    SirpentPacket,
    TrailerElement,
    encode_packet,
)
from repro.viper.wire import HeaderSegment, decode_segment, encode_segment
from tests.live.oracle import advance, build_return_route, decode_packet

segments = st.builds(
    HeaderSegment,
    port=st.integers(0, 255),
    priority=st.integers(0, 15),
    vnt=st.booleans(),
    dib=st.booleans(),
    rpf=st.booleans(),
    token=st.binary(max_size=300),
    portinfo=st.binary(max_size=300),
)


@given(segments)
def test_segment_roundtrip(segment):
    encoded = encode_segment(segment)
    decoded, consumed = decode_segment(encoded)
    assert decoded == segment
    assert consumed == len(encoded) == segment.wire_size()


@given(st.lists(segments, min_size=1, max_size=48))
def test_stacked_segments_roundtrip(route):
    buffer = b"".join(encode_segment(s) for s in route)
    offset = 0
    decoded = []
    for _ in route:
        segment, offset = decode_segment(buffer, offset)
        decoded.append(segment)
    assert decoded == route
    assert offset == len(buffer)


@given(segments, st.binary(min_size=1, max_size=64))
def test_segment_decoding_ignores_trailing_bytes(segment, junk):
    encoded = encode_segment(segment)
    decoded, consumed = decode_segment(encoded + junk)
    assert decoded == segment
    assert consumed == len(encoded)


@given(st.integers(0, 15), st.integers(0, 15))
def test_priority_order_total_and_antisymmetric(a, b):
    assert (effective_priority(a) == effective_priority(b)) == (a == b)
    if a != b:
        assert outranks(a, b) != outranks(b, a)


@given(
    st.lists(segments, min_size=1, max_size=8),
    st.lists(segments, min_size=0, max_size=8),
    st.integers(0, 2000),
)
@settings(max_examples=60)
def test_whole_packet_roundtrip(header, trailer_segments, payload_size):
    packet = SirpentPacket(
        segments=list(header),
        payload_size=payload_size,
        trailer=[TrailerElement(s) for s in trailer_segments],
    )
    encoded = encode_packet(packet)
    assert len(encoded) == packet.wire_size()
    decoded, payload = decode_packet(encoded, segment_count=len(header))
    assert decoded.segments == list(header)
    assert len(payload) >= payload_size  # zero payload may absorb a
    # trailer-walk ambiguity only when trailer elements are themselves
    # decodable from payload bytes; with zero-filled payloads the walk
    # is exact:
    if payload_size == len(payload):
        assert [e.segment for e in decoded.trailer
                if isinstance(e, TrailerElement)] == list(trailer_segments)


@given(
    st.lists(st.integers(1, 255), min_size=1, max_size=20),
    st.lists(st.integers(1, 255), min_size=1, max_size=20),
)
@settings(max_examples=100)
def test_return_route_reversal(forward_ports, return_ports)  :
    """Whatever the routers appended, the receiver's return route is the
    exact reverse, with RPF set."""
    n = min(len(forward_ports), len(return_ports))
    packet = SirpentPacket(
        segments=[HeaderSegment(port=p) for p in forward_ports[:n]] + [
            HeaderSegment(port=0)
        ],
        payload_size=10,
    )
    for rp in return_ports[:n]:
        advance(packet, HeaderSegment(port=rp))
    route = build_return_route(packet)
    assert [s.port for s in route] == list(reversed(return_ports[:n]))
    assert all(s.rpf for s in route)


@given(segments)
def test_copy_is_faithful(segment):
    assert segment.copy() == segment
    assert segment.copy(port=(segment.port + 1) % 256) != segment
