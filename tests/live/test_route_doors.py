"""One route, two doors.

A directory :class:`~repro.directory.routes.Route` reaches a live host
either over TCP — ``route_from_json(route_to_json(route))``, every
segment hex-encoded and decoded again — or in process, through
``as_live_route(route)``, which hands the host the route's own segments.
The TCP door is the reference: over generated routes the in-process door
must build the same :class:`LiveRoute`, field for field, and frame the
same header bytes for any (priority, DIB).

Neither door re-encodes a segment on its first send: a segment keeps its
encoding (``HeaderSegment.wire``), and one that was decoded keeps the
bytes it was decoded from — sound because the decoder is canonical,
which the last tests pin.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.directory.routes import Route
from repro.live import as_live_route
from repro.live.directory import DEFAULT_BASE_RTT_S, route_from_json, route_to_json
from repro.live.frames import encode_route_header
from repro.net.addresses import MacAddress
from repro.viper.errors import DecodeError
from repro.viper.portinfo import CompressedEthernetInfo, EthernetInfo
from repro.viper.wire import (
    MAX_SEGMENTS,
    HeaderSegment,
    decode_segment,
    encode_segment,
)

macs = st.integers(1, (1 << 48) - 1).map(MacAddress)
portinfos = st.one_of(
    st.just((True, b"")),                                   # VNT: void
    st.builds(
        lambda dst, src: (False, EthernetInfo(dst, src, 0x88B5).to_bytes()),
        macs, macs,
    ),
    st.builds(
        lambda dst: (False, CompressedEthernetInfo(dst, 0x88B5).to_bytes()), macs
    ),
)
tokens = st.one_of(st.just(b""), st.binary(min_size=28, max_size=28))


@st.composite
def segments(draw, slick=False):
    vnt, portinfo = draw(portinfos)
    return HeaderSegment(
        port=draw(st.integers(0, 255)), priority=draw(st.integers(0, 15)),
        vnt=vnt, dib=draw(st.booleans()), rpf=draw(st.booleans()),
        token=draw(tokens), portinfo=portinfo, slick=slick,
    )


@st.composite
def routes(draw):
    count = draw(st.one_of(st.integers(1, 6), st.integers(1, MAX_SEGMENTS)))
    slick_at = draw(st.sets(st.integers(0, count - 1), max_size=3))
    route_segments = [
        draw(segments(slick=index in slick_at)) for index in range(count)
    ]
    alternates = [
        draw(st.lists(segments(), min_size=1, max_size=3)) for _ in slick_at
    ]
    # A zero model (no rate, no distance, no hops) exercises the floor.
    modelled = draw(st.booleans())
    return Route(
        destination=draw(st.sampled_from(["server", "h2.lcs.mit.edu"])),
        segments=route_segments,
        first_hop_port=draw(st.integers(1, 255)),
        first_hop_mac=None,
        mtu=draw(st.sampled_from([576, 1500, 9000])),
        bottleneck_bps=draw(st.sampled_from([1e6, 1e9])) if modelled else 0.0,
        propagation_delay=draw(st.floats(0, 0.2)) if modelled else 0.0,
        hop_count=count - 1 if modelled else 0,
        alternates=alternates,
    )


FIELDS = (
    "destination", "segments", "first_hop_port", "base_rtt_s", "hop_count",
    "mtu", "rtt_floor_applied", "alternates",
)


@settings(max_examples=150, deadline=None)
@given(route=routes(), priority=st.integers(0, 15), dib=st.booleans())
def test_both_doors_build_the_same_live_route(route, priority, dib):
    over_tcp = route_from_json(json.loads(json.dumps(route_to_json(route))))
    in_process = as_live_route(route)
    assert in_process == over_tcp
    for name in FIELDS:
        here, there = getattr(in_process, name), getattr(over_tcp, name)
        assert here == there and type(here) is type(there), name
    measured = route.expected_rtt(64)
    assert in_process.rtt_floor_applied == (measured <= 0.0)
    assert in_process.base_rtt_s == (measured or DEFAULT_BASE_RTT_S)
    # Same header on the wire, for the stamp drawn and for the plain one…
    for stamp in ((priority, dib), (0, False)):
        assert in_process.wire_header(*stamp) == over_tcp.wire_header(*stamp)
    # …which is what encoding every segment afresh produces.
    afresh = encode_route_header(
        [s.copy() for s in route.segments],
        [[s.copy() for s in block] for block in route.alternates],
        priority, dib,
    )
    assert in_process.wire_header(priority, dib) == afresh


@settings(max_examples=300)
@given(data=st.binary(max_size=80), offset=st.integers(0, 8))
def test_a_decoded_segment_keeps_the_bytes_it_came_from(data, offset):
    try:
        segment, end = decode_segment(data, offset)
    except DecodeError:
        return
    # Canonical: what was accepted re-encodes to exactly itself.
    assert segment.wire == data[offset:end] == encode_segment(segment)


@settings(max_examples=200)
@given(segment=segments(), priority=st.integers(0, 15))
def test_a_changed_copy_encodes_afresh(segment, priority):
    decoded, _ = decode_segment(b"\0" + segment.wire + b"tail", 1)
    assert decoded == segment and decoded.wire == segment.wire
    changed = decoded.copy(priority=priority, token=b"")
    assert changed._wire is None
    assert changed.wire == encode_segment(changed)
    assert decode_segment(changed.wire)[0] == changed
