"""One route, one door.

A live host sends along the directory's own
:class:`~repro.directory.routes.Route`, as a simulated host does.  In
process it is handed the route itself; over TCP it gets
``route_from_json(route_to_json(route))``, every segment hex-encoded and
decoded again beside §3's advertised attributes.  Over generated routes
the TCP door must rebuild the same ``Route``, field for field, frame the
same header bytes for any (priority, DIB) and predict the same round
trip at any size.

Neither door re-encodes a segment on its first send: a segment keeps its
encoding (``HeaderSegment.wire``), and one that was decoded keeps the
bytes it was decoded from — sound because the decoder is canonical,
which the last tests pin.
"""

import asyncio
import dataclasses
import json

from hypothesis import given, settings, strategies as st

from benchmarks.e2e.live import line_topology
from repro.directory.routes import Route
from repro.directory.service import RouteQuery
from repro.live import LiveOverlay, as_live_route
from repro.live.directory import route_from_json, route_to_json
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
seconds = st.floats(0, 0.2)


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
    # A zero model (no rate, no distance, no hops) predicts 0 s.
    modelled = draw(st.booleans())
    return Route(
        destination=draw(st.sampled_from(["server", "h2.lcs.mit.edu"])),
        segments=route_segments,
        first_hop_port=draw(st.integers(1, 255)),
        first_hop_mac=draw(st.one_of(st.none(), macs)),
        mtu=draw(st.sampled_from([576, 1500, 9000])),
        bottleneck_bps=draw(st.sampled_from([1e6, 1e9, 10e6 / 3])) if modelled else 0.0,
        propagation_delay=draw(seconds) if modelled else 0.0,
        hop_count=count - 1 if modelled else 0,
        cost=draw(st.floats(0, 1e6)),
        secure=draw(st.booleans()),
        issued_at=draw(st.floats(0, 1e5)),
        alternates=alternates,
    )


@settings(max_examples=150, deadline=None)
@given(route=routes(), priority=st.integers(0, 15), dib=st.booleans())
def test_the_tcp_door_rebuilds_the_same_route(route, priority, dib):
    over_tcp = route_from_json(json.loads(json.dumps(route_to_json(route))))
    assert over_tcp == route
    for field in dataclasses.fields(Route):
        here, there = getattr(route, field.name), getattr(over_tcp, field.name)
        assert here == there and type(here) is type(there), field.name
    assert as_live_route(route) is route
    # Same header on the wire, for the stamp drawn and for the plain one…
    for stamp in ((priority, dib), (0, False)):
        assert over_tcp.wire_header(*stamp) == route.wire_header(*stamp)
    # …which is what encoding every segment afresh produces…
    afresh = encode_route_header(
        [s.copy() for s in route.segments],
        [[s.copy() for s in block] for block in route.alternates],
        priority, dib,
    )
    assert over_tcp.wire_header(priority, dib) == afresh
    assert over_tcp.header_overhead() == len(afresh[0])
    # …and the same model: the round trip a transactor times it by.
    for size in (0, 64, 1024, 16 * 1024):
        assert over_tcp.expected_rtt(size) == route.expected_rtt(size)
    assert over_tcp.max_payload() == route.max_payload()


def test_expected_rtt_is_the_one_way_model_there_and_back():
    """The memo's arithmetic is :meth:`Route.expected_one_way` twice, to
    the last bit, on the benchmark's line and on a rebound route."""
    route = Route(
        "server", [HeaderSegment(port=2, token=bytes(28))] * 3
        + [HeaderSegment(port=5)], 1, None,
        bottleneck_bps=10e6, propagation_delay=4e-5, hop_count=3,
    )
    for request, reply in ((64, 0), (16 * 1024, 64), (0, 1500)):
        assert route.expected_rtt(request, reply) == route.expected_one_way(
            request
        ) + route.expected_one_way(reply or request)
    route.segments = [HeaderSegment(port=5)]
    assert route.expected_rtt(64) == 2 * route.expected_one_way(64)


def test_the_line_benchmarks_route_predicts_what_its_live_route_did():
    """On ``benchmarks/e2e/live.py``'s line, ``expected_rtt(64)`` is the
    one number the live client used to hold for every size
    (``base_rtt_s``), to the last bit: with tokens and without."""

    async def query():
        overlay = LiveOverlay(line_topology())
        await overlay.start()
        try:
            return [
                overlay.directory.query("client", RouteQuery(
                    "server", dest_socket=5, with_tokens=tokened,
                ))[0]
                for tokened in (True, False)
            ]
        finally:
            overlay.stop()

    tokened, plain = asyncio.run(query())
    assert tokened.expected_rtt(64) == 0.0003454
    assert plain.expected_rtt(64) == 0.000211
    # A 16 KiB transaction is timed as one, not as 64 bytes.
    assert tokened.expected_rtt(16 * 1024) == 0.0264574
    # Members stay 1 KiB: the MTU leaves room for more.
    assert (tokened.max_payload(), plain.max_payload()) == (1294, 1462)


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
