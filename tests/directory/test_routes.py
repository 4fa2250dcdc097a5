"""A route's advertised attributes predict what a client will see (§3):
delay before sending a packet, and the largest payload that crosses."""

import pytest

from repro.directory.routes import DECISION_DELAY, Route, slickify_route
from repro.viper.packet import TRAILER_LENGTH_BYTES
from repro.viper.wire import HeaderSegment


def make_route(rate=10e6, prop=1e-3, hops=2, mtu=1500):
    return Route(
        destination="server",
        segments=[HeaderSegment(port=1), HeaderSegment(port=2),
                  HeaderSegment(port=9)],
        first_hop_port=1,
        first_hop_mac=None,
        mtu=mtu,
        bottleneck_bps=rate,
        propagation_delay=prop,
        hop_count=hops,
    )


def test_expected_one_way_is_one_transmission_plus_propagation_and_decisions():
    route = make_route()
    size = route.header_overhead() + 1000
    assert route.expected_one_way(1000) == pytest.approx(
        size * 8.0 / 10e6 + 1e-3 + 2 * DECISION_DELAY
    )


def test_expected_one_way_without_an_advertised_rate_is_propagation_and_decisions():
    route = make_route(rate=0.0)
    assert route.expected_one_way(1000) == 1e-3 + 2 * DECISION_DELAY


def test_expected_rtt_sends_a_reply_of_the_request_size_by_default():
    route = make_route()
    assert route.expected_rtt(500) == pytest.approx(
        2 * route.expected_one_way(500)
    )


def test_expected_rtt_uses_the_reply_size_given():
    route = make_route()
    assert route.expected_rtt(64, reply_size=1400) == pytest.approx(
        route.expected_one_way(64) + route.expected_one_way(1400)
    )


def test_max_payload_leaves_room_for_the_header_and_the_mirrored_trailer():
    route = make_route()
    overhead = route.header_overhead()
    assert route.max_payload() == (
        1500 - overhead - (overhead + TRAILER_LENGTH_BYTES * 2)
    )


def test_max_payload_is_zero_when_the_header_cannot_fit_the_mtu():
    assert make_route(mtu=8).max_payload() == 0


def test_slickify_route_flags_only_the_protected_hops():
    segments = [HeaderSegment(port=p) for p in (1, 2, 9)]
    detour = [HeaderSegment(port=5), HeaderSegment(port=9)]
    flagged, blocks = slickify_route(segments, {1: detour})
    assert [s.slick for s in flagged] == [False, True, False]
    assert [s.port for s in flagged] == [1, 2, 9]
    assert blocks == [detour]
    assert blocks[0][0] is not detour[0]
    assert not any(s.slick for s in segments)
