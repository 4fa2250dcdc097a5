"""Unit tests for client-side route rebinding (§6.3)."""

import pytest

from repro.directory.routes import Route
from repro.sim.engine import Simulator
from repro.transport.rebind import NoRouteError, RouteManager
from repro.viper.wire import HeaderSegment


def make_route(tag, prop=1e-3, rate=10e6):
    return Route(
        destination=f"dst-{tag}",
        segments=[HeaderSegment(port=1), HeaderSegment(port=0)],
        first_hop_port=1,
        first_hop_mac=None,
        bottleneck_bps=rate,
        propagation_delay=prop,
        hop_count=1,
    )


def test_requires_at_least_one_route():
    sim = Simulator()
    with pytest.raises(NoRouteError):
        RouteManager(sim, [])


def test_failure_switches_to_next_route():
    sim = Simulator()
    a, b, c = make_route("a"), make_route("b"), make_route("c")
    manager = RouteManager(sim, [a, b, c])
    assert manager.current() is a
    assert manager.report_failure() is b
    assert manager.report_failure() is c
    assert manager.report_failure() is a  # wraps around
    assert manager.failures.count == 3


def test_good_rtt_keeps_route():
    sim = Simulator()
    route = make_route("a")
    manager = RouteManager(sim, [route, make_route("b")])
    base = route.expected_rtt(576)
    for _ in range(20):
        manager.report_rtt(base * 1.1)
    assert manager.current() is route
    assert manager.switches.count == 0


def test_sustained_degradation_switches():
    sim = Simulator()
    route = make_route("a")
    alt = make_route("b")
    manager = RouteManager(sim, [route, alt], degradation_samples=4)
    base = route.expected_rtt(576)
    for _ in range(4):
        manager.report_rtt(base * 10)
    assert manager.current() is alt
    assert manager.switches.count == 1
    assert manager.last_switch_at == sim.now


def test_single_spike_does_not_switch():
    sim = Simulator()
    route = make_route("a")
    manager = RouteManager(sim, [route, make_route("b")],
                           degradation_samples=4)
    base = route.expected_rtt(576)
    for _ in range(3):
        manager.report_rtt(base * 10)
    manager.report_rtt(base)  # recovery resets patience
    for _ in range(3):
        manager.report_rtt(base * 10)
    assert manager.current() is route


def test_backpressure_resets_degradation_counter():
    sim = Simulator()
    route = make_route("a")
    manager = RouteManager(sim, [route, make_route("b")],
                           degradation_samples=2)
    base = route.expected_rtt(576)
    manager.report_rtt(base * 10)
    manager.report_backpressure()  # congestion explains the slowness
    manager.report_rtt(base * 10)
    assert manager.current() is route


def test_single_route_failure_uses_refresher():
    sim = Simulator()
    fresh = [make_route("fresh")]
    manager = RouteManager(
        sim, [make_route("stale")], refresher=lambda: fresh,
    )
    manager.report_failure()
    assert manager.current() is fresh[0]


def test_adopt_advisory_replaces_routes():
    sim = Simulator()
    manager = RouteManager(sim, [make_route("old")])
    advisory = [make_route("new1"), make_route("new2")]
    manager.adopt(advisory)
    assert manager.current() is advisory[0]
    assert manager.alternates() == [advisory[1]]
    manager.adopt([])  # empty advisories are ignored
    assert manager.current() is advisory[0]


def test_rtt_samples_recorded():
    sim = Simulator()
    manager = RouteManager(sim, [make_route("a")])
    manager.report_rtt(1e-3)
    manager.report_rtt(2e-3)
    assert manager.rtt_samples.count == 2
