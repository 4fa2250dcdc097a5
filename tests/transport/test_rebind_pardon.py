"""Rebind pardons: proof-of-life RTTs clear a route's failure record.

A good round trip on a route carrying recorded failures (or an armed
quarantine backoff) is a *pardon* — observable via the
``rebind_pardons`` counter and a ``rebind_pardon`` flight-recorder
event.  Routine good RTTs on a healthy route must stay silent, so the
counter measures actual recoveries, not traffic volume.
"""

from repro.directory.routes import Route
from repro.obs.recorder import FlightRecorder
from repro.transport.rebind import RouteManager
from repro.viper.wire import HeaderSegment


class Clock:
    def __init__(self) -> None:
        self.now = 0.0


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


def good_rtt(route):
    """An RTT comfortably under the degradation threshold."""
    return route.expected_rtt(576) * 0.5


def test_good_rtt_after_failure_pardons_and_records():
    clock = Clock()
    route = make_route("a")
    manager = RouteManager(clock, [route])
    recorder = FlightRecorder(clock=lambda: clock.now)
    manager.recorder = recorder

    manager.report_failure()  # only route: quarantined in place
    assert manager.quarantined() == [route]
    manager.report_rtt(good_rtt(route))

    assert manager.pardons.count == 1
    assert manager.quarantined() == []  # the cooldown was wiped
    pardons = [e for e in recorder.events() if e.name == "rebind_pardon"]
    assert len(pardons) == 1
    assert pardons[0].fields["failures"] == 1


def test_healthy_route_good_rtts_stay_silent():
    clock = Clock()
    route = make_route("a")
    manager = RouteManager(clock, [route])
    recorder = FlightRecorder(clock=lambda: clock.now)
    manager.recorder = recorder

    for _ in range(5):
        manager.report_rtt(good_rtt(route))

    assert manager.pardons.count == 0
    assert not [e for e in recorder.events() if e.name == "rebind_pardon"]


def test_pardon_fires_once_per_recovery_not_per_rtt():
    clock = Clock()
    route = make_route("a")
    manager = RouteManager(clock, [route])

    manager.report_failure()
    manager.report_rtt(good_rtt(route))  # the pardon
    manager.report_rtt(good_rtt(route))  # already healthy: silent
    manager.report_rtt(good_rtt(route))
    assert manager.pardons.count == 1

    manager.report_failure()  # a second incident...
    manager.report_rtt(good_rtt(route))
    assert manager.pardons.count == 2  # ...is a second pardon


def test_pardon_resets_the_quarantine_exponent():
    """After a pardon the next failure starts the backoff from scratch."""
    clock = Clock()
    a, b = make_route("a"), make_route("b")
    manager = RouteManager(clock, [a, b])
    manager.report_failure()          # a: failure #1, cooldown 0.25 -> b
    clock.now = 0.3
    manager.report_failure()          # b dies -> back to a (eligible)
    assert manager.current() is a
    manager.report_rtt(good_rtt(a))   # pardon a: failures wiped
    assert manager.pardons.count == 1
    clock.now = 1.0
    manager.report_failure()          # a again: exponent restarted
    # Cooldown is the base, 0.25s, not its double.
    assert manager._health[0].quarantined_until == 1.25
