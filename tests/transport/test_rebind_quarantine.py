"""Route quarantine and refresh backoff in :class:`RouteManager`.

Regression tests for two failure modes the original round-robin had:
switching straight back onto a route that just died, and silently
retrying the directory forever when it keeps answering empty.
"""

from repro.directory.routes import Route
from repro.transport.rebind import (
    QUARANTINE_MAX_S,
    REFRESH_BACKOFF_MAX_S,
    RouteManager,
    _RouteHealth,
)
from repro.viper.wire import HeaderSegment


class Clock:
    """A settable ``.now`` — RouteManager only reads the attribute."""

    def __init__(self) -> None:
        self.now = 0.0


def quarantined(manager):
    """The manager's routes currently parked behind a cooldown."""
    now = manager.sim.now
    return [
        r for r, h in zip(manager.routes, manager._health)
        if h.quarantined_until > now
    ]


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


def test_failed_route_is_quarantined_not_revisited():
    """Three routes, a dies, b dies: the next switch must land on c —
    never back on a, whose cooldown has not expired."""
    clock = Clock()
    a, b, c = make_route("a"), make_route("b"), make_route("c")
    manager = RouteManager(clock, [a, b, c])
    manager.report_failure()  # a dies -> b
    assert manager.current() is b
    manager.report_failure()  # b dies -> must be c (a is quarantined)
    assert manager.current() is c
    assert quarantined(manager) == [a, b]
    assert manager.quarantines.count == 2


def test_cooldown_expiry_makes_a_route_eligible_again():
    clock = Clock()
    a, b = make_route("a"), make_route("b")
    manager = RouteManager(clock, [a, b])
    manager.report_failure()  # a quarantined until 0.25 -> b
    clock.now = 0.3  # a's cooldown expired: re-probe allowed
    manager.report_failure()  # b dies -> a is eligible again
    assert manager.current() is a
    assert quarantined(manager) == [b]


def test_repeated_failures_grow_the_cooldown_exponentially():
    clock = Clock()
    a, b = make_route("a"), make_route("b")
    manager = RouteManager(clock, [a, b])
    manager.report_failure()  # a: 1st failure, cooldown 0.25
    until_first = manager._health[0].quarantined_until
    clock.now = 0.3
    manager.report_failure()  # b dies -> back to a
    assert manager.current() is a
    manager.report_failure()  # a again: 2nd failure, cooldown 0.5
    until_second = manager._health[0].quarantined_until
    assert until_second - clock.now == 2 * (until_first - 0.0)


def test_all_quarantined_falls_back_to_earliest_expiry():
    clock = Clock()
    a, b = make_route("a"), make_route("b")
    manager = RouteManager(clock, [a, b])
    manager.report_failure()  # a -> b
    manager.report_failure()  # b -> both quarantined; a expires first
    assert manager.current() is a


def test_good_rtt_pardons_the_current_route():
    clock = Clock()
    a, b = make_route("a"), make_route("b")
    manager = RouteManager(clock, [a, b])
    manager.report_failure()  # a quarantined -> b
    manager.report_failure()  # b quarantined -> back to a (fallback)
    assert manager.current() is a
    base = a.expected_rtt(576)
    manager.report_rtt(base)  # a proves itself alive
    assert a not in quarantined(manager)
    assert b in quarantined(manager)


def test_empty_refresh_is_counted_and_backed_off():
    """An empty directory answer increments ``rebind_refresh_empty``
    and blocks re-queries until the backoff expires."""
    clock = Clock()
    calls = []

    def refresher():
        calls.append(clock.now)
        return []

    manager = RouteManager(
        clock, [make_route("only")], refresher=refresher,
    )
    manager.report_failure()  # single route -> refresh -> empty
    assert manager.refresh_empty.count == 1
    assert len(calls) == 1
    manager.report_failure()  # inside the backoff: refresher not hit
    assert len(calls) == 1
    assert manager.refresh_empty.count == 1
    clock.now = 0.3  # backoff expired
    manager.report_failure()
    assert len(calls) == 2
    assert manager.refresh_empty.count == 2


def test_successful_refresh_resets_backoff_and_health():
    clock = Clock()
    fresh = [make_route("fresh1"), make_route("fresh2")]
    answers = [[], fresh]
    calls = []

    def refresher():
        calls.append(clock.now)
        return answers.pop(0)

    manager = RouteManager(
        clock, [make_route("stale")], refresher=refresher,
    )
    manager.report_failure()  # empty answer, backoff armed
    clock.now = 0.5
    manager.report_failure()  # fresh routes adopted
    assert manager.current() is fresh[0]
    assert quarantined(manager) == []
    assert manager._refresh_blocked_until == 0.0


def test_all_quarantined_consults_the_refresher_before_reprobing():
    """When every alternate is dead the manager asks the directory
    *first* — only a useless answer forces a re-probe."""
    clock = Clock()
    fresh = [make_route("fresh1"), make_route("fresh2")]
    manager = RouteManager(
        clock, [make_route("a"), make_route("b")],
        refresher=lambda: fresh,
    )
    manager.report_failure()  # a -> b
    manager.report_failure()  # b -> all quarantined -> refresh
    assert manager.current() is fresh[0]


def test_a_long_empty_refresh_streak_backs_off_at_the_ceiling():
    """The 1,025th empty answer in a row backs off like the 6th: the
    doubling saturates at ``REFRESH_BACKOFF_MAX_S`` instead of
    overflowing the float power (``0.25 * 2.0 ** 1024`` raises)."""
    clock = Clock()
    manager = RouteManager(
        clock, [make_route("only")], refresher=lambda: [],
    )
    manager._refresh_empty_streak = 1024
    manager.report_failure()  # refresh -> 1,025th empty answer
    assert manager.refresh_empty.count == 1
    assert manager._refresh_blocked_until == REFRESH_BACKOFF_MAX_S


def test_a_long_failure_streak_quarantines_at_the_ceiling():
    clock = Clock()
    a, b = make_route("a"), make_route("b")
    manager = RouteManager(clock, [a, b])
    manager._health[0].failures = 2000
    manager.report_failure()
    assert manager._health[0].quarantined_until == QUARANTINE_MAX_S


def test_quarantine_cooldowns_double_from_the_base():
    health = _RouteHealth()
    cooldowns = [health.quarantine(0.0) for _ in range(70)]
    assert cooldowns[:6] == [0.25, 0.5, 1.0, 2.0, 4.0, 8.0]
    assert cooldowns[6:] == [QUARANTINE_MAX_S] * 64
