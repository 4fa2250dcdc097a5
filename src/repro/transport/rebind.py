"""Client-side route management and rebinding (§6.3, §2.2).

"Clients can request multiple routes (rather than a single route) to
the desired host or service, and switch between these routes based on
the performance of the different routes.  Because the client knows the
base round trip time for the route, measures the actual round trip time
as part of reliable communication, and receives feedback from the
rate-based congestion control mechanism, … it is able to quickly detect
and react to congestion and link failures."

:class:`RouteManager` holds the cached alternates, tracks measured RTT
against each route's advertised base RTT, and switches on explicit
failure or sustained degradation.  It can refresh its route set from
the directory ("periodically requesting route advisories").

Failed routes are *quarantined*: each failure parks the route behind an
exponentially growing cooldown, and rotation only considers routes
whose cooldown has expired.  Without this, a round-robin rotation walks
straight back onto a dead route one switch later and burns a full
retransmission ladder re-discovering the same failure.  When every
route is quarantined the manager first asks the directory for fresh
routes, then — if the directory has nothing — re-probes the route whose
cooldown expires soonest (sending *somewhere* beats refusing to send).
A good RTT sample on a quarantined route clears its record.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.directory.routes import Route
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter


class NoRouteError(Exception):
    """All cached routes have been exhausted."""


#: Sustained RTT above this multiple of the route's advertised base
#: RTT counts as degradation.
DEGRADATION_FACTOR = 3.0

#: A failed route's first quarantine cooldown; each further failure
#: doubles it, up to the ceiling.
QUARANTINE_BASE_S = 0.25
QUARANTINE_MAX_S = 10.0

#: Backoff after the directory answers a refresh with no routes:
#: doubling from the base, up to the ceiling.
REFRESH_BACKOFF_BASE_S = 0.25
REFRESH_BACKOFF_MAX_S = 5.0


def capped_backoff(attempt: int, base_s: float, max_s: float) -> float:
    """``base_s`` doubled per attempt after the first, at most ``max_s``.

    The exponent stops at 64: the delay has saturated long before, and
    a streak of 1,025 failures must not overflow the float power.
    """
    return min(max_s, base_s * 2.0 ** min(attempt - 1, 64))


class _RouteHealth:
    """Per-route failure record behind the quarantine policy."""

    __slots__ = ("failures", "quarantined_until")

    def __init__(self) -> None:
        self.failures = 0
        self.quarantined_until = 0.0

    def quarantine(self, now: float) -> float:
        """Record one failure; return the cooldown imposed."""
        self.failures += 1
        cooldown = capped_backoff(
            self.failures, QUARANTINE_BASE_S, QUARANTINE_MAX_S
        )
        self.quarantined_until = now + cooldown
        return cooldown

    def clear(self) -> None:
        self.failures = 0
        self.quarantined_until = 0.0


class RouteManager:
    """Holds alternates for one destination; picks and rebinds."""

    def __init__(
        self,
        sim: Simulator,
        routes: List[Route],
        degradation_samples: int = 4,
        refresher: Optional[Callable[[], List[Route]]] = None,
    ) -> None:
        if not routes:
            raise NoRouteError("route manager needs at least one route")
        self.sim = sim
        self.routes = list(routes)
        self.degradation_samples = degradation_samples
        self.refresher = refresher
        self._current = 0
        self._consecutive_slow = 0
        self._health = [_RouteHealth() for _ in routes]
        self._refresh_empty_streak = 0
        self._refresh_blocked_until = 0.0
        self.switches = Counter("route_switches")
        self.failures = Counter("route_failures")
        self.quarantines = Counter("route_quarantines")
        self.refresh_empty = Counter("rebind_refresh_empty")
        self.pardons = Counter("rebind_pardons")
        self.last_switch_at: Optional[float] = None
        #: Flight recorder (repro.obs); None = not recording.
        self.recorder = None

    # -- selection ---------------------------------------------------------

    def current(self) -> Route:
        return self.routes[self._current]

    # -- feedback ------------------------------------------------------------

    def report_rtt(self, rtt: float, payload_size: int = 576) -> None:
        """Measured round trip; sustained degradation triggers a switch.

        The comparison baseline is the route's *advertised* expected RTT
        (§3: the client can compute it before sending anything).
        """
        base = self.current().expected_rtt(payload_size)
        if base > 0 and rtt > base * DEGRADATION_FACTOR:
            self._consecutive_slow += 1
            if self._consecutive_slow >= self.degradation_samples:
                self._switch(reason="degraded")
        else:
            self._consecutive_slow = 0
            # A good round trip is proof of life: pardon the route.
            health = self._health[self._current]
            if health.failures or health.quarantined_until:
                # Only an *actual* pardon — wiping recorded failures or
                # an armed quarantine backoff — is observable; routine
                # good RTTs on a healthy route stay silent.
                self.pardons.add()
                if self.recorder is not None:
                    self.recorder.record(
                        "rebind_pardon",
                        route=self._current,
                        failures=health.failures,
                    )
                health.clear()

    def report_failure(self) -> Route:
        """Explicit loss (retransmissions exhausted): quarantine the
        failed route and switch to an eligible alternate."""
        self.failures.add()
        self.quarantines.add()
        self._health[self._current].quarantine(self.sim.now)
        self._switch(reason="failure")
        return self.current()

    def report_backpressure(self) -> None:
        """Rate signals alone do not switch routes, but they reset the
        degradation counter's patience — congestion has an explanation."""
        self._consecutive_slow = 0

    # -- rebinding -------------------------------------------------------------

    def _eligible(self) -> List[int]:
        """Indices whose quarantine cooldown has expired, excluding the
        current route (a switch must move *somewhere else*)."""
        now = self.sim.now
        return [
            i for i, h in enumerate(self._health)
            if i != self._current and h.quarantined_until <= now
        ]

    def _switch(self, reason: str) -> None:
        self._consecutive_slow = 0
        self.switches.add()
        self.last_switch_at = self.sim.now
        eligible = self._eligible()
        if not eligible and self.refresher is not None:
            # Every alternate is quarantined: ask the directory before
            # re-probing a route we just watched die.
            before = self.routes
            self.refresh()
            if self.routes is not before:
                return  # fresh set adopted; its first route is current
            eligible = self._eligible()
        if eligible:
            # Next eligible route in cyclic order after the current one.
            n = len(self.routes)
            self._current = min(
                eligible, key=lambda i: (i - self._current - 1) % n
            )
            return
        if len(self.routes) > 1:
            # All quarantined and the directory had nothing: re-probe
            # whichever cooldown expires soonest (oldest failure wins
            # ties — it has had the longest to recover).
            self._current = min(
                (i for i in range(len(self.routes)) if i != self._current),
                key=lambda i: (self._health[i].quarantined_until, i),
            )

    def refresh(self) -> None:
        """Re-query the directory for a fresh route set.

        An empty answer is *not* silently survivable: it is counted
        (``rebind_refresh_empty``) and imposes an exponentially growing
        backoff before the directory is asked again, so an outage does
        not turn every route switch into a directory query.
        """
        if self.refresher is None:
            return
        now = self.sim.now
        if now < self._refresh_blocked_until:
            return
        fresh = self.refresher()
        if fresh:
            self._install(fresh)
            self._refresh_empty_streak = 0
            self._refresh_blocked_until = 0.0
            return
        self.refresh_empty.add()
        self._refresh_empty_streak += 1
        self._refresh_blocked_until = now + capped_backoff(
            self._refresh_empty_streak,
            REFRESH_BACKOFF_BASE_S, REFRESH_BACKOFF_MAX_S,
        )

    def adopt(self, routes: List[Route]) -> None:
        """Accept a pushed route advisory (§6.3)."""
        if routes:
            self._install(routes)

    def _install(self, routes: List[Route]) -> None:
        self.routes = list(routes)
        self._health = [_RouteHealth() for _ in self.routes]
        self._current = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<RouteManager {len(self.routes)} routes, current={self._current}, "
            f"switches={self.switches.count}>"
        )
