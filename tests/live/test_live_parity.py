"""Decision parity: the live router forwards exactly like the simulator's.

Same topology description, same directory, same frame — the simulator's
:class:`~repro.core.router.SirpentRouter` and the live
:class:`~repro.live.router.LiveRouter` must make identical forwarding
decisions: same delivered payloads, same reversed return routes, same
drop reasons for bad frames.  This is the invariant that lets the sim's
benchmark numbers speak for the live system (and vice versa).
"""

import asyncio
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import pytest

from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory.service import DirectoryService, RouteQuery
from repro.live import LiveOverlay, LiveRoute
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment
from tests.live.oracle import live_return_segments, return_route

pytestmark = pytest.mark.live


@dataclass
class _World:
    """One topology description instantiated for the sim."""

    sim: Simulator
    topology: Topology
    directory: DirectoryService


def _build(require_tokens: bool = False) -> _World:
    """client — r1 — r2 — server, identical for both substrates."""
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    config = RouterConfig(require_tokens=require_tokens)
    r1 = SirpentRouter(sim, "r1", config=config)
    r2 = SirpentRouter(sim, "r2", config=config)
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.connect(r2, server)
    directory = DirectoryService(
        sim, topo, refresh_interval=None, advisory_interval=None,
    )
    directory.register_host("client", "client")
    directory.register_host("server", "server")
    return _World(sim, topo, directory)


@dataclass
class _Outcome:
    """What one substrate observed for a single sent frame."""

    delivered_payloads: List[bytes] = field(default_factory=list)
    return_ports: List[int] = field(default_factory=list)
    forwarded: List[int] = field(default_factory=list)  # per router, in order
    #: Per router, in order: drop reason -> frames, in the router core's
    #: one vocabulary.
    drops: List[Dict[str, int]] = field(default_factory=list)

    @property
    def drop_reason(self) -> Optional[str]:
        """Every reason any router dropped for, joined (None: no drop)."""
        return ",".join(sorted({r for d in self.drops for r in d})) or None


def _count_drops(outcome: _Outcome, router) -> None:
    outcome.drops.append(dict(router.core.drops))


def _run_sim(world: _World, route, payload: bytes) -> _Outcome:
    outcome = _Outcome()
    server = world.topology.node("server")

    def on_delivered(delivered):
        outcome.delivered_payloads.append(delivered.payload)
        outcome.return_ports = [s.port for s in return_route(delivered)]

    server.bind(route.segments[-1].port, on_delivered)
    world.topology.node("client").send(route, payload, len(payload))
    world.sim.run(until=1.0)
    for name in ("r1", "r2"):
        router = world.topology.node(name)
        outcome.forwarded.append(router.stats.forwarded.count)
        _count_drops(outcome, router)
    return outcome


def _run_live(world: _World, route, payload: bytes) -> _Outcome:
    outcome = _Outcome()

    async def scenario():
        overlay = LiveOverlay(world.topology)
        await overlay.start()
        try:
            def on_delivered(delivered):
                outcome.delivered_payloads.append(delivered.payload)
                outcome.return_ports = [
                    s.port for s in live_return_segments(
                        delivered.frame
                    )
                ]

            overlay.hosts["server"].bind(
                route.segments[-1].port, on_delivered
            )
            live_route = LiveRoute(
                destination="server",
                segments=list(route.segments),
                first_hop_port=route.first_hop_port,
            )
            overlay.hosts["client"].send(live_route, payload)
            deadline = asyncio.get_running_loop().time() + 2.0
            while not outcome.delivered_payloads:
                if asyncio.get_running_loop().time() > deadline:
                    break
                total = sum(
                    overlay.routers[n].metrics.total_drops()
                    for n in ("r1", "r2")
                )
                if total:
                    break
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.02)  # let trailing acks settle
            for name in ("r1", "r2"):
                router = overlay.routers[name]
                outcome.forwarded.append(router.metrics.forwarded)
                _count_drops(outcome, router)
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())
    return outcome


def _assert_parity(sim_outcome: _Outcome, live_outcome: _Outcome) -> None:
    assert live_outcome.delivered_payloads == sim_outcome.delivered_payloads
    assert live_outcome.return_ports == sim_outcome.return_ports
    assert live_outcome.forwarded == sim_outcome.forwarded
    assert live_outcome.drops == sim_outcome.drops


def test_parity_directory_route_delivers():
    """The happy path: both substrates deliver with the same return route."""
    payload = b"parity-payload"
    sim_world, live_world = _build(), _build()
    route = sim_world.directory.query(
        "client", RouteQuery("server", dest_socket=5)
    )[0]
    _assert_parity(
        _run_sim(sim_world, route, payload),
        _run_live(live_world, route, payload),
    )


def test_parity_no_route_drop():
    """A segment naming a nonexistent port drops at r1 in both worlds."""
    payload = b"x"
    sim_world, live_world = _build(), _build()
    good = sim_world.directory.query(
        "client", RouteQuery("server", dest_socket=5)
    )[0]
    bad = type(good)(
        destination="server",
        segments=[HeaderSegment(port=99)] + list(good.segments[1:]),
        first_hop_port=good.first_hop_port,
        first_hop_mac=None,
    )
    sim_outcome = _run_sim(sim_world, bad, payload)
    live_outcome = _run_live(live_world, bad, payload)
    assert sim_outcome.drop_reason == "no_route"
    _assert_parity(sim_outcome, live_outcome)


def test_parity_token_required_reject():
    """require_tokens routers reject tokenless frames identically."""
    payload = b"x"
    sim_world = _build(require_tokens=True)
    live_world = _build(require_tokens=True)
    route = sim_world.directory.query(
        "client", RouteQuery("server", dest_socket=5, with_tokens=False)
    )[0]
    sim_outcome = _run_sim(sim_world, route, payload)
    live_outcome = _run_live(live_world, route, payload)
    assert sim_outcome.drop_reason == "token_reject"
    _assert_parity(sim_outcome, live_outcome)


def test_parity_minted_tokens_admit():
    """Directory-minted tokens admit on require_tokens routers, both worlds."""
    payload = b"with-tokens"
    sim_world = _build(require_tokens=True)
    live_world = _build(require_tokens=True)
    route = sim_world.directory.query(
        "client", RouteQuery("server", dest_socket=5, with_tokens=True)
    )[0]
    sim_outcome = _run_sim(sim_world, route, payload)
    live_outcome = _run_live(live_world, route, payload)
    assert sim_outcome.delivered_payloads == [payload]
    _assert_parity(sim_outcome, live_outcome)


def test_parity_route_exhausted():
    """A route that runs out at r2 (it arrives with segCount 0) is
    ``route_exhausted`` in both worlds — the pipeline's stage-0 verdict,
    not a decode failure."""
    payload = b"x"
    sim_world, live_world = _build(), _build()
    good = sim_world.directory.query(
        "client", RouteQuery("server", dest_socket=5)
    )[0]
    short = type(good)(
        destination="server",
        segments=list(good.segments[:1]),
        first_hop_port=good.first_hop_port,
        first_hop_mac=None,
    )
    sim_outcome = _run_sim(sim_world, short, payload)
    live_outcome = _run_live(live_world, short, payload)
    assert sim_outcome.drop_reason == "route_exhausted"
    _assert_parity(sim_outcome, live_outcome)
