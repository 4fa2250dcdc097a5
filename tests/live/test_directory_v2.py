"""The live directory's v2 protocol: interop, dedup, concurrency.

The acceptance criteria exercised here:

* there is one wire protocol: a frame without ``v`` (or that is not a
  JSON object at all) is refused *by name* and the server keeps serving;
* a replayed v2 write returns the **byte-identical** cached response
  and is never re-executed;
* in-flight commands on one connection complete concurrently — a slow
  route computation does not convoy the commands behind it.
"""

import asyncio
import json

import pytest

from repro.directory.routes import Route
from repro.directory.service import BindingConflictError
from repro.live import directory as live_directory
from repro.live.directory import (
    DirectoryError,
    LiveDirectoryClient,
    LiveDirectoryServer,
)
from repro.viper.wire import HeaderSegment

pytestmark = pytest.mark.live


def _route(destination="server.region.net"):
    return Route(
        destination=destination,
        segments=[HeaderSegment(port=2), HeaderSegment(port=7)],
        first_hop_port=1,
        first_hop_mac=None,
        mtu=1500,
        bottleneck_bps=10_000_000.0,
        propagation_delay=2e-3,
        hop_count=1,
        cost=1.0,
    )


class _Backend:
    """A DirectoryService-shaped write target with an execution count."""

    def __init__(self):
        self.names = {}
        self.executions = 0

    def register_host(self, node_name, name):
        self.executions += 1
        existing = self.names.get(name)
        if existing is not None:
            if existing == node_name:
                return name
            raise BindingConflictError(name, existing, node_name)
        self.names[name] = node_name
        return name

    def register_service(self, name, nodes):
        self.executions += 1
        self.names[name] = tuple(nodes)

    def rebind_host(self, node_name, name):
        self.executions += 1
        self.names[name] = node_name
        return name


async def _raw_exchange(address, lines):
    """Send raw NDJSON lines on one socket; return the response lines."""
    reader, writer = await asyncio.open_connection(address[0], address[1])
    out = []
    for line in lines:
        writer.write(line if isinstance(line, bytes) else line.encode())
        await writer.drain()
        out.append(await asyncio.wait_for(reader.readline(), 2.0))
    writer.close()
    return out


# -- one protocol: everything else is refused by name ------------------------

@pytest.mark.parametrize("line, code", [
    # No "v": what a PR 1 (v1) client sent.  Reads and writes alike.
    ('{"id": "q-1", "method": "ping", "params": {}}', "version_unsupported"),
    ('{"id": "q-1", "method": "register_host", '
     '"params": {"name": "h.region.net", "node": "n"}}',
     "version_unsupported"),
    ('[1, 2, 3]', "bad_request"),          # JSON, but not an object
    ('{"v": 2, "id": "q-1", "meth', "bad_request"),   # not JSON at all
])
def test_foreign_frame_is_refused_by_name_and_server_keeps_serving(line, code):
    async def scenario():
        backend = _Backend()
        server = LiveDirectoryServer(
            lambda client, query: [], backend=backend
        )
        address = await server.start()
        refused, served = await _raw_exchange(address, [
            line + "\n",
            '{"v": 2, "id": "q-2", "method": "ping", "params": {}}\n',
        ])
        server.stop()
        return (
            json.loads(refused.decode()), json.loads(served.decode()),
            backend.executions, server.errors,
        )

    refused, served, executions, errors = asyncio.run(scenario())
    assert refused["v"] == 2 and refused["status"] == "failure"
    assert refused["error"]["code"] == code
    assert executions == 0 and errors == 1
    # Same connection, next line: served normally.
    assert served["status"] == "success"
    assert served["result"] == {"pong": True}


# -- v2 typed protocol -----------------------------------------------------

def test_v2_client_round_trips_typed_success():
    async def scenario():
        backend = _Backend()
        server = LiveDirectoryServer(
            lambda client, query: [_route()], backend=backend
        )
        address = await server.start()
        client = LiveDirectoryClient("modern")
        await client.connect(address)
        result = await client.register_host("h.region.net", "node-a")
        routes = await client.routes("server.region.net")
        client.close()
        server.stop()
        return result, routes, backend.names

    result, routes, names = asyncio.run(scenario())
    assert result == {"name": "h.region.net", "node": "node-a"}
    assert names == {"h.region.net": "node-a"}
    assert len(routes) == 1


def test_v2_conflict_is_typed_and_not_retried():
    async def scenario():
        backend = _Backend()
        backend.names["h.region.net"] = "node-a"
        server = LiveDirectoryServer(
            lambda client, query: [], backend=backend
        )
        address = await server.start()
        client = LiveDirectoryClient("modern")
        await client.connect(address)
        try:
            await client.register_host("h.region.net", "node-b")
            raise AssertionError("conflict did not raise")
        except DirectoryError as exc:
            code, retryable = exc.code, exc.retryable
        client.close()
        server.stop()
        return code, retryable, backend.executions

    code, retryable, executions = asyncio.run(scenario())
    assert code == "conflict"
    assert not retryable
    assert executions == 1  # the conflicting attempt itself, once


def test_unsupported_version_gets_a_named_error():
    async def scenario():
        server = LiveDirectoryServer(lambda client, query: [])
        address = await server.start()
        (line,) = await _raw_exchange(address, [
            '{"v": 9, "id": "q-1", "method": "ping", "params": {}}\n',
        ])
        server.stop()
        return json.loads(line.decode())

    response = asyncio.run(scenario())
    assert response["status"] == "failure"
    assert response["error"]["code"] == "version_unsupported"
    assert response["error"]["details"]["supported"] == [2]


def test_malformed_v2_frame_is_bad_request():
    async def scenario():
        server = LiveDirectoryServer(lambda client, query: [])
        address = await server.start()
        (line,) = await _raw_exchange(address, [
            '{"v": 2, "method": "ping"}\n',  # no id
        ])
        server.stop()
        return json.loads(line.decode())

    response = asyncio.run(scenario())
    assert response["status"] == "failure"
    assert response["error"]["code"] == "bad_request"


# -- write dedup -----------------------------------------------------------

def test_replayed_write_returns_byte_identical_bytes():
    frame = (
        '{"v": 2, "id": "c1-17", "method": "register_host", '
        '"params": {"name": "venus.cs.stanford.edu", "node": "venus"}}\n'
    )

    async def scenario():
        backend = _Backend()
        server = LiveDirectoryServer(
            lambda client, query: [], backend=backend
        )
        address = await server.start()
        first, replay = await _raw_exchange(address, [frame, frame])
        server.stop()
        return first, replay, backend.executions, server.dedup_hits

    first, replay, executions, dedup_hits = asyncio.run(scenario())
    assert first == replay  # byte-identical, not merely equivalent
    assert executions == 1  # the command body ran exactly once
    assert dedup_hits == 1


def test_dedup_caches_failures_too():
    """A retried conflicting write must replay the *same* failure, not
    re-litigate it (the first answer is the answer)."""
    frame = (
        '{"v": 2, "id": "c1-9", "method": "register_host", '
        '"params": {"name": "h.region.net", "node": "node-b"}}\n'
    )

    async def scenario():
        backend = _Backend()
        backend.names["h.region.net"] = "node-a"
        server = LiveDirectoryServer(
            lambda client, query: [], backend=backend
        )
        address = await server.start()
        first, replay = await _raw_exchange(address, [frame, frame])
        server.stop()
        return first, replay, backend.executions

    first, replay, executions = asyncio.run(scenario())
    assert first == replay
    assert json.loads(first.decode())["error"]["code"] == "conflict"
    assert executions == 1


def test_dedup_cache_is_bounded(monkeypatch):
    monkeypatch.setattr(live_directory, "DEDUP_CAPACITY", 4)

    async def scenario():
        backend = _Backend()
        server = LiveDirectoryServer(lambda client, query: [], backend=backend)
        address = await server.start()
        frames = [
            f'{{"v": 2, "id": "w-{n}", "method": "rebind", '
            f'"params": {{"name": "h{n}.region.net", "node": "n"}}}}\n'
            for n in range(10)
        ]
        await _raw_exchange(address, frames)
        size = len(server._dedup)
        server.stop()
        return size

    assert asyncio.run(scenario()) == 4


# -- the route model, carried whole ---------------------------------------

def test_a_zero_model_route_crosses_unfloored():
    """A route whose model predicts 0 s (loopback: no rate, no distance)
    reaches a TCP client predicting 0 s, not a floor in its place; the
    transactor's judge skips a zero baseline instead of dividing by it."""
    from repro.live.directory import route_from_json, route_to_json
    from repro.live.host import WallClock
    from repro.transport.rebind import RouteManager

    zero = Route(
        destination="loopback.region.net",
        segments=[HeaderSegment(port=0)],
        first_hop_port=0,
        first_hop_mac=None,
        bottleneck_bps=0.0,
        propagation_delay=0.0,
        hop_count=0,
    )
    parsed = route_from_json(json.loads(json.dumps(route_to_json(zero))))
    assert parsed == zero and parsed.expected_rtt(64) == 0.0
    manager = RouteManager(WallClock(), [parsed, _route()], degradation_samples=1)
    manager.report_rtt(1.0, 64)
    assert manager.current() is parsed and manager.switches.count == 0


def test_the_route_model_passes_through_at_every_size():
    from repro.live.directory import route_from_json, route_to_json

    route = _route()
    parsed = route_from_json(json.loads(json.dumps(route_to_json(route))))
    for size in (0, 64, 1024, 16 * 1024):
        assert parsed.expected_rtt(size) == route.expected_rtt(size) > 0.0
    assert parsed.max_payload() == route.max_payload()


# -- concurrent in-flight commands -----------------------------------------

def test_slow_command_does_not_convoy_the_connection():
    """One connection, a deliberately stalled route computation, then a
    fast one: the fast one must complete *while* the slow command is
    stalled — in-flight commands are concurrent, correlated by id."""

    async def scenario():
        release = asyncio.Event()

        async def slow_query(client, query):
            if query.destination == "slow.region.net":
                await release.wait()
            return [_route(query.destination)]

        server = LiveDirectoryServer(slow_query)
        address = await server.start()
        client = LiveDirectoryClient("concurrent")
        await client.connect(address)
        slow = asyncio.get_running_loop().create_task(
            client.routes("slow.region.net", timeout_s=5.0)
        )
        # A fast read overtakes the stalled routes call...
        assert await client.routes("fast.region.net", timeout_s=2.0)
        assert not slow.done()
        release.set()  # ...which still completes once released.
        routes = await slow
        client.close()
        server.stop()
        return routes

    routes = asyncio.run(scenario())
    assert routes[0].destination == "slow.region.net"


# -- every query field crosses both doors -------------------------------------

def _diamond_overlay():
    """client - r1, then two ways on to the server: fast and dear via r2,
    slow and cheap via r3 (so LOW_DELAY and LOW_COST part ways) — as a
    live overlay, unstarted: its directory answers in process."""
    from repro.core.host import SirpentHost
    from repro.core.router import SirpentRouter
    from repro.live.topology import LiveOverlay
    from repro.net.topology import Topology
    from repro.sim.engine import Simulator

    sim = Simulator()
    topology = Topology(sim)
    client, server = SirpentHost(sim, "client"), SirpentHost(sim, "server")
    r1, r2, r3 = (SirpentRouter(sim, name) for name in ("r1", "r2", "r3"))
    topology.connect(client, r1)
    for via, rate, cost in ((r2, 100e6, 10.0), (r3, 1e6, 1.0)):
        topology.connect(r1, via, rate_bps=rate, cost=cost)
        topology.connect(via, server, rate_bps=rate, cost=cost)
    overlay = LiveOverlay(topology)
    overlay.directory.register_host("server", "server")
    return overlay


def test_both_doors_carry_the_objective_and_account():
    """Every RouteQuery field reaches the directory through both doors:
    a LOW_COST query for account 7 at priority 3 gets over TCP (the
    ``routes`` command) and in process (``LiveOverlay.routes``) the path
    and the token claims the directory gives it — not the default
    objective's path, nor tokens minted for account 0."""
    from repro.directory.pathfind import PathObjective
    from repro.directory.service import RouteQuery
    from repro.tokens.capability import TokenMint

    overlay = _diamond_overlay()
    directory = overlay.directory
    asked = dict(
        objective=PathObjective.LOW_COST, account=7, priority_limit=3,
        with_tokens=True,
    )

    async def scenario():
        server = LiveDirectoryServer(directory.query)
        address = await server.start()
        client = LiveDirectoryClient("client")
        await client.connect(address)
        try:
            return await client.routes("server", **asked)
        finally:
            client.close()
            server.stop()

    (over_tcp,) = asyncio.run(scenario())
    (in_process,) = overlay.routes("client", "server", **asked)
    (direct,) = directory.query("client", RouteQuery("server", **asked))
    (fastest,) = overlay.routes("client", "server", with_tokens=True)

    def ports(route):
        return [s.port for s in route.segments]

    def claims(route):
        return [TokenMint.peek(s.token) for s in route.segments if s.token]

    assert ports(over_tcp) == ports(in_process) == ports(direct) != ports(fastest)
    assert claims(over_tcp) == claims(in_process) == claims(direct)
    assert {(c.account, c.max_priority) for c in claims(over_tcp)} == {(7, 3)}
    assert over_tcp == in_process == direct
