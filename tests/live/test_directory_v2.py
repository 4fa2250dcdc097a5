"""The live directory's v2 protocol: interop, dedup, concurrency.

The acceptance criteria exercised here:

* there is one wire protocol: a frame without ``v`` (or that is not a
  JSON object at all) is refused *by name* and the server keeps serving;
* a replayed v2 write returns the **byte-identical** cached response
  and is never re-executed;
* in-flight commands on one connection complete concurrently — a slow
  route computation does not convoy the pings behind it.
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


# -- the RTT floor, made explicit ------------------------------------------

def test_floored_rtt_is_labelled_not_silent():
    from repro.live.directory import (
        DEFAULT_BASE_RTT_S,
        route_from_json,
        route_to_json,
    )

    zero = Route(
        destination="loopback.region.net",
        segments=[HeaderSegment(port=0)],
        first_hop_port=0,
        first_hop_mac=None,
        bottleneck_bps=0.0,     # model predicts a 0s RTT (loopback)
        propagation_delay=0.0,
        hop_count=0,
    )
    wire = route_to_json(zero)
    assert wire["base_rtt_s"] == DEFAULT_BASE_RTT_S
    assert wire["measured_rtt_s"] == 0.0  # the real prediction survives
    assert wire["rtt_floor_applied"] is True
    assert route_from_json(wire).rtt_floor_applied is True


def test_measured_rtt_passes_through_unfloored():
    from repro.live.directory import route_from_json, route_to_json

    wire = route_to_json(_route())
    assert wire["rtt_floor_applied"] is False
    assert wire["base_rtt_s"] == wire["measured_rtt_s"] > 0.0
    parsed = route_from_json(wire)
    assert parsed.rtt_floor_applied is False
    assert parsed.base_rtt_s == wire["base_rtt_s"]


# -- concurrent in-flight commands -----------------------------------------

def test_slow_command_does_not_convoy_the_connection():
    """One connection, a deliberately stalled route computation, then a
    ping: the ping must complete *while* the slow command is stalled —
    in-flight commands are concurrent, correlated by id."""

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
        # The ping overtakes the stalled routes call...
        assert await client.ping(timeout_s=2.0)
        assert not slow.done()
        release.set()  # ...which still completes once released.
        routes = await slow
        client.close()
        server.stop()
        return routes

    routes = asyncio.run(scenario())
    assert routes[0].destination == "slow.region.net"
