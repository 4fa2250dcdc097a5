"""Tracing and the /metrics endpoint over the live UDP overlay.

Marked ``live``: real loopback sockets plus the opt-in observability
HTTP server.  One traced transaction must be reconstructable end to
end — out over the source route, back over the reversed trailer — and
``GET /metrics`` must serve the same counter names the sim's
RouterStats/EndpointMetrics tables print.
"""

import asyncio
import json

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import LiveOverlay
from repro.net.topology import Topology
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator
from tests.live.oracle import live_packet

pytestmark = pytest.mark.live


async def _eventually(predicate, timeout_s: float = 2.0) -> None:
    """Poll ``predicate`` until true or fail the test."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


def _line_topology():
    """client — r1 — r2 — server, point-to-point."""
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    r2 = SirpentRouter(sim, "r2")
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.connect(r2, server)
    return topo


async def _http_get(address, target):
    """Minimal HTTP/1.0 GET; returns (status_line, headers, body)."""
    reader, writer = await asyncio.open_connection(*address)
    writer.write(f"GET {target} HTTP/1.0\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    return lines[0], lines[1:], body


async def _traced_ping_pong(overlay):
    """One traced request/reply pair; returns the request's trace id."""
    client, server = overlay.hosts["client"], overlay.hosts["server"]
    replies = []
    client.bind(6, replies.append)
    server.bind(
        5, lambda d: server.send_return(d, b"pong", reply_socket=6)
    )
    route = overlay.routes("client", "server", dest_socket=5)[0]
    trace_id = client.send(route, b"ping")
    await _eventually(lambda: replies)
    assert replies[0].trace_id == trace_id
    assert live_packet(replies[0].frame).trace_id \
        == trace_id
    return trace_id


def test_traced_transaction_end_to_end():
    """A traced frame's id rides the wire out and back; the record shows
    every hop of both directions."""

    async def scenario():
        tracer = Tracer()
        overlay = LiveOverlay(_line_topology(), tracer=tracer)
        await overlay.start()
        try:
            trace_id = await _traced_ping_pong(overlay)
            assert trace_id != 0
            record = tracer.record(trace_id)
            assert record is not None
            assert record.status == "delivered"
            names = [e.name for e in record.events]
            assert names.count("deliver") == 2
            assert "send_return" in names
            first_visit = list(
                dict.fromkeys(e.node for e in record.events)
            )
            assert first_visit == ["client", "r1", "r2", "server"]
            turn = names.index("send_return")
            back = list(
                dict.fromkeys(e.node for e in record.events[turn:])
            )
            assert back == ["server", "r2", "r1", "client"]
            for router in ("r1", "r2"):
                at_router = [
                    e.name for e in record.events if e.node == router
                ]
                assert at_router.count("strip_reverse_append") == 2
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())


def test_metrics_endpoint_serves_the_shared_counter_names():
    """GET /metrics exposes the exact names the sim benchmarks print,
    labeled per node."""

    async def scenario():
        overlay = LiveOverlay(_line_topology(), obs_port=0)
        await overlay.start()
        try:
            client, server = overlay.hosts["client"], overlay.hosts["server"]
            delivered = []
            server.bind(5, delivered.append)
            route = overlay.routes("client", "server", dest_socket=5)[0]
            client.send(route, b"ping")
            await _eventually(lambda: delivered)
            status, headers, body = await _http_get(
                overlay.obs_address, "/metrics"
            )
            assert status == "HTTP/1.0 200 OK"
            assert any("version=0.0.4" in h for h in headers)
            text = body.decode("utf-8")
            assert 'forwarded{node="r1"} 1' in text
            assert 'forwarded{node="r2"} 1' in text
            assert 'delivered_local{node="server"} 1' in text
            assert 'frames_out{node="client"} 1' in text
            # Scrapes are pull-time: the same overlay re-scraped after
            # more traffic shows the new counts without re-registering.
            client.send(route, b"ping2")
            await _eventually(lambda: len(delivered) == 2)
            _, _, body = await _http_get(overlay.obs_address, "/metrics")
            assert 'forwarded{node="r1"} 2' in body.decode("utf-8")
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())


def test_trace_endpoint_serves_span_json():
    """GET /trace indexes retained traces; ?id= returns events + spans."""

    async def scenario():
        tracer = Tracer()
        overlay = LiveOverlay(_line_topology(), tracer=tracer, obs_port=0)
        await overlay.start()
        try:
            trace_id = await _traced_ping_pong(overlay)
            status, _, body = await _http_get(overlay.obs_address, "/trace")
            assert status == "HTTP/1.0 200 OK"
            index = json.loads(body)
            assert trace_id in [t["trace_id"] for t in index["traces"]]
            status, _, body = await _http_get(
                overlay.obs_address, f"/trace?id={trace_id:#x}"
            )
            assert status == "HTTP/1.0 200 OK"
            doc = json.loads(body)
            assert doc["status"] == "delivered"
            assert {e["node"] for e in doc["events"]} == {
                "client", "r1", "r2", "server",
            }
            assert doc["spans"][0]["node"] == "client"
            assert doc["total"] > 0
            status, _, _ = await _http_get(
                overlay.obs_address, "/trace?id=999"
            )
            assert status.startswith("HTTP/1.0 404")
            status, _, _ = await _http_get(
                overlay.obs_address, "/trace?id=zebra"
            )
            assert status.startswith("HTTP/1.0 400")
            status, _, _ = await _http_get(overlay.obs_address, "/nope")
            assert status.startswith("HTTP/1.0 404")
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())


def test_untraced_overlay_pays_nothing():
    """With no tracer installed (every node's ``tracer`` is None),
    frames carry no trace id and nothing is recorded."""

    async def scenario():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            client, server = overlay.hosts["client"], overlay.hosts["server"]
            nodes = [*overlay.hosts.values(), *overlay.routers.values()]
            assert all(node.tracer is None for node in nodes)
            assert overlay.directory_server.tracer is None
            delivered = []
            server.bind(5, delivered.append)
            route = overlay.routes("client", "server", dest_socket=5)[0]
            trace_id = client.send(route, b"ping")
            await _eventually(lambda: delivered)
            assert trace_id == 0
            assert delivered[0].trace_id == 0
            assert live_packet(
                delivered[0].frame
            ).trace_id == 0
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())
