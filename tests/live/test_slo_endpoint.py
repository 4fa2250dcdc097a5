"""``GET /slo`` and ``GET /dump`` on the live obs endpoint, plus the
``repro.obs.top`` console against a real server.

Marked ``live``: binds real loopback sockets.  The overlay's SLO engine
must report burn rates for the default objectives over genuinely
scraped metrics (a v2 directory command feeds ``directory_command_ms``),
``/dump`` must serve the flight recorder's NDJSON window, and
``python -m repro.obs.top --once`` must render the report.
"""

import asyncio
import json

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import LiveOverlay
from repro.live.directory import LiveDirectoryClient
from repro.net.topology import Topology
from repro.obs import top
from repro.obs.recorder import load_dump
from repro.sim.engine import Simulator

pytestmark = pytest.mark.live


def _line_topology():
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    topo.connect(client, r1)
    topo.connect(r1, server)
    return topo


async def _http_get(address, target):
    reader, writer = await asyncio.open_connection(*address)
    writer.write(f"GET {target} HTTP/1.0\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    lines = head.decode("ascii").split("\r\n")
    return lines[0], body


def test_slo_endpoint_reports_burn_rates(capsys):
    async def scenario():
        overlay = LiveOverlay(_line_topology(), obs_port=0)
        await overlay.start()
        directory_client = LiveDirectoryClient("client")
        try:
            # Feed directory_command_ms with real served commands.
            await directory_client.connect(overlay.directory_address)
            for _ in range(3):
                assert await directory_client.routes("server")
            status, body = await _http_get(overlay.obs_address, "/slo")
            assert status.endswith("200 OK")
            payload = json.loads(body)
            # top --once against the live endpoint, same event loop off.
            url = (
                f"http://{overlay.obs_address[0]}:"
                f"{overlay.obs_address[1]}/slo"
            )
            return payload, url
        finally:
            directory_client.close()
            overlay.stop()

    payload, _url = asyncio.run(scenario())
    assert payload["type"] == "slo_report"
    statuses = {s["slo"]: s for s in payload["statuses"]}
    assert set(statuses) == {"directory_command_latency", "rebind_recovery"}
    # The served commands actually landed in the latency objective.
    directory = statuses["directory_command_latency"]
    assert directory["total"] >= 3
    for status in statuses.values():
        assert status["status"] in ("ok", "burn", "page")
        for window in status["windows"].values():
            assert "burn" in window
    # The pure renderer draws every objective.
    frame = top.render_report(payload)
    for name in statuses:
        assert name in frame


def test_top_once_renders_live_endpoint(capsys):
    async def scenario():
        overlay = LiveOverlay(_line_topology(), obs_port=0)
        await overlay.start()
        host, port = overlay.obs_address
        # top.main is synchronous urllib; run it off-loop.
        code = await asyncio.get_running_loop().run_in_executor(
            None, top.main, ["--url", f"http://{host}:{port}/slo", "--once"],
        )
        overlay.stop()
        return code

    assert asyncio.run(scenario()) == 0
    out = capsys.readouterr().out
    assert "directory_command_latency" in out
    assert "status" in out


def test_top_unreachable_endpoint_fails_cleanly(capsys):
    code = top.main(["--url", "http://127.0.0.1:1/slo", "--once"])
    assert code == 1
    assert "cannot reach" in capsys.readouterr().err


def test_dump_endpoint_serves_flight_recorder_window():
    async def scenario():
        overlay = LiveOverlay(_line_topology(), obs_port=0)
        await overlay.start()
        try:
            overlay.recorder.record("link_down", node="server", port=1)
            overlay.recorder.record(
                "frame_dropped", node="r1", reason="route_exhausted"
            )
            status, body = await _http_get(overlay.obs_address, "/dump")
            bad, _ = await _http_get(overlay.obs_address, "/dump?last_s=zz")
            return status, body, bad
        finally:
            overlay.stop()

    status, body, bad = asyncio.run(scenario())
    assert status.endswith("200 OK")
    header, events = load_dump(body.decode("utf-8"))
    assert header["reason"] == "http_trigger"
    assert [e["event"] for e in events] == [
        "link_down", "frame_dropped",
    ]
    assert bad.endswith("400 Bad Request")
