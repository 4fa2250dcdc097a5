"""Unit tests for application workload models."""

import pytest

from repro.scenarios import build_sirpent_line
from repro.sim.rng import RngStreams
from repro.transport import RouteManager
from repro.workloads.apps import (
    FileTransferApp,
    JitterMeter,
    TransactionApp,
    VideoStreamApp,
)


def setup(n_routers=1):
    scenario = build_sirpent_line(n_routers=n_routers)
    client = scenario.transport("src")
    server = scenario.transport("dst")
    entity = server.create_entity(lambda m: (b"ok", 100), hint="server")
    manager = RouteManager(
        scenario.sim, scenario.vmtp_routes("src", "dst", k=2)
    )
    return scenario, client, entity, manager


def test_transaction_app_closed_loop():
    scenario, client, entity, manager = setup()
    rng = RngStreams(3).stream("app")
    app = TransactionApp(
        scenario.sim, client, manager, entity, rng,
        request_size=256, mean_think=5e-3, max_transactions=10,
    )
    scenario.sim.run(until=5.0)
    assert app.completed.count == 10
    assert app.failed.count == 0
    assert app.response_time.count == 10
    assert app.response_time.mean > 0


def test_file_transfer_moves_all_bytes():
    scenario, client, entity, manager = setup()
    finished = []
    app = FileTransferApp(
        scenario.sim, client, manager, entity,
        total_bytes=100_000, chunk_bytes=16_384,
        on_complete=finished.append,
    )
    scenario.sim.run(until=30.0)
    assert finished and not app.failed
    assert app.moved == 100_000
    assert app.throughput_bps() > 1e5


def test_file_transfer_throughput_bounded_by_link():
    scenario, client, entity, manager = setup()
    app = FileTransferApp(
        scenario.sim, client, manager, entity, total_bytes=200_000,
    )
    scenario.sim.run(until=60.0)
    assert app.finished_at is not None
    assert app.throughput_bps() < 10e6  # cannot beat the wire


def test_video_stream_and_jitter_meter():
    scenario = build_sirpent_line(n_routers=1)
    route = scenario.routes("src", "dst", dest_socket=0)[0]
    meter = JitterMeter(expected_interval=1e-3)
    scenario.hosts["dst"].bind(0, meter.on_delivery)
    app = VideoStreamApp(
        scenario.sim, scenario.hosts["src"], route,
        frame_bytes=500, frame_interval=1e-3, duration=0.1,
    )
    scenario.sim.run(until=1.0)
    assert app.sent.count == pytest.approx(100, abs=2)
    assert meter.received.count == app.sent.count
    # Idle network: jitter is essentially zero.
    assert meter.jitter.mean < 10e-6


def test_video_jitter_under_cross_traffic():
    """Preemptive priority keeps video jitter low even with bulk
    competition on the same path (the §2.1 type-of-service story)."""
    scenario = build_sirpent_line(n_routers=1, extra_host_pairs=1)
    video_route = scenario.routes("src", "dst", dest_socket=0)[0]
    meter = JitterMeter(expected_interval=1e-3)
    scenario.hosts["dst"].bind(0, meter.on_delivery)
    VideoStreamApp(
        scenario.sim, scenario.hosts["src"], video_route,
        frame_bytes=500, frame_interval=1e-3, duration=0.5,
    )
    # Bulk flood from src2 to dst2 crossing the same routers.
    bulk_client = scenario.transport("src2")
    bulk_server = scenario.transport("dst2")
    bulk_entity = bulk_server.create_entity(lambda m: (b"", 1), hint="sink")
    bulk_manager = RouteManager(
        scenario.sim, scenario.vmtp_routes("src2", "dst2")
    )
    FileTransferApp(
        scenario.sim, bulk_client, bulk_manager, bulk_entity,
        total_bytes=1_000_000,
    )
    scenario.sim.run(until=2.0)
    assert meter.received.count > 400
    # Preemption caps jitter well below a bulk packet's serialization.
    assert meter.jitter.quantile(0.95) < 1e-3
