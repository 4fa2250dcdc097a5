"""Failure-injection integration tests: soft state, flaps, preemption."""


from repro.core.router import RouterConfig
from repro.directory import RouteQuery
from repro.scenarios import build_sirpent_line, build_sirpent_parallel
from repro.transport import RouteManager, TransportConfig
from repro.viper.flags import PRIORITY_PREEMPT_HIGH


def test_token_cache_flush_is_survivable():
    """Token cache is soft state (§2.2): flushing it mid-stream (a
    router restart) costs at most re-verification, never correctness."""
    config = RouterConfig(require_tokens=True)
    scenario = build_sirpent_line(n_routers=2, router_config=config)
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    route = scenario.directory.query("src", RouteQuery(
        "dst.lab.edu", with_tokens=True, account=5,
    ))[0]
    for index in range(4):
        scenario.sim.at(index * 10e-3,
                        lambda: scenario.hosts["src"].send(route, bytes(200)))
    # Flush both caches between the second and third packet.
    scenario.sim.at(15e-3, scenario.routers["r1"].token_cache.flush)
    scenario.sim.at(15e-3, scenario.routers["r2"].token_cache.flush)
    scenario.sim.run(until=0.5)
    assert len(got) == 4  # optimistic re-verification: nothing lost
    # The caches re-learned the token.
    assert len(scenario.routers["r1"].token_cache) == 1


def test_route_flapping_keeps_transactions_flowing():
    """A flapping primary path: the client keeps completing
    transactions by bouncing between routes."""
    scenario = build_sirpent_parallel(n_paths=2, path_delay_step=50e-6)
    config = TransportConfig(base_timeout=5e-3, retries_per_route=1)
    client = scenario.transport("src", config=config)
    server = scenario.transport("dst", config=config)
    entity = server.create_entity(lambda m: (b"ok", 32), hint="server")
    manager = RouteManager(scenario.sim, scenario.vmtp_routes("src", "dst", k=2))

    # Flap the primary every 100 ms.
    for cycle in range(5):
        scenario.sim.at(0.05 + cycle * 0.2,
                        scenario.topology.fail_link, "rA--p1")
        scenario.sim.at(0.15 + cycle * 0.2,
                        scenario.topology.restore_link, "rA--p1")

    results = []

    def issue() -> None:
        if len(results) >= 20:
            return
        client.transact(manager, entity, b"q", 128,
                        lambda r: (results.append(r), issue()))

    issue()
    scenario.sim.run(until=5.0)
    assert len(results) == 20
    assert all(r.ok for r in results)


def test_preempted_bulk_recovers_by_retransmission():
    """Priority-7 preemption aborts bulk packets mid-wire; the bulk
    transport's selective retransmission completes the transfer anyway."""
    from repro.workloads.apps import FileTransferApp, VideoStreamApp

    scenario = build_sirpent_line(
        n_routers=2, extra_host_pairs=1,
        router_config=RouterConfig(congestion_enabled=False),
    )
    video_route = scenario.routes("src", "dst", dest_socket=0)[0]
    scenario.hosts["dst"].bind(0, lambda d: None)
    VideoStreamApp(
        scenario.sim, scenario.hosts["src"], video_route,
        frame_bytes=400, frame_interval=1.5e-3,
        priority=PRIORITY_PREEMPT_HIGH, duration=1.0,
    )
    bulk_client = scenario.transport("src2")
    bulk_server = scenario.transport("dst2")
    entity = bulk_server.create_entity(lambda m: (b"", 1), hint="sink")
    manager = RouteManager(scenario.sim, scenario.vmtp_routes("src2", "dst2"))
    finished = []
    bulk = FileTransferApp(
        scenario.sim, bulk_client, manager, entity,
        total_bytes=300_000, priority=0, on_complete=finished.append,
    )
    scenario.sim.run(until=8.0)
    preemptions = sum(
        p.preemptions.count
        for r in scenario.routers.values()
        for p in r.output_ports.values()
    )
    assert preemptions > 0  # the video really did abort bulk packets
    assert finished and not bulk.failed
    assert bulk.moved == 300_000
    assert bulk_client.stats.retransmissions.count > 0


def test_directory_advisory_tracks_flaps():
    """Advisories converge to the live topology after each flap."""
    scenario = build_sirpent_parallel(n_paths=2, path_delay_step=50e-6)
    advisories = []
    scenario.directory.subscribe(
        "src", RouteQuery("dst.lab.edu", k=2), advisories.append,
    )
    scenario.sim.run(until=0.1)
    scenario.topology.fail_link("rA--p1")
    scenario.sim.run(until=0.3)
    scenario.topology.restore_link("rA--p1")
    scenario.sim.run(until=0.6)
    # initial (2 routes), failure (1 route), restore (2 routes).
    assert len(advisories) == 3
    assert len(advisories[0]) == 2
    assert len(advisories[1]) == 1
    assert len(advisories[2]) == 2


def test_dead_channel_loses_in_flight_cut_through():
    """A link failing mid-cut-through loses the packet cleanly (no
    duplicate, no crash); the transport's retry delivers it."""
    scenario = build_sirpent_line(n_routers=2)
    client = scenario.transport("src")
    server = scenario.transport("dst")
    entity = server.create_entity(lambda m: (b"ok", 32), hint="server")
    manager = RouteManager(scenario.sim, scenario.vmtp_routes("src", "dst"))
    results = []
    client.transact(manager, entity, b"q", 1400, results.append)
    # Kill the middle link while the packet is on it (~0.9 ms in).
    scenario.sim.at(0.9e-3, scenario.topology.fail_link, "r1--r2")
    scenario.sim.at(30e-3, scenario.topology.restore_link, "r1--r2")
    scenario.sim.run(until=2.0)
    assert results[0].ok
    assert results[0].retries >= 1
    assert server.stats.received_pdus.count >= 1
