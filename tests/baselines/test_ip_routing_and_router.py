"""Unit tests for link-state routing and the store-and-forward IP router."""


from repro.baselines.ip import router as ip_router
from repro.scenarios import build_ip_line, build_ip_parallel


def test_routing_converges_to_full_tables():
    scenario = build_ip_line(n_routers=3)
    scenario.converge()
    for router in scenario.routers.values():
        # Every other node (2 routers + 2 hosts) is reachable.
        assert len(router.routing.table) == 4


def test_spf_picks_shortest_path():
    scenario = build_ip_parallel(n_paths=2)
    scenario.converge()
    entry = scenario.routers["rA"]
    port, _mac = entry.routing.next_hop("dst")
    # Cost 1 path goes via p1; the port toward p1 was assigned first.
    edge_to_p1 = next(
        e for e in scenario.topology.edges_from("rA") if e.dst == "p1"
    )
    assert port == edge_to_p1.port_id


def test_end_to_end_datagram_delivery():
    scenario = build_ip_line(n_routers=2)
    scenario.converge()
    src, dst = scenario.hosts["src"], scenario.hosts["dst"]
    received = []
    dst.bind_protocol(42, received.append)
    src.send("dst", b"hello", 300, protocol=42)
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert len(received) == 1
    assert received[0].payload_size == 300
    assert received[0].hop_log == ["r1", "r2"]


def test_ttl_decremented_per_hop():
    scenario = build_ip_line(n_routers=3)
    scenario.converge()
    received = []
    scenario.hosts["dst"].bind_protocol(42, received.append)
    scenario.hosts["src"].send("dst", b"x", 100, protocol=42, ttl=64)
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert received[0].header.ttl == 61
    assert received[0].header.checksum_ok()


def test_ttl_expiry_drops():
    scenario = build_ip_line(n_routers=3)
    scenario.converge()
    received = []
    scenario.hosts["dst"].bind_protocol(42, received.append)
    scenario.hosts["src"].send("dst", b"x", 100, protocol=42, ttl=2)
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert received == []
    dropped = sum(r.stats.dropped_ttl.count for r in scenario.routers.values())
    assert dropped == 1


def test_fragmentation_at_mtu_mismatch():
    scenario = build_ip_line(n_routers=1)
    # Shrink the router->dst MTU: the router must fragment.
    link = scenario.topology.links["dst--r1"]
    link.a_to_b.mtu = 576
    link.b_to_a.mtu = 576
    scenario.converge()
    received = []
    scenario.hosts["dst"].bind_protocol(42, received.append)
    scenario.hosts["src"].send("dst", b"big", 1400, protocol=42)
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert len(received) == 1
    assert received[0].payload_size == 1400
    assert scenario.routers["r1"].stats.fragments_made.count >= 2


def test_store_and_forward_processing_delay(monkeypatch):
    """Each hop charges full reception plus the processing cost."""
    monkeypatch.setattr(ip_router, "PROCESS_DELAY", 1e-3)
    scenario = build_ip_line(n_routers=2)
    scenario.converge()
    start = scenario.sim.now
    received = []
    scenario.hosts["dst"].bind_protocol(42, received.append)
    scenario.hosts["src"].send("dst", b"x", 1000, protocol=42)
    scenario.sim.run(until=start + 1.0)
    delay = scenario.hosts["dst"].delivery_delay.mean
    serialization = 1020 * 8 / 10e6
    # 3 serializations + 2 processing delays at minimum.
    assert delay >= 3 * serialization + 2 * 1e-3


def test_failure_detection_and_reroute():
    """Hello timeouts find the dead link; SPF reroutes via the alternate."""
    scenario = build_ip_parallel(n_paths=2)
    scenario.converge()
    entry = scenario.routers["rA"]
    port_before, _ = entry.routing.next_hop("dst")
    scenario.topology.fail_link("rA--p1")
    fail_time = scenario.sim.now
    scenario.sim.run(until=fail_time + 1.0)
    port_after, _ = entry.routing.next_hop("dst")
    assert port_after != port_before
    convergence = entry.routing.last_table_change - fail_time
    # Detection needs ~dead_interval (30 ms) + flood + SPF delay.
    assert 20e-3 < convergence < 200e-3


def test_state_size_grows_with_topology():
    small = build_ip_line(n_routers=2)
    small.converge()
    large = build_ip_line(n_routers=6)
    large.converge()
    small_state = small.routers["r1"].routing.state_size()
    large_state = large.routers["r1"].routing.state_size()
    assert large_state["lsdb_entries"] > small_state["lsdb_entries"]
    assert large_state["forwarding_entries"] > small_state["forwarding_entries"]


def test_checksum_failure_dropped_at_router():
    scenario = build_ip_line(n_routers=1)
    scenario.converge()
    src = scenario.hosts["src"]
    received = []
    scenario.hosts["dst"].bind_protocol(42, received.append)
    packet = src.send("dst", b"x", 100, protocol=42)
    # Corrupt in flight: rebuild with a broken checksum and inject.
    from dataclasses import replace

    bad = packet
    bad.header = replace(bad.header, checksum=bad.header.checksum ^ 0xFFFF)
    scenario.sim.run(until=scenario.sim.now + 1.0)
    assert scenario.routers["r1"].stats.dropped_checksum.count >= 1
    assert received == []
