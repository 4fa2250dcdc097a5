"""Integration: entity migration (§4.1), hierarchical fabrics (§5), and
cut-through gap preservation (§2.1)."""


from repro.core.host import SirpentHost
from repro.directory.routes import Route
from repro.net.fabric import build_fabric
from repro.net.topology import Topology
from repro.scenarios import build_sirpent_line, build_sirpent_parallel
from repro.sim.engine import Simulator
from repro.transport import RouteManager, TransportConfig, VmtpTransport
from repro.viper.wire import HeaderSegment


# ---------------------------------------------------------------------------
# Process migration over location-independent entity ids (§4.1).
# ---------------------------------------------------------------------------


def test_entity_migration_keeps_the_same_id():
    """A server entity moves host; the client keeps the 64-bit id and
    only refreshes routes (the directory re-registers the service)."""
    scenario = build_sirpent_parallel(n_paths=1)
    sim = scenario.sim
    # A third host to migrate to, attached at the far router.
    new_home = SirpentHost(sim, "dst2", control_plane=scenario.control_plane)
    scenario.topology.add_node(new_home)
    scenario.hosts["dst2"] = new_home
    scenario.topology.connect(new_home, scenario.routers["rB"])
    scenario.directory.register_host("dst2", "dst2.lab.edu")

    config = TransportConfig(base_timeout=5e-3, max_total_retries=4)
    client = scenario.transport("src", config=config)
    old_server = scenario.transport("dst", config=config)
    new_server = scenario.transport("dst2", config=config)

    handler_calls = []

    def handler(message):
        handler_calls.append(message)
        return b"served", 64

    entity = old_server.create_entity(handler, hint="service")

    def fresh_routes():
        # In deployment the directory maps the *service name* to its
        # current host; we model the re-registration directly.
        return scenario.vmtp_routes("src", "dst2")

    manager = RouteManager(
        sim, scenario.vmtp_routes("src", "dst"), refresher=fresh_routes,
    )
    results = []
    client.transact(manager, entity, b"q1", 64, results.append)
    sim.run(until=0.5)
    assert results[0].ok

    # Migrate: the entity leaves dst and is adopted by dst2.
    old_server.drop_entity(entity)
    new_server.adopt_entity(entity, handler)

    client.transact(manager, entity, b"q2", 64, results.append)
    sim.run(until=3.0)
    # Packets to the old host were misdelivered (unknown entity there),
    # the retries exhausted the stale route and the refresher supplied
    # the new one — same entity id throughout.
    assert results[1].ok
    assert results[1].route_switches >= 1
    assert old_server.stats.misdelivered.count >= 1
    assert len(handler_calls) == 2


def test_multi_homed_host_reachable_via_either_interface():
    """§4.1: the entity id is independent of the attachment, so either
    interface works — TCP's pseudo-header binding is the contrast."""
    sim = Simulator()
    topo = Topology(sim)
    from repro.core.router import SirpentRouter

    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    r1 = topo.add_node(SirpentRouter(sim, "r1"))
    _, src_port, _ = topo.connect(src, r1)
    _, out_a, dst_a = topo.connect(r1, dst, name="if-a")   # interface A
    _, out_b, dst_b = topo.connect(r1, dst, name="if-b")   # interface B
    t_src = VmtpTransport(sim, src)
    t_dst = VmtpTransport(sim, dst)
    entity = t_dst.create_entity(lambda m: (b"ok", 16), hint="dual")

    for out_port in (out_a, out_b):
        results = []
        manager = RouteManager(sim, [Route(
            destination="dst",
            segments=[HeaderSegment(port=out_port), HeaderSegment(port=1)],
            first_hop_port=src_port, first_hop_mac=None,
            bottleneck_bps=10e6, propagation_delay=20e-6, hop_count=1,
        )])
        t_src.transact(manager, entity, b"q", 32, results.append)
        sim.run(until=sim.now + 0.5)
        assert results[0].ok, f"interface via port {out_port} failed"


# ---------------------------------------------------------------------------
# Hierarchical switch fabric (§5).
# ---------------------------------------------------------------------------


def build_fabric_network(n_leaves=3):
    sim = Simulator()
    topo = Topology(sim)
    fabric = build_fabric(sim, topo, n_leaves=n_leaves)
    hosts = []
    host_links = []
    for index in range(n_leaves):
        host = topo.add_node(SirpentHost(sim, f"h{index}"))
        leaf = fabric.leaf_for(index)
        _, host_port, leaf_port = topo.connect(host, leaf, rate_bps=100e6,
                                               propagation_delay=1e-6)
        hosts.append((host, host_port))
        host_links.append(leaf_port)
    return sim, topo, fabric, hosts, host_links


def test_fabric_crossing_delivers():
    sim, _t, fabric, hosts, host_links = build_fabric_network()
    src, src_port = hosts[0]
    dst, _ = hosts[2]
    got = []
    dst.bind(0, got.append)
    segments = fabric.internal_segments(
        src_external=0, dst_leaf_port=host_links[2], dst_external=2,
    ) + [HeaderSegment(port=0)]
    src.send(
        Route("dst", segments, src_port, None),
        b"through the fabric".ljust(400, b"\0"),
    )
    sim.run(until=1.0)
    assert len(got) == 1
    # Crossed leaf0 -> root -> leaf2.
    assert got[0].packet.hop_log == [
        "fabric-leaf0", "fabric-root", "fabric-leaf2",
    ]


def test_same_leaf_short_circuit():
    sim, _t, fabric, hosts, host_links = build_fabric_network()
    segments = fabric.internal_segments(0, host_links[0], 0)
    assert len(segments) == 1  # no trip to the root


def test_fabric_stages_cost_only_decision_delays():
    """§5: hierarchy 'imposes no significant additional delay given the
    use of cut-through routing at each stage'."""
    sim, _t, fabric, hosts, host_links = build_fabric_network()
    src, src_port = hosts[0]
    dst, _ = hosts[1]
    got = []
    dst.bind(0, got.append)
    segments = fabric.internal_segments(0, host_links[1], 1) + [
        HeaderSegment(port=0)
    ]
    src.send(Route("dst", segments, src_port, None), bytes(1000))
    sim.run(until=1.0)
    delay = got[0].arrived_at - got[0].packet.created_at
    serialization = (1000 + 16) * 8 / 100e6  # ~81 us
    # 3 cut-through stages add ~3 decision delays + tiny pipeline, so
    # the total stays within ~25% of one serialization.
    assert delay < serialization * 1.25


# ---------------------------------------------------------------------------
# Cut-through preserves sender pacing (§2.1).
# ---------------------------------------------------------------------------


def test_cut_through_preserves_rate_gaps():
    """"The real-time switching also preserves the gaps introduced by
    the sender using a rate-based transport protocol" (§2.1)."""
    scenario = build_sirpent_line(n_routers=3)
    sim = scenario.sim
    arrivals = []
    scenario.hosts["dst"].bind(0, lambda d: arrivals.append(d.arrived_at))
    route = scenario.routes("src", "dst")[0]
    gap = 2.5e-3
    for index in range(8):
        sim.at(index * gap,
               lambda: scenario.hosts["src"].send(route, bytes(700)))
    sim.run(until=1.0)
    spacings = [b - a for a, b in zip(arrivals, arrivals[1:])]
    assert all(abs(s - gap) < 1e-9 for s in spacings)
