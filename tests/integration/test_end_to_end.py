"""End-to-end integration: directory + tokens + router + transport."""


from repro.core.router import RouterConfig
from repro.directory import RouteQuery
from repro.directory.pathfind import PathObjective
from repro.scenarios import build_sirpent_campus, build_sirpent_line
from repro.transport import RouteManager, TransportConfig


def test_full_stack_transaction_with_tokens():
    """Directory-issued tokens authorize the path; accounting accrues."""
    config = RouterConfig(require_tokens=True)
    scenario = build_sirpent_line(n_routers=2, router_config=config)
    client = scenario.transport("src")
    server = scenario.transport("dst")
    entity = server.create_entity(lambda m: (b"ok", 64), hint="server")
    routes = scenario.directory.query("src", RouteQuery(
        "dst.lab.edu", dest_socket=TransportConfig().socket,
        with_tokens=True, account=1234, reverse_ok=True,
    ))
    manager = RouteManager(scenario.sim, routes)
    results = []
    client.transact(manager, entity, b"q", 512, results.append)
    scenario.sim.run(until=2.0)
    assert results[0].ok
    for router in scenario.routers.values():
        usage = router.token_cache.ledger.usage(1234)
        assert usage.packets >= 1  # request charged; reply uses reverse auth


def test_tokenless_traffic_rejected_when_required():
    config = RouterConfig(require_tokens=True)
    scenario = build_sirpent_line(n_routers=1, router_config=config)
    client = scenario.transport("src")
    server = scenario.transport("dst")
    entity = server.create_entity(lambda m: (b"ok", 64))
    routes = scenario.vmtp_routes("src", "dst")  # no tokens
    manager = RouteManager(scenario.sim, routes)
    results = []
    client.transact(manager, entity, b"q", 128, results.append)
    scenario.sim.run(until=5.0)
    assert not results[0].ok
    assert scenario.routers["r1"].stats.dropped_token.count > 0


def test_campus_cross_region_transaction():
    """The paper's running example: Ethernet - router - WAN - router -
    Ethernet, with hierarchical names."""
    scenario = build_sirpent_campus()
    client = scenario.transport("venus")
    server = scenario.transport("milo")
    entity = server.create_entity(lambda m: (b"pong", 256), hint="milo-srv")
    routes = scenario.directory.query("venus", RouteQuery(
        "milo.lcs.mit.edu", dest_socket=TransportConfig().socket, k=1,
    ))
    assert routes and routes[0].hop_count == 2
    manager = RouteManager(scenario.sim, routes)
    results = []
    client.transact(manager, entity, b"hello mit", 700, results.append)
    scenario.sim.run(until=2.0)
    assert results[0].ok
    # WAN propagation dominates: RTT slightly above 2 x 5 ms.
    assert 10e-3 < results[0].rtt < 20e-3


def test_campus_name_resolution_walks_hierarchy():
    scenario = build_sirpent_campus()
    latency_far = scenario.directory.query_latency("venus", "milo.lcs.mit.edu")
    latency_near = scenario.directory.query_latency("venus", "gregorio.cs.stanford.edu")
    assert latency_far > latency_near


def test_secure_objective_end_to_end():
    """A client asking for a secure route avoids the insecure link."""
    scenario = build_sirpent_line(n_routers=1)
    # Add a second, insecure-but-fast parallel path through r_fast.
    from repro.core.router import SirpentRouter

    fast = scenario.topology.add_node(
        SirpentRouter(scenario.sim, "r-fast",
                      control_plane=scenario.control_plane)
    )
    scenario.routers["r-fast"] = fast
    scenario.topology.connect(
        scenario.hosts["src"], fast, propagation_delay=1e-6, secure=False,
    )
    scenario.topology.connect(
        fast, scenario.hosts["dst"], propagation_delay=1e-6, secure=False,
    )
    fast_route = scenario.directory.query("src", RouteQuery("dst.lab.edu"))[0]
    secure_route = scenario.directory.query("src", RouteQuery(
        "dst.lab.edu", objective=PathObjective.SECURE,
    ))[0]
    assert not fast_route.secure
    assert secure_route.secure
    assert secure_route.propagation_delay > fast_route.propagation_delay
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    scenario.hosts["src"].send(secure_route, b"secret".ljust(200, b"\0"))
    scenario.sim.run(until=1.0)
    assert got[0].packet.hop_log == ["r1"]


def test_reply_needs_no_directory_lookup():
    """Servers answer along the reversed trailer: directory query count
    stays at the client's single lookup."""
    scenario = build_sirpent_line(n_routers=2)
    client = scenario.transport("src")
    server = scenario.transport("dst")
    entity = server.create_entity(lambda m: (b"ok", 2048), hint="server")
    routes = scenario.vmtp_routes("src", "dst")
    queries_before = scenario.directory.queries_served
    manager = RouteManager(scenario.sim, routes)
    results = []
    client.transact(manager, entity, b"q", 100, results.append)
    scenario.sim.run(until=2.0)
    assert results[0].ok
    assert scenario.directory.queries_served == queries_before


def test_intra_host_addressing_unified():
    """§2.2: the same segment mechanism addresses ports *within* hosts."""
    scenario = build_sirpent_line(n_routers=1)
    inboxes = {socket: [] for socket in (0, 3, 200)}
    for socket, box in inboxes.items():
        scenario.hosts["dst"].bind(socket, box.append)
    for socket in inboxes:
        route = scenario.routes("src", "dst", dest_socket=socket)[0]
        scenario.hosts["src"].send(route, f"to-{socket}".encode().ljust(100, b"\0"))
    scenario.sim.run(until=1.0)
    for socket, box in inboxes.items():
        assert len(box) == 1
        assert box[0].socket == socket
