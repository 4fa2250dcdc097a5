"""Unit tests for the directory service (§3)."""

import pytest

from repro.core.router import SirpentRouter
from repro.core.host import SirpentHost
from repro.directory import DirectoryService, RegionServer, RouteQuery
from repro.directory.pathfind import PathObjective
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.portinfo import EthernetInfo


def build_network(refresh_interval=None):
    """h1 -(eth1)- r1 = r2 -(eth2)- h2 with an alternate r1-r3-r2 path."""
    sim = Simulator()
    topo = Topology(sim)
    h1 = topo.add_node(SirpentHost(sim, "h1"))
    h2 = topo.add_node(SirpentHost(sim, "h2"))
    r1 = topo.add_node(SirpentRouter(sim, "r1"))
    r2 = topo.add_node(SirpentRouter(sim, "r2"))
    r3 = topo.add_node(SirpentRouter(sim, "r3"))
    eth1 = topo.add_ethernet("eth1")
    eth2 = topo.add_ethernet("eth2")
    topo.attach_to_ethernet(h1, eth1)
    topo.attach_to_ethernet(r1, eth1)
    topo.attach_to_ethernet(h2, eth2)
    topo.attach_to_ethernet(r2, eth2)
    topo.connect(r1, r2, propagation_delay=1e-3, mtu=1200, name="main")
    topo.connect(r1, r3, propagation_delay=2e-3, name="alt-a")
    topo.connect(r3, r2, propagation_delay=2e-3, name="alt-b")
    root = RegionServer(sim)
    directory = DirectoryService(
        sim, topo, root_server=root, refresh_interval=refresh_interval
    )
    directory.register_host("h1", "h1.cs.stanford.edu")
    directory.register_host("h2", "h2.lcs.mit.edu")
    return sim, topo, directory


def test_query_returns_route_with_attributes():
    _sim, _topo, directory = build_network()
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert len(routes) == 1
    route = routes[0]
    assert route.hop_count == 2
    assert route.mtu == 1200  # bottleneck on the main link
    assert route.bottleneck_bps == 10e6
    assert route.propagation_delay > 1e-3
    # Final segment addresses the destination's socket 0.
    assert route.segments[-1].port == 0


def test_unknown_destination_returns_empty():
    _sim, _topo, directory = build_network()
    assert directory.query("h1", RouteQuery("nobody.example.org")) == []


def test_k_routes_are_distinct_and_ordered():
    _sim, _topo, directory = build_network()
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu", k=3))
    assert len(routes) == 2  # main and the r3 detour
    assert routes[0].hop_count < routes[1].hop_count


def test_ethernet_hops_carry_portinfo():
    _sim, _topo, directory = build_network()
    route = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))[0]
    # First hop is h1's Ethernet toward r1: the Route addresses it.
    assert route.first_hop_mac is not None
    # r2's segment exits onto eth2: full 14-byte Ethernet portinfo.
    last_router_segment = route.segments[-2]
    info = EthernetInfo.from_bytes(last_router_segment.portinfo)
    assert info.dst is not None
    # r1's segment crosses the p2p link: VNT set, void portinfo.
    assert route.segments[0].vnt
    assert route.segments[0].portinfo == b""


def test_tokens_minted_per_router():
    _sim, topo, directory = build_network()
    route = directory.query(
        "h1", RouteQuery("h2.lcs.mit.edu", with_tokens=True, account=9)
    )[0]
    router_segments = route.segments[:-1]
    assert all(s.token for s in router_segments)
    # Each token verifies against its router's own mint.
    r1 = topo.nodes["r1"]
    claims = r1.mint.verify(route.segments[0].token)
    assert claims.account == 9
    assert claims.authorizes_port(route.segments[0].port)
    assert directory.tokens_issued == 2


def test_stale_view_hides_recent_failure():
    """With a refresh interval, a just-failed link is still handed out —
    clients must cope via cached alternates (E6's premise)."""
    sim, topo, directory = build_network(refresh_interval=1.0)
    topo.fail_link("main")
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert routes[0].hop_count == 2  # still the dead 2-hop path
    sim.run(until=1.5)  # refresh happens
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert routes[0].hop_count == 3  # now via r3


def test_live_view_reacts_immediately():
    _sim, topo, directory = build_network(refresh_interval=None)
    topo.fail_link("main")
    routes = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))
    assert routes[0].hop_count == 3


def test_load_reports_steer_low_cost_routes():
    _sim, _topo, directory = build_network()
    before = directory.query(
        "h1", RouteQuery("h2.lcs.mit.edu", objective=PathObjective.LOW_COST)
    )[0]
    assert before.hop_count == 2
    directory.record_load("main", 0.95)
    after = directory.query(
        "h1", RouteQuery("h2.lcs.mit.edu", objective=PathObjective.LOW_COST)
    )[0]
    assert after.hop_count == 3  # detour is now cheaper


def test_query_latency_includes_region_walk():
    _sim, _topo, directory = build_network()
    latency = directory.query_latency("h1", "h2.lcs.mit.edu")
    assert latency > directory.query_rtt  # cross-region hops add cost
    # Cached second lookup: just the server round trip.
    latency2 = directory.query_latency("h1", "h2.lcs.mit.edu")
    assert latency2 == pytest.approx(directory.query_rtt)


def test_advisory_fires_on_route_change():
    sim, topo, directory = build_network()
    advisories = []
    directory.subscribe(
        "h1", RouteQuery("h2.lcs.mit.edu"), advisories.append
    )
    sim.run(until=0.2)
    assert len(advisories) == 1  # initial advisory
    topo.fail_link("main")
    sim.run(until=0.5)
    assert len(advisories) == 2
    assert advisories[-1][0].hop_count == 3


def test_route_max_payload_and_expected_rtt():
    _sim, _topo, directory = build_network()
    route = directory.query("h1", RouteQuery("h2.lcs.mit.edu"))[0]
    assert 0 < route.max_payload() < route.mtu
    rtt = route.expected_rtt(500)
    assert rtt > 2 * route.propagation_delay
