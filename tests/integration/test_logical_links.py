"""Integration: logical links balance replicated trunks (§2.2)."""


from dataclasses import replace

from repro.core.host import SirpentHost
from repro.dataplane.logical import SelectionPolicy
from repro.core.router import SirpentRouter
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment
from tests.live.oracle import return_route


def build_trunk(n_channels=4, policy=SelectionPolicy.LEAST_LOADED):
    """src - rA ={n parallel links}= rB - dst, trunked as one logical port."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    ra = topo.add_node(SirpentRouter(sim, "rA"))
    rb = topo.add_node(SirpentRouter(sim, "rB"))
    _, src_port, _ = topo.connect(src, ra, rate_bps=100e6)
    member_ports = []
    links = []
    for index in range(n_channels):
        link, pa, _pb = topo.connect(
            ra, rb, rate_bps=10e6, name=f"trunk{index}",
        )
        member_ports.append(pa)
        links.append(link)
    _, rb_out, _ = topo.connect(rb, dst, rate_bps=100e6)
    LOGICAL = 100
    ra.logical.add_trunk(LOGICAL, member_ports, policy=policy)
    route = Route(
        "dst", [HeaderSegment(port=LOGICAL), HeaderSegment(port=rb_out),
         HeaderSegment(port=0)],
        src_port, None,
    )
    return sim, topo, src, dst, ra, links, route


def test_trunk_spreads_load_across_members():
    sim, _t, src, dst, _ra, links, route = build_trunk(n_channels=4)
    got = []
    dst.bind(0, got.append)
    for index in range(40):
        sim.at(index * 1e-4, lambda: src.send(route, bytes(1000)))
    sim.run(until=2.0)
    assert len(got) == 40
    per_member = [l.a_to_b.packets_sent.count for l in links]
    assert sum(per_member) == 40
    # Least-loaded balancing: every member carried a fair share.
    assert min(per_member) >= 5


def test_single_member_is_a_plain_link():
    sim, _t, src, dst, _ra, links, route = build_trunk(n_channels=1)
    got = []
    dst.bind(0, got.append)
    src.send(route, bytes(500))
    sim.run(until=1.0)
    assert len(got) == 1
    assert links[0].a_to_b.packets_sent.count == 1


def test_flow_hash_keeps_flows_on_one_member():
    from repro.viper.portinfo import LogicalInfo

    sim, _t, src, dst, _ra, links, route = build_trunk(
        n_channels=4, policy=SelectionPolicy.FLOW_HASH,
    )
    got = []
    dst.bind(0, got.append)
    hint = LogicalInfo(label=1, flow_hint=2).to_bytes()
    flow_route = replace(
        route, segments=[route.segments[0].copy(portinfo=hint), *route.segments[1:]],
    )
    for index in range(20):
        sim.at(index * 1e-3, lambda: src.send(flow_route, bytes(500)))
    sim.run(until=2.0)
    assert len(got) == 20
    used = [l for l in links if l.a_to_b.packets_sent.count > 0]
    assert len(used) == 1  # all of the flow stayed on one channel


def test_trunk_survives_member_failure():
    """Late binding: the router routes around a dead member without the
    source ever knowing (the 'fine-grain rerouting' of §2.2)."""
    sim, topo, src, dst, _ra, links, route = build_trunk(n_channels=3)
    got = []
    dst.bind(0, got.append)
    links[0].fail()
    for index in range(12):
        sim.at(index * 1e-3, lambda: src.send(route, bytes(500)))
    sim.run(until=2.0)
    # The dead member is busy=False but sends vanish... least-loaded may
    # still pick it; Sirpent handles that as loss + transport retry.  At
    # the raw-host level we simply require the live members to carry
    # most traffic once the dead link looks "busy" (it never frees).
    delivered = len(got)
    assert delivered >= 10


def test_transit_expansion_splices_route():
    """§2.2: a logical port standing for a multi-hop transit path."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    entry = topo.add_node(SirpentRouter(sim, "entry"))
    middle = topo.add_node(SirpentRouter(sim, "middle"))
    exit_ = topo.add_node(SirpentRouter(sim, "exit"))
    _, src_port, _ = topo.connect(src, entry)
    _, entry_to_middle, _ = topo.connect(entry, middle)
    _, middle_to_exit, _ = topo.connect(middle, exit_)
    _, exit_to_dst, _ = topo.connect(exit_, dst)
    LOGICAL = 120
    entry.logical.add_transit(LOGICAL, [
        HeaderSegment(port=entry_to_middle),   # entry's own out-port
        HeaderSegment(port=middle_to_exit),    # consumed by middle
        HeaderSegment(port=exit_to_dst),       # consumed by exit
    ])
    got = []
    dst.bind(0, got.append)
    # The source names only [logical hop, final]: two segments.
    route = Route(
        "dst", [HeaderSegment(port=LOGICAL), HeaderSegment(port=0)], src_port, None
    )
    src.send(route, b"transit".ljust(300, b"\0"))
    sim.run(until=1.0)
    assert len(got) == 1
    assert got[0].packet.hop_log == ["entry", "middle", "exit"]
    # Shorter header on the source side, full return route on arrival.
    assert len(return_route(got[0])) == 3
