"""Integration: Sirpent over an IP internetwork as one logical hop (§2.3)."""


from repro.baselines.ip import IpAddressAllocator, IpHost, IpRouter
from repro.core.congestion import ControlPlane
from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.core.tunnel import attach_tunnel
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment
from tests.live.oracle import return_route


class StaticRoute:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def build_tunneled_internetwork(n_ip_routers=2):
    """src -- gwA ==(IP internetwork)== gwB -- dst.

    Each gateway is a Sirpent router co-located with an IP host; the IP
    cloud between them is a real link-state-routed line.
    """
    sim = Simulator()
    topo = Topology(sim)
    plane = ControlPlane(sim, topo)
    allocator = IpAddressAllocator()

    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    gw_a = topo.add_node(SirpentRouter(sim, "gwA", control_plane=plane))
    gw_b = topo.add_node(SirpentRouter(sim, "gwB", control_plane=plane))
    ip_a = topo.add_node(IpHost(sim, "ipA", allocator))
    ip_b = topo.add_node(IpHost(sim, "ipB", allocator))
    ip_routers = [
        topo.add_node(IpRouter(sim, f"ipr{i + 1}", plane, allocator))
        for i in range(n_ip_routers)
    ]
    # Sirpent access links.
    _, src_port, _ = topo.connect(src, gw_a)
    _, gwb_out, _ = topo.connect(gw_b, dst)
    # IP cloud: ipA - ipr1 - ... - iprN - ipB.
    _, ipa_port, _ = topo.connect(ip_a, ip_routers[0])
    for a, b in zip(ip_routers, ip_routers[1:]):
        topo.connect(a, b)
    _, _, ipb_port = topo.connect(ip_routers[-1], ip_b)
    ip_a.set_gateway(ipa_port)
    ip_b.set_gateway(ipb_port)
    names = {r.name for r in ip_routers}
    for router in ip_routers:
        router.routing.discover_neighbors(topo, names)
        router.routing.start()
    sim.run(until=0.3)  # converge the IP cloud

    # The tunnel: one logical port on each gateway.
    tunnel_a = attach_tunnel(gw_a, ip_a, peer_gateway="ipB")
    tunnel_b = attach_tunnel(gw_b, ip_b, peer_gateway="ipA")
    return (sim, topo, src, dst, gw_a, gw_b, tunnel_a, tunnel_b,
            src_port, gwb_out, ip_routers)


def test_sirpent_packet_crosses_ip_cloud():
    (sim, _t, src, dst, gw_a, gw_b, tunnel_a, tunnel_b,
     src_port, gwb_out, ip_routers) = build_tunneled_internetwork()
    got = []
    dst.bind(0, got.append)
    # The source names just three hops: gwA's tunnel port, gwB's exit,
    # destination socket — the whole IP internetwork is ONE logical hop.
    route = StaticRoute([
        HeaderSegment(port=tunnel_a.port_id),
        HeaderSegment(port=gwb_out),
        HeaderSegment(port=0),
    ], src_port)
    src.send(route, b"across the internet".ljust(600, b"\0"))
    sim.run(until=sim.now + 2.0)
    assert len(got) == 1
    delivered = got[0]
    assert delivered.payload == b"across the internet".ljust(600, b"\0")
    # Sirpent-visible path: just the two gateways.
    assert delivered.packet.hop_log.count("gwA") == 1
    assert delivered.packet.hop_log.count("gwB") == 1
    # The IP routers really carried it (encapsulated).
    assert all(r.stats.forwarded.count >= 1 for r in ip_routers)
    assert tunnel_a.encapsulated == 1
    assert tunnel_b.decapsulated == 1


def test_return_route_crosses_back():
    (sim, _t, src, dst, gw_a, gw_b, tunnel_a, tunnel_b,
     src_port, gwb_out, _ipr) = build_tunneled_internetwork()
    got, replies = [], []
    dst.bind(0, got.append)
    src.bind(0, replies.append)
    route = StaticRoute([
        HeaderSegment(port=tunnel_a.port_id),
        HeaderSegment(port=gwb_out),
        HeaderSegment(port=0),
    ], src_port)
    src.send(route, b"ping".ljust(200, b"\0"))
    sim.run(until=sim.now + 2.0)
    assert got
    # The trailer's return route includes gwB's tunnel port back to gwA.
    ports = [s.port for s in return_route(got[0])]
    assert tunnel_b.port_id in ports
    dst.send_return(got[0], b"pong".ljust(100, b"\0"))
    sim.run(until=sim.now + 2.0)
    assert replies and replies[0].payload == b"pong".ljust(100, b"\0")
    assert tunnel_b.encapsulated == 1


def test_tunnel_mtu_truncates_oversized():
    (sim, _t, src, dst, _ga, _gb, tunnel_a, _tb,
     src_port, gwb_out, _ipr) = build_tunneled_internetwork()
    got = []
    dst.bind(0, got.append)
    route = StaticRoute([
        HeaderSegment(port=tunnel_a.port_id),
        HeaderSegment(port=gwb_out),
        HeaderSegment(port=0),
    ], src_port)
    src.send(route, b"big".ljust(3000, b"\0"))  # beyond the 1400B tunnel MTU
    sim.run(until=sim.now + 2.0)
    assert len(got) == 1
    assert got[0].trailer.truncated
    assert len(got[0].payload) < 3000


def test_ip_cloud_failure_breaks_then_heals_tunnel():
    (sim, topo, src, dst, _ga, _gb, tunnel_a, _tb,
     src_port, gwb_out, ip_routers) = build_tunneled_internetwork(
        n_ip_routers=2,
    )
    got = []
    dst.bind(0, got.append)
    route = StaticRoute([
        HeaderSegment(port=tunnel_a.port_id),
        HeaderSegment(port=gwb_out),
        HeaderSegment(port=0),
    ], src_port)
    topo.fail_link("ipr1--ipr2")
    src.send(route, b"lost".ljust(100, b"\0"))
    sim.run(until=sim.now + 0.5)
    assert got == []  # the IP cloud black-holed it
    topo.restore_link("ipr1--ipr2")
    sim.run(until=sim.now + 0.5)  # hellos re-establish, SPF reroutes
    src.send(route, b"healed".ljust(100, b"\0"))
    sim.run(until=sim.now + 1.0)
    assert [d.payload.rstrip(b"\0") for d in got] == [b"healed"]
