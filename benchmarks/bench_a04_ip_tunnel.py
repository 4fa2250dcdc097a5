"""A4 — §2.3 compatibility: Sirpent over IP as one logical hop.

"A Sirpent packet can view the Internet as providing one logical hop
across its internetwork … all existing networks (and internetworks) can
be incorporated into the Sirpent approach."

Setup: two Sirpent edge networks joined by a genuine IP internetwork
(link-state routed, store-and-forward, 2 routers).  The source route
names *three* segments regardless of the IP cloud's depth; compare the
header cost and delay against hop-by-hop Sirpent over the same physical
path, sweeping the cloud's size.
"""

from __future__ import annotations

from repro.baselines.ip import IpAddressAllocator, IpHost, IpRouter
from repro.core.congestion import ControlPlane
from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.core.tunnel import attach_tunnel
from repro.net.topology import Topology
from repro.scenarios import build_sirpent_line
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment

from benchmarks._common import format_table, ms, publish

PAYLOAD = 800


class _Route:
    def __init__(self, segments, first_hop_port):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = None


def run_tunnel(cloud_routers: int):
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
    routers = [
        topo.add_node(IpRouter(sim, f"ipr{i + 1}", plane, allocator))
        for i in range(cloud_routers)
    ]
    _, src_port, _ = topo.connect(src, gw_a)
    _, gwb_out, _ = topo.connect(gw_b, dst)
    _, ipa_port, _ = topo.connect(ip_a, routers[0])
    for a, b in zip(routers, routers[1:]):
        topo.connect(a, b)
    _, _, ipb_port = topo.connect(routers[-1], ip_b)
    ip_a.set_gateway(ipa_port)
    ip_b.set_gateway(ipb_port)
    names = {r.name for r in routers}
    for router in routers:
        router.routing.discover_neighbors(topo, names)
        router.routing.start()
    sim.run(until=0.3)
    tunnel_a = attach_tunnel(gw_a, ip_a, peer_gateway="ipB")
    attach_tunnel(gw_b, ip_b, peer_gateway="ipA")

    got = []
    dst.bind(0, got.append)
    route = _Route([
        HeaderSegment(port=tunnel_a.port_id),
        HeaderSegment(port=gwb_out),
        HeaderSegment(port=0),
    ], src_port)
    start = sim.now
    src.send(route, bytes(PAYLOAD))
    sim.run(until=start + 2.0)
    header = sum(s.wire_size() for s in route.segments)
    return {
        "delay": got[0].arrived_at - start,
        "segments": len(route.segments),
        "header_bytes": header,
        "sirpent_hops_seen": got[0].packet.hops_taken,
    }


def run_native(total_routers: int):
    scenario = build_sirpent_line(n_routers=total_routers)
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    route = scenario.routes("src", "dst")[0]
    start = scenario.sim.now
    scenario.hosts["src"].send(route, bytes(PAYLOAD))
    scenario.sim.run(until=start + 2.0)
    return {
        "delay": got[0].arrived_at - start,
        "segments": len(route.segments),
        "header_bytes": sum(s.wire_size() for s in route.segments),
        "sirpent_hops_seen": got[0].packet.hops_taken,
    }


def run_all():
    rows = []
    for cloud in (2, 4):
        tunneled = run_tunnel(cloud)
        native = run_native(cloud + 2)  # same physical router count
        rows.append((cloud, tunneled, native))
    return rows


def bench_a04_ip_tunnel(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        "A4  Sirpent across an IP cloud as ONE logical hop vs native "
        "hop-by-hop Sirpent",
        ["IP cloud routers", "scheme", "route segments", "header bytes",
         "delay (ms)", "Sirpent hops visible"],
        [
            row
            for cloud, tunneled, native in rows
            for row in (
                (cloud, "tunneled (logical hop)", tunneled["segments"],
                 tunneled["header_bytes"], ms(tunneled["delay"]),
                 tunneled["sirpent_hops_seen"]),
                (cloud, "native Sirpent", native["segments"],
                 native["header_bytes"], ms(native["delay"]),
                 native["sirpent_hops_seen"]),
            )
        ],
    )
    note = (
        "\nPaper §2.3: the source names one logical hop however deep the\n"
        "IP transit is — constant header, later route binding — at the\n"
        "price of the transit's store-and-forward delays.  'The IP\n"
        "approach can be viewed as an extreme in false optimization of\n"
        "the Sirpent approach.'"
    )
    publish("a04_ip_tunnel", table + note)

    for cloud, tunneled, native in rows:
        # The tunneled route's header does not grow with the cloud.
        assert tunneled["segments"] == 3
        assert tunneled["sirpent_hops_seen"] == 2
        # The native route names every router.
        assert native["segments"] == cloud + 2 + 1
        # Cut-through end to end beats store-and-forward transit.
        assert native["delay"] < tunneled["delay"]
    # Constant tunneled header vs growing native header.
    assert rows[0][1]["header_bytes"] == rows[1][1]["header_bytes"]
    assert rows[1][2]["header_bytes"] > rows[0][2]["header_bytes"]
