"""Unit tests for the §2.2 "feed forward" load hint.

"we are also exploring providing 'feed forward' load information on
packets transiting rate-controlled links.  That is, packets include
information on the number of packets queued behind them at their
previous router."
"""


from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment


def build():
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    router = topo.add_node(SirpentRouter(
        sim, "r1", config=RouterConfig(congestion_enabled=False),
    ))
    # Fast access, slow egress: packets pile up at the router.
    _, src_port, _ = topo.connect(src, router, rate_bps=100e6)
    _, out_port, _ = topo.connect(router, dst, rate_bps=10e6)
    return sim, src, dst, src_port, out_port


def test_queued_packets_carry_backlog_hint():
    sim, src, dst, src_port, out_port = build()
    got = []
    dst.bind(0, got.append)
    route = Route(
        "dst", [HeaderSegment(port=out_port), HeaderSegment(port=0)], src_port, None
    )
    for _ in range(5):  # burst: egress 10x slower than ingress
        src.send(route, bytes(1000))
    sim.run(until=1.0)
    hints = [d.packet.feed_forward_load for d in got]
    assert len(hints) == 5
    # The first packet saw an empty queue; later ones report the
    # backlog shrinking behind them as the queue drains.
    assert hints[0] == 0
    assert max(hints) >= 1
    assert hints[1:] == sorted(hints[1:], reverse=True)


def test_unloaded_path_reports_zero():
    sim, src, dst, src_port, out_port = build()
    got = []
    dst.bind(0, got.append)
    route = Route(
        "dst", [HeaderSegment(port=out_port), HeaderSegment(port=0)], src_port, None
    )
    for index in range(3):
        sim.at(index * 10e-3, lambda: src.send(route, bytes(500)))
    sim.run(until=1.0)
    assert all(d.packet.feed_forward_load == 0 for d in got)
