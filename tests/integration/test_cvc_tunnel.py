"""Integration: Sirpent across an X.25/X.75 circuit network (§2.3).

"An analogous approach can be used to exploit existing X.25/X.75
(inter)networks, except for the additional problem of managing the
virtual circuits" — the tunnel attachment manages them: on-demand
setup, held while busy, released when idle.
"""


from repro.baselines.cvc import CvcHost, CvcSwitch
from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.core.tunnel import attach_cvc_tunnel
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment


class StaticRoute:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def build(idle_timeout=0.5):
    """src -- gwA ==(CVC network)== gwB -- dst."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    gw_a = topo.add_node(SirpentRouter(sim, "gwA"))
    gw_b = topo.add_node(SirpentRouter(sim, "gwB"))
    cvc_a = topo.add_node(CvcHost(sim, "cvcA"))
    cvc_b = topo.add_node(CvcHost(sim, "cvcB"))
    s1 = topo.add_node(CvcSwitch(sim, "s1"))
    s2 = topo.add_node(CvcSwitch(sim, "s2"))
    _, src_port, _ = topo.connect(src, gw_a)
    _, gwb_out, _ = topo.connect(gw_b, dst)
    _, ca_port, _ = topo.connect(cvc_a, s1)
    topo.connect(s1, s2)
    _, _, cb_port = topo.connect(s2, cvc_b)
    cvc_a.set_gateway(ca_port)
    cvc_b.set_gateway(cb_port)
    s1.install_routes(topo)
    s2.install_routes(topo)
    tunnel_a = attach_cvc_tunnel(gw_a, cvc_a, "cvcB",
                                 idle_timeout=idle_timeout)
    tunnel_b = attach_cvc_tunnel(gw_b, cvc_b, "cvcA",
                                 idle_timeout=idle_timeout)
    return (sim, topo, src, dst, tunnel_a, tunnel_b,
            src_port, gwb_out, [s1, s2])


def route_via(tunnel_a, gwb_out, src_port):
    return StaticRoute([
        HeaderSegment(port=tunnel_a.port_id),
        HeaderSegment(port=gwb_out),
        HeaderSegment(port=0),
    ], src_port)


def test_first_packet_triggers_setup_then_flows():
    sim, _t, src, dst, tunnel_a, _tb, src_port, gwb_out, switches = build()
    got = []
    dst.bind(0, got.append)
    route = route_via(tunnel_a, gwb_out, src_port)
    src.send(route, b"one".ljust(300, b"\0"))
    src.send(route, b"two".ljust(300, b"\0"))  # queued behind the pending setup
    sim.run(until=0.3)            # before the 0.5 s idle release
    assert [d.payload.rstrip(b"\0") for d in got] == [b"one", b"two"]
    assert tunnel_a.setups == 1  # one circuit served both
    assert all(s.held_circuits == 1 for s in switches)
    sim.run(until=1.0)           # idle: the tunnel returns the state
    assert all(s.held_circuits == 0 for s in switches)


def test_idle_circuit_released_and_reestablished():
    sim, _t, src, dst, tunnel_a, _tb, src_port, gwb_out, switches = build(
        idle_timeout=0.1,
    )
    got = []
    dst.bind(0, got.append)
    route = route_via(tunnel_a, gwb_out, src_port)
    src.send(route, b"first".ljust(300, b"\0"))
    sim.run(until=0.5)  # past the idle timeout
    assert all(s.held_circuits == 0 for s in switches)  # state returned
    src.send(route, b"second".ljust(300, b"\0"))
    sim.run(until=1.0)
    assert [d.payload.rstrip(b"\0") for d in got] == [b"first", b"second"]
    assert tunnel_a.setups == 2  # re-established on demand


def test_busy_circuit_stays_open():
    sim, _t, src, dst, tunnel_a, _tb, src_port, gwb_out, _sw = build(
        idle_timeout=0.2,
    )
    got = []
    dst.bind(0, got.append)
    route = route_via(tunnel_a, gwb_out, src_port)
    for index in range(6):
        sim.at(index * 0.1, lambda: src.send(route, b"tick".ljust(100, b"\0")))
    sim.run(until=1.5)
    assert len(got) == 6
    assert tunnel_a.setups == 1  # traffic kept it alive


def test_return_route_through_the_circuit():
    sim, _t, src, dst, tunnel_a, tunnel_b, src_port, gwb_out, _sw = build()
    got, replies = [], []
    dst.bind(0, got.append)
    src.bind(0, replies.append)
    src.send(route_via(tunnel_a, gwb_out, src_port), b"ping".ljust(200, b"\0"))
    sim.run(until=1.0)
    assert got
    dst.send_return(got[0], b"pong".ljust(100, b"\0"))
    sim.run(until=2.0)
    assert replies and replies[0].payload == b"pong".ljust(100, b"\0")
    assert tunnel_b.encapsulated == 1


def test_setup_rtt_charged_to_first_packet_only():
    sim, _t, src, dst, tunnel_a, _tb, src_port, gwb_out, _sw = build()
    got = []
    dst.bind(0, got.append)
    route = route_via(tunnel_a, gwb_out, src_port)
    src.send(route, b"cold".ljust(300, b"\0"))
    sim.run(until=0.3)
    src.send(route, b"warm".ljust(300, b"\0"))
    sim.run(until=0.6)
    cold = got[0].arrived_at - got[0].packet.created_at
    warm = got[1].arrived_at - got[1].packet.created_at
    # The first packet absorbed the circuit setup round trip.
    assert cold > warm + 1e-3
