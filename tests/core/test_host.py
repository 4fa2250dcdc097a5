"""Unit tests for the Sirpent host stack."""

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment
from tests.live.oracle import return_route, structural


class StaticRoute:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def direct_pair():
    """Two hosts joined by one router on p2p links."""
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_node(SirpentHost(sim, "a"))
    b = topo.add_node(SirpentHost(sim, "b"))
    router = topo.add_node(SirpentRouter(sim, "r"))
    _, a_port, _ = topo.connect(a, router)
    _, out_port, _ = topo.connect(router, b)
    return sim, a, b, router, a_port, out_port


def test_socket_demultiplexing():
    sim, a, b, _r, a_port, out_port = direct_pair()
    box_default, box_seven = [], []
    b.bind(0, box_default.append)
    b.bind(7, box_seven.append)
    a.send(StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=7)], a_port
    ), b"to-seven".ljust(100, b"\0"))
    a.send(StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=0)], a_port
    ), b"to-default".ljust(100, b"\0"))
    sim.run(until=1.0)
    assert len(box_seven) == 1 and box_seven[0].socket == 7
    assert len(box_default) == 1 and box_default[0].socket == 0


def test_unbound_socket_counted_undeliverable():
    sim, a, b, _r, a_port, out_port = direct_pair()
    a.send(StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=42)], a_port
    ), b"nowhere".ljust(100, b"\0"))
    sim.run(until=1.0)
    assert b.undeliverable.count == 1
    assert b.received.count == 1  # received, just not deliverable


def test_double_bind_rejected():
    sim, _a, b, _r, _ap, _op = direct_pair()
    b.bind(5, lambda d: None)
    with pytest.raises(ValueError):
        b.bind(5, lambda d: None)


def test_priority_stamped_on_all_segments():
    sim, a, b, _r, a_port, out_port = direct_pair()
    got = []
    b.bind(0, got.append)
    a.send(StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=0)], a_port
    ), b"urgent".ljust(100, b"\0"), priority=6)
    sim.run(until=1.0)
    # The final segment still carries the priority at delivery.
    assert structural(got[0].packet).segments[0].priority == 6
    assert return_route(got[0])[0].priority == 6


def test_send_return_reaches_reply_socket():
    sim, a, b, _r, a_port, out_port = direct_pair()
    delivered_at_b = []
    replies_at_a = []
    b.bind(0, delivered_at_b.append)
    a.bind(9, replies_at_a.append)
    a.send(StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=0)], a_port
    ), b"request".ljust(300, b"\0"))
    sim.run(until=0.5)
    b.send_return(delivered_at_b[0], b"reply".ljust(150, b"\0"), reply_socket=9)
    sim.run(until=1.0)
    assert len(replies_at_a) == 1
    assert replies_at_a[0].socket == 9
    assert replies_at_a[0].payload == b"reply".ljust(150, b"\0")


def test_delivery_statistics():
    sim, a, b, _r, a_port, out_port = direct_pair()
    b.bind(0, lambda d: None)
    for _ in range(3):
        a.send(StaticRoute(
            [HeaderSegment(port=out_port), HeaderSegment(port=0)], a_port
        ), bytes(100))
    sim.run(until=1.0)
    assert a.sent.count == 3
    assert b.received.count == 3
    assert b.delivery_delay.count == 3


def test_send_on_missing_port_raises():
    sim, a, _b, _r, _ap, out_port = direct_pair()
    with pytest.raises(KeyError):
        a.send(StaticRoute([HeaderSegment(port=0)], first_hop_port=99),
               bytes(10))


def test_ethernet_host_return_path_uses_frame_macs():
    """Hosts on an Ethernet learn the first return hop from the arrival
    frame (§2's reversal of enetHdr)."""
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_node(SirpentHost(sim, "a"))
    b = topo.add_node(SirpentHost(sim, "b"))
    segment = topo.add_ethernet("eth")
    att_a = topo.attach_to_ethernet(a, segment)
    att_b = topo.attach_to_ethernet(b, segment)
    got = []
    b.bind(0, got.append)
    # Direct host-to-host on one Ethernet: a single final segment.
    a.send(StaticRoute([HeaderSegment(port=0)], att_a.port_id,
                       first_hop_mac=att_b.mac), b"hello".ljust(64, b"\0"))
    sim.run(until=1.0)
    assert len(got) == 1
    assert got[0].first_hop_mac == att_a.mac
    assert got[0].arrival_port == att_b.port_id
