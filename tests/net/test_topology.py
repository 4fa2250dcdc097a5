"""Unit tests for topology wiring and the graph view."""

import pytest

from repro.net.node import Node
from repro.net.topology import Topology
from repro.sim.engine import Simulator


def make_topology():
    sim = Simulator()
    topo = Topology(sim)
    a = topo.add_node(Node(sim, "a"))
    b = topo.add_node(Node(sim, "b"))
    c = topo.add_node(Node(sim, "c"))
    return sim, topo, a, b, c


def test_connect_assigns_ports_and_edges():
    _, topo, a, b, _ = make_topology()
    link, port_a, port_b = topo.connect(a, b, rate_bps=1e6)
    assert port_a in a.ports and port_b in b.ports
    edges = topo.edges()
    directed = {(e.src, e.dst) for e in edges}
    assert ("a", "b") in directed and ("b", "a") in directed


def test_connect_auto_registers_nodes():
    sim = Simulator()
    topo = Topology(sim)
    a, b = Node(sim, "x"), Node(sim, "y")
    topo.connect(a, b)
    assert "x" in topo.nodes and "y" in topo.nodes


def test_duplicate_node_name_rejected():
    sim, topo, a, _, _ = make_topology()
    with pytest.raises(ValueError):
        topo.add_node(Node(sim, "a"))


def test_duplicate_link_name_rejected():
    _, topo, a, b, c = make_topology()
    topo.connect(a, b, name="l1")
    with pytest.raises(ValueError):
        topo.connect(a, c, name="l1")


def test_channels_wired_to_receivers():
    _, topo, a, b, _ = make_topology()
    link, port_a, port_b = topo.connect(a, b)
    assert link.a_to_b.dst_attachment is b.ports[port_b]
    assert link.b_to_a.dst_attachment is a.ports[port_a]


def test_failed_link_excluded_from_edges():
    _, topo, a, b, c = make_topology()
    topo.connect(a, b, name="ab")
    topo.connect(b, c, name="bc")
    assert len(topo.edges()) == 4
    topo.fail_link("ab")
    live = {(e.src, e.dst) for e in topo.edges()}
    assert ("a", "b") not in live and ("b", "c") in live
    assert len(topo.all_edges()) == 4
    topo.restore_link("ab")
    assert len(topo.edges()) == 4


def test_fail_unknown_link_raises():
    _, topo, _, _, _ = make_topology()
    with pytest.raises(KeyError):
        topo.fail_link("nope")


def test_ethernet_attachment_creates_full_mesh_edges():
    sim, topo, a, b, c = make_topology()
    segment = topo.add_ethernet("eth0")
    topo.attach_to_ethernet(a, segment)
    topo.attach_to_ethernet(b, segment)
    topo.attach_to_ethernet(c, segment)
    ether_edges = [e for e in topo.edges() if e.medium == "ethernet"]
    directed = {(e.src, e.dst) for e in ether_edges}
    assert directed == {
        ("a", "b"), ("b", "a"), ("a", "c"), ("c", "a"), ("b", "c"), ("c", "b"),
    }
    for edge in ether_edges:
        assert edge.dst_mac is not None
        assert edge.src_mac is not None
        assert edge.dst_mac != edge.src_mac


def test_ethernet_edge_macs_are_consistent():
    sim, topo, a, b, _ = make_topology()
    segment = topo.add_ethernet("eth0")
    att_a = topo.attach_to_ethernet(a, segment)
    att_b = topo.attach_to_ethernet(b, segment)
    edge_ab = next(
        e for e in topo.edges() if e.src == "a" and e.dst == "b"
    )
    assert edge_ab.dst_mac == att_b.mac
    assert edge_ab.src_mac == att_a.mac
    assert edge_ab.port_id == att_a.port_id


def test_neighbors():
    _, topo, a, b, c = make_topology()
    topo.connect(a, b)
    topo.connect(a, c)
    assert sorted(edge.dst for edge in topo.edges_from("a")) == ["b", "c"]
    assert [edge.dst for edge in topo.edges_from("b")] == ["a"]


def test_node_lookup():
    _, topo, a, _, _ = make_topology()
    assert topo.nodes["a"] is a
    with pytest.raises(KeyError):
        topo.nodes["missing"]


def test_edge_attributes_propagate():
    _, topo, a, b, _ = make_topology()
    topo.connect(
        a, b, rate_bps=2e6, propagation_delay=3e-3, mtu=900,
        cost=7.0, secure=False,
    )
    edge = next(iter(topo.edges_from("a")))
    assert edge.rate_bps == 2e6
    assert edge.propagation_delay == 3e-3
    assert edge.mtu == 900
    assert edge.cost == 7.0
    assert edge.secure is False
