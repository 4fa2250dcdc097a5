"""Unit tests for the Node base class and port management."""

import pytest

from repro.net.node import LOCAL_PORT, MAX_PORT, Node
from repro.net.link import Channel
from repro.net.node import P2PAttachment
from repro.sim.engine import Simulator


def make_attachment(sim, node, port_id):
    channel = Channel(sim, 1e6, 0.0)
    return P2PAttachment(node, port_id, channel, peer_name="peer")


def test_port_zero_is_reserved():
    sim = Simulator()
    node = Node(sim, "n")
    with pytest.raises(ValueError):
        node.attach(LOCAL_PORT, make_attachment(sim, node, LOCAL_PORT))


def test_port_range_enforced():
    sim = Simulator()
    node = Node(sim, "n")
    with pytest.raises(ValueError):
        node.attach(MAX_PORT + 1, make_attachment(sim, node, MAX_PORT + 1))
    node.attach(MAX_PORT, make_attachment(sim, node, MAX_PORT))  # ok


def test_duplicate_port_rejected():
    sim = Simulator()
    node = Node(sim, "n")
    node.attach(3, make_attachment(sim, node, 3))
    with pytest.raises(ValueError):
        node.attach(3, make_attachment(sim, node, 3))


def test_free_port_id_skips_used():
    sim = Simulator()
    node = Node(sim, "n")
    assert node.free_port_id() == 1
    node.attach(1, make_attachment(sim, node, 1))
    node.attach(2, make_attachment(sim, node, 2))
    node.attach(4, make_attachment(sim, node, 4))
    assert node.free_port_id() == 3


def test_port_lookup():
    sim = Simulator()
    node = Node(sim, "n")
    attachment = make_attachment(sim, node, 7)
    node.attach(7, attachment)
    assert node.ports[7] is attachment
    assert 8 not in node.ports


def test_port_exhaustion():
    sim = Simulator()
    node = Node(sim, "n")
    for port_id in range(1, MAX_PORT + 1):
        node.attach(port_id, make_attachment(sim, node, port_id))
    with pytest.raises(RuntimeError):
        node.free_port_id()


def test_default_hooks_are_noops():
    sim = Simulator()
    node = Node(sim, "n")
    attachment = make_attachment(sim, node, 1)
    node.attach(1, attachment)
    assert not attachment.hears_headers  # no on_header: no header events
    node.on_abort("pkt", attachment)
