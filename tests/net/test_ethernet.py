"""Unit tests for the shared Ethernet segment."""

import pytest

from repro.net.addresses import BROADCAST, MacAddress
from repro.net.ethernet import EthernetSegment
from repro.net.node import EthernetAttachment, Node
from repro.sim.engine import Simulator
from tests.sim.oracle import pending


class RecordingNode(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.headers = []
        self.packets = []
        self.aborts = []

    def on_header(self, packet, inport, tx):
        self.headers.append((self.sim.now, packet, tx))

    def on_packet(self, packet, inport, tx):
        self.packets.append((self.sim.now, packet, tx))

    def on_abort(self, packet, inport):
        self.aborts.append((self.sim.now, packet))


def make_segment(sim, n_stations=3, rate=10e6, prop=5e-6, node_classes=None):
    """A segment of ``n_stations`` recording stations, or one station of
    each of ``node_classes``."""
    segment = EthernetSegment(sim, rate_bps=rate, propagation_delay=prop, name="eth")
    stations = []
    for index, node_class in enumerate(node_classes or [RecordingNode] * n_stations):
        node = node_class(sim, f"n{index}")
        attachment = EthernetAttachment(node, 1, segment, MacAddress(100 + index))
        node.attach(1, attachment)
        segment.register(attachment)
        stations.append((node, attachment))
    return segment, stations


def test_unicast_reaches_only_destination():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (n0, a0), (n1, a1), (n2, a2) = stations
    segment.transmit(a0, a1.mac, "pkt", 500, 50)
    sim.run()
    assert len(n1.packets) == 1
    assert n2.packets == [] and n0.packets == []


def test_timing_matches_channel_model():
    sim = Simulator()
    segment, stations = make_segment(sim, rate=10e6, prop=5e-6)
    (_, a0), (n1, a1), _ = stations
    segment.transmit(a0, a1.mac, "pkt", 1250, 125)
    sim.run()
    assert n1.headers[0][0] == pytest.approx(125 * 8 / 10e6 + 5e-6)
    assert n1.packets[0][0] == pytest.approx(1250 * 8 / 10e6 + 5e-6)


def test_transmission_carries_frame_macs():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (_, a0), (n1, a1), _ = stations
    segment.transmit(a0, a1.mac, "pkt", 100, 10)
    sim.run()
    _, _, tx = n1.packets[0]
    assert tx.src_mac == a0.mac
    assert tx.dst_mac == a1.mac


def test_broadcast_reaches_everyone_but_sender():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (n0, a0), (n1, _), (n2, _) = stations
    segment.transmit(a0, MacAddress(BROADCAST), "pkt", 100, 10)
    sim.run()
    assert len(n1.packets) == 1 and len(n2.packets) == 1
    assert n0.packets == []


def test_medium_serializes_contending_frames():
    sim = Simulator()
    segment, stations = make_segment(sim, rate=10e6, prop=0.0)
    (_, a0), (n1, a1), (_, a2) = stations
    segment.transmit(a0, a1.mac, "first", 1250, 1250)   # 1ms
    segment.transmit(a2, a1.mac, "second", 1250, 1250)  # queued behind
    sim.run()
    times = [t for t, _, _ in n1.packets]
    assert times[0] == pytest.approx(1e-3)
    assert times[1] == pytest.approx(2e-3)


def test_busy_reflects_backlog():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (_, a0), (_, a1), (_, a2) = stations
    assert not segment.busy
    segment.transmit(a0, a1.mac, "a", 1000, 100)
    segment.transmit(a2, a1.mac, "b", 1000, 100)
    assert segment.busy


def test_abort_by_sender_only():
    sim = Simulator()
    segment, stations = make_segment(sim, prop=0.0)
    (n0, a0), (n1, a1), (_, a2) = stations
    segment.transmit(a0, a1.mac, "victim", 1250, 10)
    segment.abort_current(a2)  # not the sender: no-op
    assert segment.current_priority(a0) == 0
    segment.abort_current(a0)
    sim.run()
    assert n1.packets == []
    assert len(n1.aborts) == 1


def test_unknown_destination_vanishes():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (_, a0), _, _ = stations
    segment.transmit(a0, MacAddress(0xDEAD), "pkt", 100, 10)
    sim.run()  # no receiver: nothing delivered, nothing crashes
    assert segment.frames_sent.count == 1


def test_failed_segment_drops_everything():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (_, a0), (n1, a1), _ = stations
    segment.fail()
    segment.transmit(a0, a1.mac, "pkt", 100, 10)
    sim.run()
    assert n1.packets == []


def test_failure_mid_frame_tells_stations_that_have_the_header():
    sim = Simulator()
    segment, stations = make_segment(sim, rate=10e6, prop=5e-6)
    (_, a0), (n1, a1), (n2, _) = stations
    aborted_at_sender = []
    # 1250 B = 1 ms on the wire; the 125 B header lands at 105 us.
    segment.transmit(a0, a1.mac, "pkt", 1250, 125,
                     on_abort=aborted_at_sender.append)
    sim.after(500e-6, segment.fail)
    sim.run()
    assert len(n1.headers) == 1 and n1.packets == []
    assert n1.aborts == [(pytest.approx(505e-6), "pkt")]
    assert n2.aborts == []
    assert aborted_at_sender == ["pkt"]


def test_failure_before_the_header_lands_is_silent_downstream_only():
    """No receiver hears of the frame; its sender still learns it died
    (as on a ``Channel``), and so does the sender of a backlogged one."""
    sim = Simulator()
    segment, stations = make_segment(sim, rate=10e6, prop=5e-6)
    (_, a0), (n1, a1), (_, a2) = stations
    aborted_at_sender = []
    segment.transmit(a0, a1.mac, "pkt", 1250, 125,
                     on_abort=aborted_at_sender.append)
    segment.transmit(a2, a1.mac, "waiting", 1250, 125,
                     on_abort=aborted_at_sender.append)
    sim.after(50e-6, segment.fail)
    sim.run()
    assert n1.headers == [] and n1.packets == [] and n1.aborts == []
    assert aborted_at_sender == ["pkt", "waiting"]


def test_frame_into_a_dead_segment_aborts_at_its_sender():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (_, a0), (n1, a1), _ = stations
    done, aborted = [], []
    segment.fail()
    segment.transmit(a0, a1.mac, "pkt", 500, 50,
                     on_done=lambda: done.append("pkt"), on_abort=aborted.append)
    sim.run()
    assert n1.packets == [] and done == [] and aborted == ["pkt"]
    assert not segment.busy


def test_duplicate_mac_rejected():
    sim = Simulator()
    segment, stations = make_segment(sim)
    node = RecordingNode(sim, "dup")
    attachment = EthernetAttachment(node, 1, segment, stations[0][1].mac)
    with pytest.raises(ValueError):
        segment.register(attachment)


def test_station_node_name_lookup():
    sim = Simulator()
    segment, stations = make_segment(sim)
    (_, a0), _, _ = stations
    assert segment.station_node_name(a0.mac) == "n0"
    assert segment.station_node_name(MacAddress(1)) is None


class TakingNode(RecordingNode):
    """Cuts every frame through at its header, as a router does."""

    def on_header(self, packet, inport, tx):
        super().on_header(packet, inport, tx)
        tx.taken_by(inport)


@pytest.mark.parametrize("header_bytes", [125, 1250])
def test_the_completion_fires_in_its_place_among_same_time_events(header_bytes):
    """As on a channel: pushed by the header event, the completion keeps
    the number the frame's start gave it."""
    sim = Simulator()
    segment, stations = make_segment(sim, n_stations=2)
    (_, a0), (n1, a1) = stations
    order = []
    n1.on_packet = lambda packet, inport, tx: order.append(packet)
    complete_at = 0.0 + 1250 * 8.0 / 10e6 + 5e-6  # as the segment adds it
    sim.at(complete_at, order.append, "before")
    segment.transmit(a0, a1.mac, "pkt", 1250, header_bytes)
    sim.at(complete_at, order.append, "after")
    sim.run()
    assert order == ["before", "pkt", "after"]


def test_a_frame_every_receiver_took_never_pushes_its_completion():
    sim = Simulator()
    segment, stations = make_segment(sim, node_classes=[RecordingNode, TakingNode, TakingNode])
    (_, a0), (n1, a1), (n2, _) = stations
    segment.transmit(a0, a1.mac, "unicast", 1250, 125)
    sim.run()
    assert len(n1.headers) == 1 and n1.packets == []
    assert sim.events_executed == 2  # the header and the medium's free
    segment.transmit(a0, MacAddress(BROADCAST), "broadcast", 1250, 125)
    sim.run()
    assert n1.packets == [] and n2.packets == []
    assert sim.events_executed == 4


def test_a_broadcast_one_station_took_still_completes_at_the_others():
    sim = Simulator()
    segment, stations = make_segment(sim, node_classes=[RecordingNode, TakingNode, RecordingNode])
    (_, a0), (n1, _), (n2, _) = stations
    segment.transmit(a0, MacAddress(BROADCAST), "pkt", 1250, 125)
    sim.run()
    assert n1.packets == [] and [p for _, p, _ in n2.packets] == ["pkt"]


@pytest.mark.parametrize("node_class", [RecordingNode, TakingNode])
@pytest.mark.parametrize("abort_at", [50e-6, 500e-6])
def test_an_abort_before_or_after_the_header_leaves_no_stray_event(
    node_class, abort_at,
):
    """The header lands at 105 us: aborted at 50 us the receiver hears
    only the tail, at 500 us it has the header (and a taker took the
    frame); nothing of the frame fires after the abort but on_abort."""
    sim = Simulator()
    segment, stations = make_segment(sim, node_classes=[RecordingNode, node_class])
    (_, a0), (n1, a1) = stations
    segment.transmit(a0, a1.mac, "pkt", 1250, 125)
    sim.at(abort_at, segment.abort_current, a0)
    sim.run()
    heard = abort_at > 105e-6
    assert len(n1.headers) == (1 if heard else 0)
    assert n1.packets == []
    assert n1.aborts == [(pytest.approx(abort_at + 5e-6), "pkt")]
    assert sim.events_executed == 2 + (1 if heard else 0)
    assert pending(sim) == 0
