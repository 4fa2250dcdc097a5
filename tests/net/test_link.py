"""Unit tests for the bit-timed channel model.

These pin down the arithmetic the whole reproduction rests on: header
events precede completion events by exactly the remaining serialization
time, and preemption aborts cleanly.
"""

import pytest

from repro.net.link import Channel, ChannelBusyError, Link
from repro.net.node import Node, P2PAttachment
from repro.sim.engine import Simulator
from tests.sim.oracle import pending


class RecordingNode(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.headers = []
        self.packets = []
        self.aborts = []

    def on_header(self, packet, inport, tx):
        self.headers.append((self.sim.now, packet))

    def on_packet(self, packet, inport, tx):
        self.packets.append((self.sim.now, packet))

    def on_abort(self, packet, inport):
        self.aborts.append((self.sim.now, packet))


def make_channel(sim, rate=1e6, prop=1e-3, node_class=RecordingNode):
    receiver = node_class(sim, "rx")
    channel = Channel(sim, rate_bps=rate, propagation_delay=prop, name="ch")
    attachment = P2PAttachment(receiver, 1, channel, peer_name="tx")
    receiver.attach(1, attachment)
    channel.dst_attachment = attachment
    return channel, receiver


def test_header_and_completion_times():
    sim = Simulator()
    channel, receiver = make_channel(sim, rate=1e6, prop=1e-3)
    # 1000 bytes at 1 Mbps = 8 ms serialization; header = 100 bytes = 0.8 ms
    channel.transmit("pkt", size=1000, header_bytes=100)
    sim.run()
    header_time = receiver.headers[0][0]
    complete_time = receiver.packets[0][0]
    assert header_time == pytest.approx(0.8e-3 + 1e-3)
    assert complete_time == pytest.approx(8e-3 + 1e-3)


def test_channel_frees_at_end_of_serialization():
    sim = Simulator()
    channel, _ = make_channel(sim, rate=1e6, prop=1e-3)
    freed = []
    channel.transmit("pkt", 1000, 100, on_done=lambda: freed.append(sim.now))
    sim.run()
    # Free at serialization end, NOT at arrival (propagation excluded).
    assert freed == [pytest.approx(8e-3)]


def test_busy_channel_rejects_transmit():
    sim = Simulator()
    channel, _ = make_channel(sim)
    channel.transmit("a", 100, 10)
    with pytest.raises(ChannelBusyError):
        channel.transmit("b", 100, 10)


def test_header_bytes_clamped_to_size():
    sim = Simulator()
    channel, receiver = make_channel(sim, rate=1e6, prop=0.0)
    channel.transmit("tiny", size=50, header_bytes=500)
    sim.run()
    assert receiver.headers[0][0] == pytest.approx(50 * 8 / 1e6)


def test_abort_cancels_delivery_and_notifies():
    sim = Simulator()
    channel, receiver = make_channel(sim, rate=1e6, prop=1e-3)
    aborted_at_sender = []
    channel.transmit(
        "pkt", 1000, 100, on_abort=lambda p: aborted_at_sender.append(p)
    )
    sim.after(2e-3, channel.abort)
    sim.run()
    assert receiver.packets == []
    assert aborted_at_sender == ["pkt"]
    # Receiver learns of the truncated tail one propagation later.
    assert receiver.aborts[0][0] == pytest.approx(3e-3)
    assert channel.packets_aborted.count == 1
    assert channel.current is None


def test_header_may_arrive_before_abort():
    sim = Simulator()
    channel, receiver = make_channel(sim, rate=1e6, prop=0.0)
    channel.transmit("pkt", 1000, 100)  # header at 0.8ms
    sim.after(2e-3, channel.abort)
    sim.run()
    assert len(receiver.headers) == 1
    assert receiver.packets == []


def test_failed_channel_swallows_traffic():
    sim = Simulator()
    channel, receiver = make_channel(sim)
    channel.fail()
    channel.transmit("pkt", 100, 10)
    sim.run()
    assert receiver.packets == []
    assert receiver.headers == []


def test_failure_mid_frame_tells_a_receiver_that_has_the_header():
    """Header at 0.8 ms + 1 ms propagation; the link dies at 3 ms with
    the tail still unsent: the receiver must learn its frame is dead."""
    sim = Simulator()
    channel, receiver = make_channel(sim, rate=1e6, prop=1e-3)
    aborted_at_sender = []
    channel.transmit("pkt", 1000, 100, on_abort=aborted_at_sender.append)
    sim.after(3e-3, channel.fail)
    sim.run()
    assert [packet for _, packet in receiver.headers] == ["pkt"]
    assert receiver.packets == []
    assert receiver.aborts == [(pytest.approx(4e-3), "pkt")]
    assert aborted_at_sender == ["pkt"]
    assert not channel.up and channel.current is None


def test_failure_before_the_header_lands_is_silent():
    sim = Simulator()
    channel, receiver = make_channel(sim, rate=1e6, prop=1e-3)
    aborted_at_sender = []
    channel.transmit("pkt", 1000, 100, on_abort=aborted_at_sender.append)
    sim.after(1.5e-3, channel.fail)  # header is due at 1.8 ms
    sim.run()
    assert receiver.headers == [] and receiver.packets == []
    assert receiver.aborts == []
    assert aborted_at_sender == ["pkt"]


def test_a_frame_failed_mid_flight_delivers_no_chaos_duplicate():
    """The duplicate is the frame's own second arrival: a frame cut
    short never completes, so its copy must not arrive either."""
    from repro.chaos.seam import FaultDecision

    sim = Simulator()
    channel, receiver = make_channel(sim, rate=1e6, prop=1e-3)
    channel.chaos = lambda: FaultDecision(duplicate=True)
    # 1000 B at 1 Mb/s: header (100 B) lands at 1.8 ms, the frame would
    # complete at 9 ms and its copy at 17 ms.
    channel.transmit("pkt", 1000, 100)
    sim.at(4e-3, channel.fail)
    sim.run()
    assert receiver.aborts == [(pytest.approx(5e-3), "pkt")]
    assert receiver.packets == []
    assert pending(sim) == 0


def test_restore_after_failure():
    sim = Simulator()
    channel, receiver = make_channel(sim)
    channel.fail()
    channel.restore()
    channel.transmit("pkt", 100, 10)
    sim.run()
    assert len(receiver.packets) == 1


def test_utilization_accounting():
    sim = Simulator()
    channel, _ = make_channel(sim, rate=1e6, prop=0.0)
    channel.transmit("pkt", 1000, 10)  # busy 8ms
    sim.run(until=16e-3)
    assert channel.utilization.utilization(16e-3) == pytest.approx(0.5)


def test_stats_counters():
    sim = Simulator()
    channel, _ = make_channel(sim)

    def send_next():
        if channel.packets_sent.count < 3 and channel.current is None:
            channel.transmit("p", 100, 10, on_done=send_next)

    send_next()
    sim.run()
    assert channel.packets_sent.count == 3
    assert channel.bytes_sent.count == 300


def test_link_fail_hits_both_directions():
    sim = Simulator()
    link = Link(sim, 1e6, 1e-3, name="l")
    assert link.up
    link.fail()
    assert not link.up and not link.a_to_b.up and not link.b_to_a.up
    link.restore()
    assert link.up


def test_invalid_parameters():
    sim = Simulator()
    with pytest.raises(ValueError):
        Channel(sim, rate_bps=0, propagation_delay=0)
    with pytest.raises(ValueError):
        Channel(sim, rate_bps=1e6, propagation_delay=-1)
    channel, _ = make_channel(sim)
    with pytest.raises(ValueError):
        channel.transmit("p", 0, 0)


class TakingNode(RecordingNode):
    """Cuts every frame through at its header, as a router does."""

    def on_header(self, packet, inport, tx):
        super().on_header(packet, inport, tx)
        tx.taken_by(inport)


class DeafNode(RecordingNode):
    """Defines no ``on_header``: no header event is scheduled."""

    on_header = None


@pytest.mark.parametrize("node_class", [RecordingNode, DeafNode])
@pytest.mark.parametrize("header_bytes", [100, 1000])
def test_the_completion_fires_in_its_place_among_same_time_events(
    node_class, header_bytes,
):
    """Pushed by the header event (a listening receiver) or at transmit
    (a deaf one), the completion keeps the number transmit gave it: an
    event scheduled for the same instant before the transmit fires
    before it, one scheduled after fires after — also when the header
    lands at that very instant (header = the whole frame)."""
    sim = Simulator()
    channel, receiver = make_channel(sim, node_class=node_class)
    order = []
    receiver.on_packet = lambda packet, inport, tx: order.append(packet)
    complete_at = 0.0 + 1000 * 8.0 / 1e6 + 1e-3 + 0.0  # as transmit adds it
    sim.at(complete_at, order.append, "before")
    channel.transmit("pkt", 1000, header_bytes)
    sim.at(complete_at, order.append, "after")
    sim.run()
    assert order == ["before", "pkt", "after"]


def test_a_frame_taken_at_its_header_never_pushes_its_completion():
    sim = Simulator()
    channel, receiver = make_channel(sim, node_class=TakingNode)
    channel.transmit("pkt", 1000, 100)
    sim.run()
    assert len(receiver.headers) == 1 and receiver.packets == []
    assert sim.events_executed == 2  # the header and the channel's free


@pytest.mark.parametrize("node_class", [RecordingNode, TakingNode, DeafNode])
@pytest.mark.parametrize("abort_at", [1e-3, 4e-3])
def test_an_abort_before_or_after_the_header_leaves_no_stray_event(
    node_class, abort_at,
):
    """Header at 1.8 ms: aborted at 1 ms the receiver never hears of the
    frame but its tail; at 4 ms it has the header (and a taker took the
    frame).  Either way nothing of the frame fires after the abort but
    the receiver's ``on_abort``."""
    sim = Simulator()
    channel, receiver = make_channel(sim, node_class=node_class)
    channel.transmit("pkt", 1000, 100)
    sim.at(abort_at, channel.abort)
    sim.run()
    heard = node_class is not DeafNode and abort_at > 1.8e-3
    assert len(receiver.headers) == (1 if heard else 0)
    assert receiver.packets == []
    assert receiver.aborts == [(pytest.approx(abort_at + 1e-3), "pkt")]
    # The abort, the receiver's on_abort, and the header if it landed.
    assert sim.events_executed == 2 + (1 if heard else 0)
    assert pending(sim) == 0
