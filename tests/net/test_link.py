"""Unit tests for the bit-timed channel model.

These pin down the arithmetic the whole reproduction rests on: header
events precede completion events by exactly the remaining serialization
time, and preemption aborts cleanly.
"""

import pytest

from repro.net.link import Channel, ChannelBusyError, Link
from repro.net.node import Node, P2PAttachment
from repro.sim.engine import Simulator


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


def make_channel(sim, rate=1e6, prop=1e-3):
    receiver = RecordingNode(sim, "rx")
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
    assert not channel.busy


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
    assert not channel.up and not channel.busy


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
        if channel.packets_sent.count < 3 and not channel.busy:
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
