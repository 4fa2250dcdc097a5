"""Unit tests for output-port scheduling, preemption and blocked policies."""


from repro.core.blocked import BlockedPolicy
from repro.core.queues import OutputPort, SubmitResult
from repro.net.link import Channel
from repro.net.node import Node, P2PAttachment
from repro.sim.engine import Simulator
from repro.viper.flags import PRIORITY_PREEMPT_HIGH


class Sink(Node):
    def __init__(self, sim, name="sink"):
        super().__init__(sim, name)
        self.packets = []
        self.aborts = []

    def on_packet(self, packet, inport, tx):
        self.packets.append((self.sim.now, packet))

    def on_abort(self, packet, inport):
        self.aborts.append((self.sim.now, packet))


def make_port(sim, rate=1e6, prop=0.0, **kwargs):
    """An OutputPort feeding a recording sink over a p2p channel."""
    sink = Sink(sim)
    channel = Channel(sim, rate_bps=rate, propagation_delay=prop, name="ch")
    rx = P2PAttachment(sink, 1, Channel(sim, rate, prop), peer_name="src")
    sink.attach(1, rx)
    channel.dst_attachment = rx

    sender = Node(sim, "sender")
    tx_attachment = P2PAttachment(sender, 1, channel, peer_name="sink")
    sender.attach(1, tx_attachment)
    port = OutputPort(sim, tx_attachment, **kwargs)
    return port, sink


def test_idle_port_sends_immediately():
    sim = Simulator()
    port, sink = make_port(sim)
    result = port.submit("p1", 125, 10)
    assert result is SubmitResult.SENT
    sim.run()
    assert [p for _, p in sink.packets] == ["p1"]


def test_busy_port_queues_fifo_within_priority():
    sim = Simulator()
    port, sink = make_port(sim)
    port.submit("a", 125, 10)
    assert port.submit("b", 125, 10) is SubmitResult.QUEUED
    assert port.submit("c", 125, 10) is SubmitResult.QUEUED
    sim.run()
    assert [p for _, p in sink.packets] == ["a", "b", "c"]


def test_higher_priority_jumps_queue():
    sim = Simulator()
    port, sink = make_port(sim)
    port.submit("first", 125, 10, priority=0)
    port.submit("normal", 125, 10, priority=0)
    port.submit("urgent", 125, 10, priority=5)
    sim.run()
    assert [p for _, p in sink.packets] == ["first", "urgent", "normal"]


def test_low_band_priority_sorts_below_normal():
    sim = Simulator()
    port, sink = make_port(sim)
    port.submit("first", 125, 10)
    port.submit("background", 125, 10, priority=0xF)
    port.submit("normal", 125, 10, priority=0)
    sim.run()
    assert [p for _, p in sink.packets] == ["first", "normal", "background"]


def test_preemptive_priority_aborts_current():
    """§2.1/§5: priorities 6-7 abort a lower-priority packet
    mid-transmission."""
    sim = Simulator()
    port, sink = make_port(sim)
    port.submit("victim", 1250, 10, priority=0)  # 10 ms at 1 Mbps
    fired = []
    sim.at(1e-3, lambda: fired.append(
        port.submit("preemptor", 125, 10, priority=PRIORITY_PREEMPT_HIGH)
    ))
    sim.run()
    assert fired == [SubmitResult.PREEMPTED]
    delivered = [p for _, p in sink.packets]
    assert delivered == ["preemptor"]
    assert [p for _, p in sink.aborts] == ["victim"]
    assert port.preemptions.count == 1


def test_preemptor_does_not_abort_equal_priority():
    sim = Simulator()
    port, sink = make_port(sim)
    port.submit("a", 1250, 10, priority=PRIORITY_PREEMPT_HIGH)
    result = port.submit("b", 125, 10, priority=PRIORITY_PREEMPT_HIGH)
    assert result is SubmitResult.QUEUED
    sim.run()
    assert [p for _, p in sink.packets] == ["a", "b"]


def test_dib_dropped_only_when_blocked():
    """The DIB flag means drop *if blocked* — an idle port still sends."""
    sim = Simulator()
    port, sink = make_port(sim)
    assert port.submit("sent", 125, 10, dib=True) is SubmitResult.SENT
    assert port.submit("dropped", 125, 10, dib=True) is SubmitResult.DROPPED_DIB
    sim.run()
    assert [p for _, p in sink.packets] == ["sent"]
    assert port.drops.count == 1


def test_buffer_overflow_drops():
    sim = Simulator()
    port, _ = make_port(sim, buffer_bytes=250)
    port.submit("inflight", 125, 10)
    assert port.submit("q1", 125, 10) is SubmitResult.QUEUED
    assert port.submit("q2", 125, 10) is SubmitResult.QUEUED
    assert port.submit("q3", 125, 10) is SubmitResult.DROPPED_OVERFLOW


def test_bufferless_policy_drops_blocked():
    sim = Simulator()
    port, _ = make_port(sim, blocked_policy=BlockedPolicy.DROP)
    port.submit("a", 125, 10)
    assert port.submit("b", 125, 10) is SubmitResult.DROPPED_POLICY


def test_delay_line_retries_and_delivers():
    """Blazenet-style delay-line deferral (§2.1)."""
    sim = Simulator()
    port, sink = make_port(
        sim, blocked_policy=BlockedPolicy.DELAY_LINE, delay_line_s=0.5e-3,
    )
    port.submit("a", 125, 10)  # 1 ms
    assert port.submit("b", 125, 10) is SubmitResult.DELAY_LOOPED
    sim.run()
    assert [p for _, p in sink.packets] == ["a", "b"]
    # b looped twice (at 0.5 ms and 1.0 ms the port is busy until 1 ms).


def test_delay_line_gives_up_after_max_loops():
    sim = Simulator()
    port, sink = make_port(
        sim, blocked_policy=BlockedPolicy.DELAY_LINE,
        delay_line_s=0.1e-3, max_delay_loops=3,
    )
    port.submit("hog", 12500, 10)  # 100 ms: outlives every loop
    assert port.submit("b", 125, 10) is SubmitResult.DELAY_LOOPED
    sim.run()
    assert [p for _, p in sink.packets] == ["hog"]
    assert port.drops.count == 1


def test_queue_statistics():
    sim = Simulator()
    port, _ = make_port(sim)
    port.submit("a", 125, 10)
    port.submit("b", 125, 10)
    port.submit("c", 125, 10)
    assert port.queue_depth == 2
    assert port.queued_bytes == 250
    assert len(port.backlog_packets()) == 2
    sim.run()
    assert port.queue_depth == 0
    assert port.sent.count == 3


def test_transmit_start_hook_runs():
    sim = Simulator()
    port, _ = make_port(sim)
    seen = []
    port.on_transmit_start = lambda packet, queued_behind: seen.append(packet)
    port.submit("a", 125, 10)
    port.submit("b", 125, 10)
    sim.run()
    assert seen == ["a", "b"]
