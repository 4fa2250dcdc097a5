"""Unit tests for rate-based congestion control (§2.2)."""

import pytest

from repro.core import congestion
from repro.core.congestion import (
    ControlPlane,
    FlowLimiter,
    RateControlManager,
    RateSignal,
    _previous_hop,
)
from repro.sim.engine import Simulator
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment


def make_packet(hop_log, source="src"):
    packet = SirpentPacket(segments=[HeaderSegment(port=0)], payload_size=10)
    packet.hop_log = list(hop_log)
    packet.source = source
    return packet


class TestPreviousHop:
    def test_middle_of_path(self):
        packet = make_packet(["r1", "r2", "r3"])
        assert _previous_hop(packet, "r2") == "r1"
        assert _previous_hop(packet, "r3") == "r2"

    def test_first_router_sees_source(self):
        packet = make_packet(["r1"], source="hostA")
        assert _previous_hop(packet, "r1") == "hostA"

    def test_empty_log_falls_back_to_source(self):
        packet = make_packet([], source="hostA")
        assert _previous_hop(packet, "r9") == "hostA"


class TestControlPlane:
    def test_delivery_with_link_latency(self):
        from repro.net.node import Node
        from repro.net.topology import Topology

        sim = Simulator()
        topo = Topology(sim)
        a, b = Node(sim, "a"), Node(sim, "b")
        topo.connect(a, b, propagation_delay=2e-3)
        plane = ControlPlane(sim, topo)
        inbox = []
        plane.register("b", lambda src, msg: inbox.append((sim.now, src, msg)))
        plane.send("a", "b", "hello")
        sim.run()
        assert inbox == [(2e-3, "a", "hello")]

    def test_down_link_loses_messages(self):
        from repro.net.node import Node
        from repro.net.topology import Topology

        sim = Simulator()
        topo = Topology(sim)
        a, b = Node(sim, "a"), Node(sim, "b")
        topo.connect(a, b, name="ab")
        plane = ControlPlane(sim, topo)
        inbox = []
        plane.register("b", lambda src, msg: inbox.append(msg))
        topo.fail_link("ab")
        plane.send("a", "b", "lost")
        sim.run()
        assert inbox == []

    def test_non_adjacent_uses_default_delay(self):
        sim = Simulator()
        plane = ControlPlane(sim, None)
        inbox = []
        plane.register("far", lambda src, msg: inbox.append(sim.now))
        plane.send("here", "far", "msg")
        sim.run()
        assert inbox == [ControlPlane.DEFAULT_DELAY]

    def test_unknown_recipient_ignored(self):
        sim = Simulator()
        plane = ControlPlane(sim, None)
        plane.send("a", "nobody", "msg")
        sim.run()  # nothing scheduled, nothing crashes


class TestFlowLimiter:
    def test_consume_within_burst(self):
        sim = Simulator()
        limiter = FlowLimiter(sim, ("rX", 1), rate_bps=8000.0,
                              burst_bytes=1000, expiry=10.0)
        assert limiter.try_consume(500)
        assert limiter.try_consume(500)
        assert not limiter.try_consume(500)  # bucket empty

    def test_tokens_refill_over_time(self):
        sim = Simulator()
        limiter = FlowLimiter(sim, ("rX", 1), rate_bps=8000.0,
                              burst_bytes=1000, expiry=10.0)
        assert limiter.try_consume(1000)
        sim.at(0.5, lambda: None)
        sim.run()
        # 0.5 s at 8 kbps = 500 bytes of budget.
        assert limiter.try_consume(500)
        assert not limiter.try_consume(100)

    def test_held_packets_release_in_order(self):
        sim = Simulator()
        limiter = FlowLimiter(sim, ("rX", 1), rate_bps=80000.0,
                              burst_bytes=100, expiry=10.0)
        released = []
        limiter.try_consume(100)  # drain burst
        limiter.hold(100, lambda: released.append(("a", sim.now)))
        limiter.hold(100, lambda: released.append(("b", sim.now)))
        sim.run()
        assert [tag for tag, _ in released] == ["a", "b"]
        # 100 bytes at 80 kbps = 10 ms apart.
        assert released[1][1] - released[0][1] == pytest.approx(10e-3, rel=0.2)

    def test_fifo_blocks_fresh_consumers(self):
        sim = Simulator()
        limiter = FlowLimiter(sim, ("rX", 1), rate_bps=8.0,
                              burst_bytes=1000, expiry=10.0)
        limiter.try_consume(1000)
        limiter.hold(100, lambda: None)
        assert not limiter.try_consume(1)  # held packets go first

    def test_ramp_up_raises_rate(self):
        sim = Simulator()
        limiter = FlowLimiter(sim, ("rX", 1), rate_bps=1000.0,
                              burst_bytes=100, expiry=0.0)
        limiter.ramp_up(2.0)
        assert limiter.rate_bps == 2000.0


class _FakeAttachment:
    def __init__(self, rate):
        self.rate_bps = rate
        self.busy = False


class _FakePort:
    def __init__(self, rate=1e6):
        self.attachment = _FakeAttachment(rate)
        self.queue_depth = 0
        self._backlog = []

    def backlog_packets(self):
        return self._backlog


class TestRateControlManager:
    @pytest.fixture(autouse=True)
    def low_watermark(self, monkeypatch):
        monkeypatch.setattr(congestion, "QUEUE_HIGH_WATERMARK", 2)

    def make(self, sim, name="rC"):
        plane = ControlPlane(sim, None)
        manager = RateControlManager(sim, name, plane)
        return manager, plane

    def test_congestion_signals_feeders(self):
        sim = Simulator()
        manager, plane = self.make(sim)
        received = []
        plane.register("rA", lambda src, msg: received.append(msg))
        port = _FakePort()
        port.queue_depth = 5
        port._backlog = [make_packet(["rA", "rC"]) for _ in range(5)]
        manager.watch_port(7, port)
        sim.run(until=5e-3)
        assert received
        signal = received[0]
        assert isinstance(signal, RateSignal)
        assert signal.congested_node == "rC"
        assert signal.port_id == 7
        assert signal.advised_rate_bps == pytest.approx(0.9e6)

    def test_advised_rate_split_among_feeders(self):
        sim = Simulator()
        manager, plane = self.make(sim)
        got = {}
        plane.register("rA", lambda s, m: got.setdefault("rA", m))
        plane.register("rB", lambda s, m: got.setdefault("rB", m))
        port = _FakePort()
        port.queue_depth = 4
        port._backlog = [
            make_packet(["rA", "rC"]), make_packet(["rB", "rC"]),
            make_packet(["rA", "rC"]), make_packet(["rB", "rC"]),
        ]
        manager.watch_port(1, port)
        sim.run(until=5e-3)
        assert set(got) == {"rA", "rB"}
        assert got["rA"].advised_rate_bps == pytest.approx(0.45e6)

    def test_short_queue_stays_silent(self):
        sim = Simulator()
        manager, plane = self.make(sim)
        received = []
        plane.register("rA", lambda s, m: received.append(m))
        port = _FakePort()
        port.queue_depth = 1
        port._backlog = [make_packet(["rA", "rC"])]
        manager.watch_port(1, port)
        sim.run(until=5e-3)
        assert received == []

    def test_receiving_signal_installs_soft_state(self):
        sim = Simulator()
        manager, plane = self.make(sim)
        signal = RateSignal("rX", 3, advised_rate_bps=1e5, hold_time=20e-3)
        plane.send("rX", "rC", signal)
        sim.run(until=5e-3)
        assert ("rX", 3) in manager.limits

    def test_admit_or_hold_limits_matching_flow(self):
        sim = Simulator()
        manager, plane = self.make(sim)
        plane.send("rX", "rC", RateSignal("rX", 3, 800.0, hold_time=10.0))
        sim.run(until=2e-3)
        limiter = manager.limits[("rX", 3)]
        limiter.tokens = 0.0  # exhaust the burst allowance
        forwarded = []
        done_now = manager.admit_or_hold(
            make_packet(["rC"]), "rX", 3, 100, lambda: forwarded.append(sim.now)
        )
        assert not done_now
        sim.run(until=sim.now + 5.0)
        assert forwarded  # released later at the advised rate

    def test_admit_or_hold_passes_unrelated_flow(self):
        sim = Simulator()
        manager, plane = self.make(sim)
        plane.send("rX", "rC", RateSignal("rX", 3, 800.0, hold_time=10.0))
        sim.run(until=2e-3)
        forwarded = []
        assert manager.admit_or_hold(
            make_packet(["rC"]), "rOTHER", 3, 100, lambda: forwarded.append(1)
        )
        assert manager.admit_or_hold(
            make_packet(["rC"]), "rX", 9, 100, lambda: forwarded.append(2)
        )
        assert forwarded == [1, 2]

    def test_stale_limits_ramp_and_evaporate(self, monkeypatch):
        """Soft state: expired limits push the rate up until gone."""
        monkeypatch.setattr(congestion, "HOLD_TIME", 2e-3)
        sim = Simulator()
        manager, plane = self.make(sim)
        plane.send("rX", "rC", RateSignal("rX", 3, 1e6, hold_time=2e-3))
        sim.run(until=1.5e-3)
        assert ("rX", 3) in manager.limits
        sim.run(until=0.2)  # many check intervals: x2 each, then gone
        assert ("rX", 3) not in manager.limits

    def test_disabled_manager_forwards_everything(self):
        sim = Simulator()
        plane = ControlPlane(sim, None)
        manager = RateControlManager(sim, "rC", plane, enabled=False)
        forwarded = []
        assert manager.admit_or_hold(
            make_packet([]), "rX", 1, 100, lambda: forwarded.append(1)
        )
        assert forwarded == [1]
