"""Unit tests for the timestamp-driven playout buffer (§8 future work)."""

import pytest

from repro.sim.engine import Simulator
from repro.transport.playout import PlayoutBuffer, _stamp_delta_ms
from repro.transport.timestamps import TIMESTAMP_MODULUS


def test_stamp_delta_simple_and_wrapped():
    assert _stamp_delta_ms(150, 100) == 50
    assert _stamp_delta_ms(100, 150) == -50
    assert _stamp_delta_ms(10, TIMESTAMP_MODULUS - 10) == 20


def feed(sim, buffer, arrivals):
    """arrivals: list of (arrival_time_s, timestamp_ms)."""
    for arrival, stamp in arrivals:
        sim.at(arrival, buffer.submit, ("pkt", stamp), stamp)


def test_respacing_removes_jitter():
    """Packets created 10 ms apart but arriving with +-4 ms jitter play
    out at exactly 10 ms spacing."""
    sim = Simulator()
    played = []
    buffer = PlayoutBuffer(sim, lambda item: played.append(sim.now),
                           playout_delay=10e-3)
    # created at 0,10,20,30 ms; network delays 5,9,1,8 ms.
    arrivals = [(0.005, 1), (0.019, 11), (0.021, 21), (0.038, 31)]
    feed(sim, buffer, arrivals)
    sim.run()
    gaps = [b - a for a, b in zip(played, played[1:])]
    assert all(abs(g - 10e-3) < 1e-9 for g in gaps)
    assert buffer.stats.residual_jitter.quantile(1.0) < 1e-9
    assert buffer.stats.delivered.count == 4


def test_playout_delay_absorbs_late_arrivals():
    sim = Simulator()
    played = []
    buffer = PlayoutBuffer(sim, lambda item: played.append(sim.now),
                           playout_delay=20e-3)
    # Second packet delayed by 18 ms — within the 20 ms budget.
    feed(sim, buffer, [(0.001, 1), (0.028, 11)])
    sim.run()
    assert buffer.stats.late.count == 0
    assert played[1] - played[0] == pytest.approx(10e-3)


def test_late_packet_beyond_budget():
    sim = Simulator()
    played = []
    buffer = PlayoutBuffer(sim, lambda item: played.append(sim.now),
                           playout_delay=5e-3)
    # Second packet arrives 30 ms late: playout instant already passed.
    feed(sim, buffer, [(0.001, 1), (0.046, 11)])
    sim.run()
    assert buffer.stats.late.count == 1
    assert len(played) == 2  # delivered immediately by default


def test_drop_late_policy():
    sim = Simulator()
    played = []
    buffer = PlayoutBuffer(sim, lambda item: played.append(item),
                           playout_delay=5e-3, drop_late=True)
    feed(sim, buffer, [(0.001, 1), (0.046, 11)])
    sim.run()
    assert buffer.stats.dropped_late.count == 1
    assert len(played) == 1


def test_buffering_delay_recorded():
    sim = Simulator()
    buffer = PlayoutBuffer(sim, lambda item: None, playout_delay=15e-3)
    feed(sim, buffer, [(0.0, 1)])
    sim.run()
    assert buffer.stats.buffering_delay.mean == pytest.approx(15e-3)


def test_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        PlayoutBuffer(sim, lambda item: None, playout_delay=-1.0)


def test_timestamp_wraparound_spacing():
    """Stamps that wrap the 32-bit field still space correctly."""
    sim = Simulator()
    played = []
    buffer = PlayoutBuffer(sim, lambda item: played.append(sim.now),
                           playout_delay=10e-3)
    near_wrap = TIMESTAMP_MODULUS - 5
    feed(sim, buffer, [(0.001, near_wrap), (0.012, 5)])  # +10 ms, wrapped
    sim.run()
    assert played[1] - played[0] == pytest.approx(10e-3)
