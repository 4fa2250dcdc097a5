"""Unit tests for timestamp-based MPL enforcement (§4.2)."""


from repro.sim.engine import Simulator
from repro.transport.timestamps import (
    HostClock,
    TIMESTAMP_INVALID,
    TIMESTAMP_MODULUS,
    TimestampPolicy,
    encode_timestamp_ms,
    timestamp_age_ms,
)


def test_encode_folds_into_32_bits():
    assert encode_timestamp_ms(0) == 1  # never the reserved 0
    assert encode_timestamp_ms(TIMESTAMP_MODULUS) == 1
    assert encode_timestamp_ms(12345) == 12345
    assert encode_timestamp_ms(TIMESTAMP_MODULUS + 7) == 7


def test_age_simple():
    assert timestamp_age_ms(1000, 1500) == 500
    assert timestamp_age_ms(1500, 1500) == 0


def test_age_across_wraparound():
    """Sent just before the 32-bit wrap, received just after (§4.2:
    'wrap-around occurs in roughly one month')."""
    sent = TIMESTAMP_MODULUS - 100
    now = 50  # wrapped
    assert timestamp_age_ms(sent, now) == 150


def test_future_stamps_read_as_age_zero():
    """Receiver clock slightly behind the sender: not an old packet."""
    assert timestamp_age_ms(2000, 1500) == 0


def test_clock_advances_with_simulation():
    sim = Simulator()
    clock = HostClock(sim)
    t0 = clock.now_ms()
    sim.at(2.5, lambda: None)
    sim.run()
    assert clock.now_ms() - t0 == 2500


def test_clock_skew_applies():
    sim = Simulator()
    fast = HostClock(sim, skew_ms=300.0)
    slow = HostClock(sim, skew_ms=-300.0)
    assert fast.now_ms() - slow.now_ms() == 600


class TestPolicy:
    def test_fresh_packet_accepted(self):
        sim = Simulator()
        clock = HostClock(sim)
        policy = TimestampPolicy(max_age_ms=30_000)
        stamp = clock.stamp()
        sim.at(1.0, lambda: None)
        sim.run()
        assert policy.accept(stamp, clock)

    def test_ancient_packet_rejected(self):
        sim = Simulator()
        clock = HostClock(sim)
        policy = TimestampPolicy(max_age_ms=30_000)
        stamp = clock.stamp()
        sim.at(31.0, lambda: None)  # 31 s later
        sim.run()
        assert not policy.accept(stamp, clock)

    def test_invalid_stamp_always_accepted(self):
        """Value 0 is reserved: 'should be ignored' (booting machines)."""
        sim = Simulator()
        clock = HostClock(sim)
        policy = TimestampPolicy(max_age_ms=1)
        assert policy.accept(TIMESTAMP_INVALID, clock)

    def test_recently_booted_receiver_is_stricter(self):
        """'a recently booted machine might discard packets older than
        its boot time'."""
        sim = Simulator()
        clock = HostClock(sim)
        policy = TimestampPolicy(max_age_ms=30_000)
        stamp = clock.stamp()
        sim.at(5.0, clock.reboot)
        sim.at(6.0, lambda: None)
        sim.run()
        # Packet is 6 s old, well within 30 s — but older than boot.
        assert not policy.accept(stamp, clock)

    def test_skewed_sender_within_tolerance(self):
        """Multi-second skew must not break acceptance (§4.2: 'clock
        synchronization need not be more accurate than multiple
        seconds')."""
        sim = Simulator()
        sender = HostClock(sim, skew_ms=3000.0)
        receiver = HostClock(sim, skew_ms=-3000.0)
        policy = TimestampPolicy(max_age_ms=30_000)
        stamp = sender.stamp()
        sim.at(1.0, lambda: None)
        sim.run()
        assert policy.accept(stamp, receiver)
