"""Unit tests for delivery masks and rate-based pacing (§4.3)."""

import pytest

from repro.transport import flowcontrol
from repro.transport.flowcontrol import (
    DeliveryMask,
    RateController,
    split_into_group,
)


class TestDeliveryMask:
    def test_marking_and_completion(self):
        mask = DeliveryMask(3)
        assert not mask.complete
        mask.bits |= 0b101
        assert mask.missing() == [1]
        assert [i for i in range(3) if mask.has(i)] == [0, 2]
        mask.bits |= 0b010
        assert mask.complete

    def test_single_member(self):
        mask = DeliveryMask(1, bits=1)
        assert mask.complete

    def test_bounds(self):
        with pytest.raises(ValueError):
            DeliveryMask(0)
        with pytest.raises(ValueError):
            DeliveryMask(33)

    def test_bits_roundtrip(self):
        mask = DeliveryMask(5, bits=0b01010)
        clone = DeliveryMask(5, bits=mask.bits)
        assert clone.missing() == [0, 2, 4]

    def test_stray_high_bits_masked(self):
        mask = DeliveryMask(2, bits=0xFF)
        assert mask.complete
        assert mask.bits == 0b11


class TestSplitIntoGroup:
    def test_even_split(self):
        assert split_into_group(3000, 1000) == [1000, 1000, 1000]

    def test_remainder_in_last_member(self):
        assert split_into_group(2500, 1000) == [1000, 1000, 500]

    def test_small_message_single_member(self):
        assert split_into_group(10, 1000) == [10]

    def test_limit_enforced(self):
        with pytest.raises(ValueError):
            split_into_group(33 * 1000, 1000)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            split_into_group(0, 1000)
        with pytest.raises(ValueError):
            split_into_group(100, 0)


class TestRateController:
    def test_gap_proportional_to_size(self):
        rc = RateController(rate_bps=8e6)
        assert rc.gap_for(1000) == pytest.approx(1e-3)
        assert rc.gap_for(2000) == pytest.approx(2e-3)

    def test_backpressure_halves_rate(self):
        rc = RateController(rate_bps=8e6)
        rc.on_backpressure(now=1.0)
        assert rc.rate_bps == 4e6

    def test_backpressure_respects_advised_rate(self):
        rc = RateController(rate_bps=8e6)
        rc.on_backpressure(now=1.0, advised_bps=1e6)
        assert rc.rate_bps == 1e6

    def test_floor_enforced(self, monkeypatch):
        monkeypatch.setattr(flowcontrol, "FLOOR_BPS", 1e6)
        rc = RateController(rate_bps=8e6)
        for step in range(10):
            rc.on_backpressure(now=1.0 + step)
        assert rc.rate_bps == 1e6

    def test_burst_of_signals_counts_once(self):
        rc = RateController(rate_bps=8e6)
        rc.on_backpressure(now=1.0)
        rc.on_backpressure(now=1.0001)  # same burst
        assert rc.rate_bps == 4e6
        assert rc.decreases == 1

    def test_recovery_climbs_back(self, monkeypatch):
        monkeypatch.setattr(flowcontrol, "RECOVERY_FRACTION", 0.25)
        rc = RateController(rate_bps=8e6)
        rc.on_backpressure(now=0.0)
        assert rc.rate_bps == 4e6
        rc.maybe_recover(now=0.05)
        assert rc.rate_bps == 6e6
        rc.maybe_recover(now=0.10)
        rc.maybe_recover(now=0.15)
        assert rc.rate_bps == 8e6  # capped at the ceiling

    def test_no_recovery_right_after_decrease(self):
        rc = RateController(rate_bps=8e6)
        rc.on_backpressure(now=1.0)
        rc.maybe_recover(now=1.005)
        assert rc.rate_bps == 4e6

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            RateController(rate_bps=0)
