"""Unit tests for packet-size mixtures and arrival processes."""

import pytest

from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.sizes import PacketSizeMixture


class TestPacketSizeMixture:
    def test_mean_formula(self):
        mixture = PacketSizeMixture(min_size=64, max_size=1500)
        expected = 0.5 * 64 + 0.25 * 1500 + 0.25 * (64 + 1500) / 2
        assert mixture.mean() == pytest.approx(expected)
        # With a tiny minimum the 3/8-of-max rule emerges (§6.2).
        near_zero = PacketSizeMixture(min_size=1, max_size=2048)
        assert near_zero.mean() == pytest.approx(3 / 8 * 2048, rel=0.01)

    def test_samples_match_mixture(self):
        rng = RngStreams(5).stream("sizes")
        mixture = PacketSizeMixture(min_size=64, max_size=1500)
        samples = [mixture.sample(rng) for _ in range(20000)]
        fraction_min = samples.count(64) / len(samples)
        fraction_max = samples.count(1500) / len(samples)
        assert 0.47 < fraction_min < 0.53
        assert 0.22 < fraction_max < 0.28
        assert all(64 <= s <= 1500 for s in samples)
        empirical_mean = sum(samples) / len(samples)
        assert empirical_mean == pytest.approx(mixture.mean(), rel=0.03)

    def test_variance_positive_and_cv(self):
        mixture = PacketSizeMixture(64, 1500)
        assert mixture.variance() > 0
        # The mixture is noticeably more variable than deterministic
        # service but in the same ballpark as exponential.
        assert 0.5 < mixture.squared_cv() < 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            PacketSizeMixture(min_size=0, max_size=100)
        with pytest.raises(ValueError):
            PacketSizeMixture(100, 50)
        with pytest.raises(ValueError):
            PacketSizeMixture(64, 1500, p_min=0.9, p_max=0.2)


class TestPoissonArrivals:
    def test_rate_achieved(self):
        sim = Simulator()
        rng = RngStreams(9).stream("arrivals")
        emitted = []
        PoissonArrivals(sim, rate_pps=1000.0, emit=emitted.append,
                        rng=rng, fixed_size=100, stop_at=5.0)
        sim.run(until=5.0)
        assert 4500 < len(emitted) < 5500
        assert all(size == 100 for size in emitted)

    def test_sizes_from_mixture(self):
        sim = Simulator()
        rng = RngStreams(9).stream("arrivals3")
        mixture = PacketSizeMixture(64, 1500)
        emitted = []
        PoissonArrivals(sim, 500.0, emitted.append, rng, sizes=mixture,
                        stop_at=2.0)
        sim.run(until=2.0)
        assert {64, 1500} & set(emitted)

    def test_requires_size_source(self):
        sim = Simulator()
        rng = RngStreams(9).stream("x")
        with pytest.raises(ValueError):
            PoissonArrivals(sim, 100.0, lambda s: None, rng)
