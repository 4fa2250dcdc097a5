"""Unit tests for statistics monitors."""

import math

import pytest

from repro.sim.monitor import (
    Counter,
    Histogram,
    RateMeter,
    TimeWeighted,
    UtilizationTracker,
)


class TestCounter:
    def test_add_and_rate(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.count == 5
        assert counter.rate(2.5) == 2.0

    def test_rate_with_zero_elapsed(self):
        assert Counter().rate(0.0) == 0.0


class TestHistogram:
    def test_mean_and_stdev(self):
        hist = Histogram()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            hist.add(v)
        assert hist.mean == pytest.approx(5.0)
        assert hist.stdev == pytest.approx(math.sqrt(32 / 7), rel=1e-6)

    def test_quantiles(self):
        hist = Histogram()
        for v in range(100):
            hist.add(float(v))
        assert hist.quantile(0.0) == 0.0
        assert hist.quantile(0.5) == 50.0
        assert hist.quantile(1.0) == 99.0

    def test_quantile_range_validation(self):
        hist = Histogram()
        hist.add(1.0)
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty_histogram_is_safe(self):
        hist = Histogram()
        assert hist.mean == 0.0
        assert hist.quantile(0.5) == 0.0
        assert hist.stdev == 0.0

    def test_summary_keys(self):
        hist = Histogram()
        hist.add(3.0)
        summary = hist.summary()
        assert set(summary) == {
            "count", "mean", "stdev", "min", "p50", "p95", "p99", "max",
        }

    def test_single_sample_quantiles(self):
        hist = Histogram()
        hist.add(42.0)
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == 42.0

    def test_nan_samples_excluded_from_quantiles(self):
        hist = Histogram()
        hist.add(float("nan"))
        hist.add(1.0)
        hist.add(3.0)
        assert hist.count == 3  # NaN still counts toward count
        assert hist.quantile(0.0) == 1.0
        assert hist.quantile(1.0) == 3.0
        assert hist.minimum == 1.0
        assert hist.maximum == 3.0

    def test_sorted_view_cached_and_invalidated(self):
        hist = Histogram()
        for v in (3.0, 1.0, 2.0):
            hist.add(v)
        first = hist._ordered()
        assert first == [1.0, 2.0, 3.0]
        assert hist._ordered() is first  # cached between adds
        hist.add(0.5)
        again = hist._ordered()
        assert again is not first  # invalidated by add
        assert again == [0.5, 1.0, 2.0, 3.0]


class TestTimeWeighted:
    def test_time_weighted_mean(self):
        tw = TimeWeighted(initial=0.0, start=0.0)
        tw.update(1.0, 10.0)   # 0 for [0,1)
        tw.update(3.0, 0.0)    # 10 for [1,3)
        # mean over [0,4]: (0*1 + 10*2 + 0*1)/4 = 5
        assert tw.mean(4.0) == pytest.approx(5.0)

    def test_maximum_tracked(self):
        tw = TimeWeighted()
        tw.update(1.0, 3.0)
        tw.update(2.0, 7.0)
        tw.update(3.0, 2.0)
        assert tw.maximum == 7.0

    def test_backwards_time_raises(self):
        tw = TimeWeighted()
        tw.update(2.0, 1.0)
        with pytest.raises(ValueError):
            tw.update(1.0, 0.0)

    def test_zero_elapsed_mean_returns_current_value(self):
        tw = TimeWeighted(initial=7.0, start=5.0)
        assert tw.mean(5.0) == 7.0  # no time elapsed: no 0/0
        tw2 = TimeWeighted(initial=2.0, start=1.0)
        assert tw2.mean(0.5) == 2.0  # now before start is also safe


class TestRateMeter:
    def test_rate_over_window(self):
        meter = RateMeter(window=1.0)
        for t in (0.1, 0.2, 0.3, 0.4):
            meter.add(t, 10.0)
        assert meter.rate(0.5) == pytest.approx(40.0)

    def test_old_entries_expire(self):
        meter = RateMeter(window=1.0)
        meter.add(0.0, 100.0)
        assert meter.rate(2.0) == 0.0

    def test_window_validation(self):
        with pytest.raises(ValueError):
            RateMeter(window=0.0)

    def test_expiry_is_exact_at_the_window_edge(self):
        meter = RateMeter(window=1.0)
        meter.add(0.0, 10.0)
        meter.add(1.0, 10.0)
        # At t=1.0 the cutoff is 0.0; the entry AT the cutoff survives
        # (strict < comparison), so both contribute.
        assert meter.rate(1.0) == pytest.approx(20.0)
        # Just past the edge the old entry is gone, exactly once.
        assert meter.rate(1.0 + 1e-9) == pytest.approx(10.0)
        assert meter._total == pytest.approx(10.0)

    def test_expiry_removes_many_without_error_accumulation(self):
        meter = RateMeter(window=500.0)
        for i in range(1000):
            meter.add(float(i), 1.0)
        # Cutoff at 999-500=499; strict < keeps t in [499, 999] = 501.
        assert meter.rate(999.0) == pytest.approx(501 / 500.0)
        assert len(meter._events) == 501
        assert meter._total == pytest.approx(501.0)


class TestUtilizationTracker:
    def test_utilization_fraction(self):
        tracker = UtilizationTracker(start=0.0)
        tracker.busy(1.0)
        tracker.idle(3.0)
        assert tracker.utilization(4.0) == pytest.approx(0.5)

    def test_currently_busy_counts(self):
        tracker = UtilizationTracker(start=0.0)
        tracker.busy(0.0)
        assert tracker.utilization(2.0) == pytest.approx(1.0)

    def test_double_busy_is_harmless(self):
        tracker = UtilizationTracker(start=0.0)
        tracker.busy(0.0)
        tracker.busy(1.0)
        tracker.idle(2.0)
        assert tracker.utilization(2.0) == pytest.approx(1.0)
