"""Unit tests for statistics monitors."""

import pytest

from repro.sim.monitor import (
    Counter,
    Histogram,
    TimeWeighted,
    UtilizationTracker,
)


class TestCounter:
    def test_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.count == 5


class TestHistogram:
    def test_mean(self):
        hist = Histogram()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            hist.add(v)
        assert hist.mean == pytest.approx(5.0)

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
