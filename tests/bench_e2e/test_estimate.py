"""The reference-speed estimator and the small statistics helpers."""

import random

import pytest

from benchmarks.e2e.estimate import (
    REFERENCE_S,
    Slice,
    at_reference_speed,
    quantile,
    quiet_half,
)
from benchmarks.e2e.runner import timing_metrics


def machine(rng, n=120):
    """Calibration times of a machine that changes speed every ten
    slices, between 1x and 1.8x the reference, with 2 % sample noise."""
    levels = [rng.uniform(1.0, 1.8) for _ in range(n // 10)]
    return [
        REFERENCE_S * levels[i // 10] * rng.uniform(0.98, 1.02)
        for i in range(n)
    ]


def test_cpu_bound_metric_is_read_at_the_reference_speed():
    rng = random.Random(2)
    calibrations = machine(rng)
    # 500 us at the reference speed, proportional to the machine's slowness.
    values = [500e-6 * c / REFERENCE_S * rng.uniform(0.95, 1.05) for c in calibrations]
    naive = sorted(values)[len(values) // 2]
    estimate = at_reference_speed(calibrations, values)
    assert estimate == pytest.approx(500e-6, rel=0.03)
    assert abs(estimate - 500e-6) < abs(naive - 500e-6)


def test_calibration_noise_is_smoothed_over_neighbouring_slices():
    # A steady machine sampled with 10 % noise: smoothing over five
    # slices keeps most of that noise out of the estimate.
    rng = random.Random(5)
    calibrations = [REFERENCE_S * 1.2 * rng.uniform(0.9, 1.1) for _ in range(200)]
    values = [12.0] * 200
    estimate = at_reference_speed(calibrations, values)
    assert estimate == pytest.approx(10.0, rel=0.01)


def test_steady_machine_rescales_the_median_in_proportion():
    calibrations = [REFERENCE_S * 1.1] * 10
    values = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    assert at_reference_speed(calibrations, values) == pytest.approx(10.0 / 1.1, rel=1e-6)


def slices(rng, wall_of):
    """120 slices of 100 transactions on a machine 1x-1.8x the reference."""
    out = []
    for c in machine(rng):
        slow = c / REFERENCE_S
        cpu = 0.05 * slow
        out.append(Slice(tx=100, wall_s=wall_of(cpu), cpu_s=cpu,
                         calibration_wall_s=c, calibration_cpu_s=c,
                         rtts_s=[0.054] * 90 + [0.002] * 10))
    return out


def test_all_of_a_busy_loops_wall_time_is_rescaled():
    metrics, notes = timing_metrics(slices(random.Random(6), lambda cpu: cpu))
    assert metrics["tx_per_s"] == pytest.approx(2000.0, rel=0.02)
    assert metrics["cpu_us_per_tx"] == pytest.approx(500.0, rel=0.02)
    assert metrics["rtt_p90_ms"] < notes["raw_rtt_p90_ms"]
    assert notes["raw_tx_per_s"] < 1700


def test_a_retransmit_timer_in_the_tail_is_not_rescaled():
    # 12 % of transactions wait 52 ms for a timer on top of a queueing
    # time that follows the machine (20 ms at the reference speed).
    rng = random.Random(7)
    measured = []
    for c in machine(rng):
        slow = c / REFERENCE_S
        queued = 0.020 * slow
        measured.append(Slice(
            tx=100, wall_s=0.05 * slow, cpu_s=0.05 * slow,
            calibration_wall_s=c, calibration_cpu_s=c,
            rtts_s=[queued] * 88 + [queued + 0.052] * 12,
        ))
    plain, _ = timing_metrics(measured)
    metrics, _ = timing_metrics(measured, timer_tail=True)
    assert metrics["rtt_p50_ms"] == plain["rtt_p50_ms"] == pytest.approx(20.0, rel=0.02)
    assert metrics["rtt_p90_ms"] == pytest.approx(72.0, rel=0.02)
    assert plain["rtt_p90_ms"] < 65.0  # the timer shrunk with the machine


def test_slices_the_host_interrupted_are_left_out_of_the_timings():
    # Four slices in ten lose a fifth of the core to a neighbour: they
    # take longer and their 90th percentile doubles.
    measured = []
    for i in range(40):
        stolen = i % 10 < 4
        measured.append(Slice(
            tx=100, wall_s=0.0625 if stolen else 0.05, cpu_s=0.05,
            calibration_wall_s=REFERENCE_S, calibration_cpu_s=REFERENCE_S,
            rtts_s=[0.001] * 89 + [0.004 if stolen else 0.002] * 11,
        ))
    assert quiet_half(measured) == [i % 10 >= 4 for i in range(40)]
    metrics, notes = timing_metrics(measured)
    assert metrics["tx_per_s"] == pytest.approx(2000.0)
    assert metrics["rtt_p90_ms"] == pytest.approx(2.0)
    assert metrics["cpu_us_per_tx"] == pytest.approx(500.0)


def test_estimator_rejects_mismatched_input():
    with pytest.raises(ValueError):
        at_reference_speed([1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        at_reference_speed([], [])


def test_quantile_is_nearest_rank():
    ordered = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
    assert quantile(ordered, 0.5) == 5.0
    assert quantile(ordered, 0.9) == 9.0
    assert quantile(ordered, 0.99) == 10.0
    assert quantile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        quantile([], 0.5)
