"""Workload self-checks: the program's faults are fatal, the machine's are warnings."""

from types import SimpleNamespace

import pytest

from benchmarks.e2e.live import check_premises
from benchmarks.e2e.runner import PremiseError
from benchmarks.e2e.spec import WORKLOADS_BY_NAME


def window(**overrides):
    values = dict(wrong=0, failed=0, attempted=1000)
    values.update(overrides)
    return SimpleNamespace(**values)


def notes(**overrides):
    values = dict(hop_retries_per_tx=0.0, flow_cache_hit_ratio=1.0,
                  stalled_share=0.0, cpu_share=0.99)
    values.update(overrides)
    return values


def check(workload, win, given, quick=False):
    check_premises(WORKLOADS_BY_NAME[workload], win, given, quick)
    return given["warnings"]


def test_a_healthy_run_has_no_warnings():
    assert check("live_small_pipelined", window(), notes()) == []


def test_wrong_or_failed_replies_invalidate_a_clean_run():
    with pytest.raises(PremiseError, match="differed"):
        check("live_small_seq", window(wrong=1, failed=1), notes())
    with pytest.raises(PremiseError, match="failed"):
        check("live_small_seq", window(failed=2), notes())
    # Loss is the lossy workload's input: a failed transaction is counted,
    # not fatal.
    assert check("live_lossy", window(failed=2), notes(stalled_share=0.15)) == []


def test_caches_must_behave_as_the_workload_says():
    with pytest.raises(PremiseError, match="warm flow"):
        check("live_small_pipelined", window(), notes(flow_cache_hit_ratio=0.5))
    with pytest.raises(PremiseError, match="not new"):
        check("live_cold_flows", window(), notes(flow_cache_hit_ratio=0.9))
    assert check("live_cold_flows", window(), notes(flow_cache_hit_ratio=0.0)) == []


def test_lossy_p90_must_sit_inside_the_one_loss_mode():
    for share in (0.05, 0.45):
        with pytest.raises(PremiseError, match="one-loss mode"):
            check("live_lossy", window(), notes(stalled_share=share))


def test_what_the_machine_did_is_a_warning_not_a_failure():
    warnings = check("live_bulk", window(), notes(hop_retries_per_tx=0.9,
                                                  cpu_share=0.72))
    assert len(warnings) == 2
    assert "stalled" in warnings[0] and "cpu share 0.72" in warnings[1]


def test_quick_runs_skip_the_share_checks():
    assert check("live_cold_flows", window(),
                 notes(flow_cache_hit_ratio=0.9, cpu_share=0.1), quick=True) == []
