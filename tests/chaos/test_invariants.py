"""InvariantChecker: each of the five invariants trips on purpose."""

import pytest

from repro.chaos.invariants import (
    InvariantChecker,
    InvariantViolationError,
    SoakReport,
    TxRecord,
)
from repro.chaos.plan import FaultPlan, FaultSpec


def plan(retry_budget=4, recovery_slo_s=1.0):
    return FaultPlan(
        seed=1,
        specs=(
            FaultSpec("drop", "a->b", onset_s=0.0, duration_s=2.0,
                      rate=0.5),
        ),
        retry_budget=retry_budget,
        recovery_slo_s=recovery_slo_s,
        name="unit",
    )


def ok_tx(txid, finished_s=2.5, retries=0):
    return TxRecord(txid=txid, started_s=finished_s - 0.01,
                    finished_s=finished_s, ok=True, retries=retries)


def report(p, **overrides):
    base = dict(
        plan=p, substrate="unit", duration_s=5.0,
        transactions=[ok_tx(0), ok_tx(1)],
        delivery_counts={"tx-0": 1, "tx-1": 1},
        fault_log=[],
    )
    base.update(overrides)
    return SoakReport(**base)


def names(violations):
    return [v.invariant for v in violations]


def test_clean_report_passes():
    p = plan()
    checker = InvariantChecker(p)
    assert checker.check(report(p)) == []
    checker.assert_ok(report(p))  # must not raise


def test_duplicate_delivery_detected():
    p = plan()
    violations = InvariantChecker(p).check(
        report(p, delivery_counts={"tx-0": 2, "tx-1": 1})
    )
    assert names(violations) == ["no_duplicate_delivery"]
    assert "2 times" in violations[0].detail


def test_unresolved_transaction_detected():
    p = plan()
    hung = TxRecord(txid=9, started_s=0.0, finished_s=-1.0, ok=False)
    violations = InvariantChecker(p).check(
        report(p, transactions=[ok_tx(0), hung])
    )
    assert names(violations) == ["clean_outcome"]


def test_failed_with_named_error_is_resolved():
    p = plan()
    failed = TxRecord(txid=9, started_s=0.0, finished_s=0.4, ok=False,
                      error="retries exhausted")
    assert InvariantChecker(p).check(
        report(p, transactions=[ok_tx(0), failed])
    ) == []


def test_retry_budget_violation():
    p = plan(retry_budget=4)
    violations = InvariantChecker(p).check(
        report(p, transactions=[ok_tx(0, retries=5), ok_tx(1)])
    )
    assert names(violations) == ["retry_budget"]


def test_recovery_slo_violation_late_and_never():
    p = plan(recovery_slo_s=1.0)  # faults end at 2.0
    late = InvariantChecker(p).check(
        report(p, transactions=[ok_tx(0, finished_s=3.5)])
    )
    assert names(late) == ["recovery_slo"]
    never = InvariantChecker(p).check(
        report(p, transactions=[ok_tx(0, finished_s=1.0)])
    )
    assert names(never) == ["recovery_slo"]
    assert "no successful transaction" in never[0].detail


def test_assert_ok_raises_with_every_violation_listed():
    p = plan(retry_budget=1)
    bad = report(
        p,
        transactions=[ok_tx(0, finished_s=3.5, retries=9)],
        delivery_counts={"tx-0": 3},
    )
    with pytest.raises(InvariantViolationError) as excinfo:
        InvariantChecker(p).assert_ok(bad)
    message = str(excinfo.value)
    for invariant in ("no_duplicate_delivery", "retry_budget",
                      "recovery_slo"):
        assert invariant in message
