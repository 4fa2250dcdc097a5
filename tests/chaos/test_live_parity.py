"""One plan, two substrates: the replay-identity acceptance test.

Marked ``live`` (binds loopback UDP/TCP) and ``chaos``: this is the
short-form version of the R01 soak — a couple of seconds of mixed
faults, enough to prove the seam, cheap enough for every test run.
"""

import pytest

from repro.chaos import InvariantChecker, chaos_plan, run_live_soak, run_sim_soak
from repro.chaos.plan import FaultPlan, FaultSpec

pytestmark = [pytest.mark.live, pytest.mark.chaos]


def short_plan(seed=13):
    """Mixed faults squeezed into ~2s: link chaos on both diamond
    paths, a router crash, a directory outage."""
    return chaos_plan(seed, duration_s=2.0, intensity=0.6)


def test_same_plan_applies_byte_identically_on_both_substrates():
    plan = short_plan()
    sim_report = run_sim_soak(plan)
    live_report = run_live_soak(plan)
    assert sim_report.applied_ndjson == live_report.applied_ndjson
    assert sim_report.applied_ndjson  # non-vacuous: events were applied
    assert sim_report.substrate == "sim"
    assert live_report.substrate == "live"


def test_live_soak_passes_every_invariant():
    plan = short_plan(seed=21)
    report = run_live_soak(plan)
    assert report.transactions
    assert report.ok_count > 0
    InvariantChecker(plan).assert_ok(report)


def test_live_partition_passes_every_invariant():
    """Partition one diamond path under live traffic: the transport
    alone recovers the loss (the links never retransmit), within every
    invariant — the per-transaction retry budget included."""
    plan = FaultPlan(
        seed=17,
        specs=(
            FaultSpec("partition", "rA<->p1", onset_s=0.3, duration_s=0.8),
            FaultSpec("partition", "p1<->rB", onset_s=0.3, duration_s=0.8),
        ),
        name="live-partition",
    )
    report = run_live_soak(plan)
    assert report.ok_count > 0
    InvariantChecker(plan).assert_ok(report)
