"""FaultInjector: the one seam both substrates interrogate."""

import pytest

from repro.chaos.plan import FaultPlan, FaultSpec, PlanError
from repro.chaos.seam import DELIVER, FaultInjector
from repro.obs.registry import MetricsRegistry

EDGES = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]


def drop_plan(rate=0.5, seed=9):
    return FaultPlan(seed=seed, specs=(
        FaultSpec("drop", "a->b", onset_s=0.0, duration_s=5.0, rate=rate),
    ))


def started(injector):
    """Apply every START event (activate all faults)."""
    for event in injector.events:
        if event.action == "start":
            injector.apply(event, event.t)
    return injector


def fates(injector, link, n=200):
    return [injector.decide(link).drop for _ in range(n)]


def test_quiet_links_deliver_untouched():
    injector = FaultInjector(drop_plan(), EDGES)
    # No events applied yet: everything passes, and the shared
    # no-fault decision object is used (hot-path identity).
    assert injector.decide("a->b") is DELIVER
    assert injector.decide("b->c") is DELIVER
    assert injector.decide("not-a-link") is DELIVER


def test_per_packet_fates_are_seed_stable():
    """Same plan, two injectors: identical packet-by-packet fates —
    the property that lets a chaos failure be replayed."""
    one = started(FaultInjector(drop_plan(), EDGES))
    two = started(FaultInjector(drop_plan(), EDGES))
    assert fates(one, "a->b") == fates(two, "a->b")
    assert any(fates(started(FaultInjector(drop_plan(), EDGES)), "a->b"))


def test_fates_differ_across_seeds_and_links():
    one = started(FaultInjector(drop_plan(seed=1), EDGES))
    two = started(FaultInjector(drop_plan(seed=2), EDGES))
    assert fates(one, "a->b", 400) != fates(two, "a->b", 400)


def test_other_links_unaffected_by_a_directed_fault():
    injector = started(FaultInjector(drop_plan(rate=1.0), EDGES))
    assert injector.decide("a->b").drop
    assert injector.decide("b->a") is DELIVER
    assert injector.decide("b->c") is DELIVER


def test_partition_drops_every_packet_both_ways():
    plan = FaultPlan(seed=3, specs=(
        FaultSpec("partition", "a<->b", onset_s=0.0, duration_s=1.0),
    ))
    injector = started(FaultInjector(plan, EDGES))
    assert all(fates(injector, "a->b", 50))
    assert all(fates(injector, "b->a", 50))
    assert injector.partition_drops.count == 100


def test_stop_event_lifts_the_fault():
    injector = FaultInjector(drop_plan(rate=1.0), EDGES)
    start, stop = injector.events
    injector.apply(start, 0.0)
    assert injector.decide("a->b").drop
    injector.apply(stop, 5.0)
    assert injector.decide("a->b") is DELIVER
    assert injector.active_faults.value == 0


def test_delay_and_duplicate_and_corrupt_decisions():
    plan = FaultPlan(seed=5, specs=(
        FaultSpec("delay", "a->b", 0.0, 1.0, rate=1.0, delay_s=0.004),
        FaultSpec("duplicate", "a->b", 0.0, 1.0, rate=1.0),
        FaultSpec("corrupt", "a->b", 0.0, 1.0, rate=1.0),
    ))
    injector = started(FaultInjector(plan, EDGES))
    decision = injector.decide("a->b")
    assert decision.extra_delay_s == pytest.approx(0.004)
    assert decision.duplicate
    assert decision.corrupt_seed is not None


def test_unknown_plan_links_fail_eagerly():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("drop", "a->z", 0.0, 1.0, rate=0.5),
    ))
    with pytest.raises(PlanError):
        FaultInjector(plan, EDGES)


def test_applied_ndjson_is_the_replay_identity():
    one = FaultInjector(drop_plan(), EDGES)
    two = FaultInjector(drop_plan(), EDGES)
    for injector in (one, two):
        for event in injector.events:
            injector.apply(event, event.t)
    assert one.applied_ndjson() == two.applied_ndjson()
    assert len(one.applied) == len(one.events)


def test_record_and_registry_integration():
    injector = FaultInjector(drop_plan(), EDGES)
    registry = MetricsRegistry()
    injector.register(registry, substrate="test")
    injector.record("retry", 1.2345678, node="x", gap_s=0.05)
    assert injector.fault_log[-1] == {
        "event": "retry", "at": 1.234568, "node": "x", "gap_s": 0.05,
    }
