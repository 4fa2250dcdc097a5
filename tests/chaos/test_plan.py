"""FaultPlan compilation: deterministic, validated, canonical."""

import pytest

from repro.chaos.plan import (
    DIRECTORY_TARGET,
    FaultPlan,
    FaultSpec,
    PlanError,
    START,
    STOP,
    expand_target,
)

EDGES = [("a", "b"), ("b", "a"), ("b", "c"), ("c", "b")]


def sample_plan(seed=7):
    return FaultPlan(
        seed=seed,
        specs=(
            FaultSpec("drop", "a->b", onset_s=1.0, duration_s=2.0, rate=0.3),
            FaultSpec("delay", "a<->b", onset_s=0.5, duration_s=1.0,
                      rate=0.5, delay_s=0.01),
            FaultSpec("partition", "b<->c", onset_s=3.0, duration_s=1.0),
            FaultSpec("router_crash", "router:b", onset_s=2.0,
                      duration_s=0.5),
            FaultSpec("directory_outage", DIRECTORY_TARGET, onset_s=0.2,
                      duration_s=0.4),
        ),
        name="sample",
    )


# -- determinism -------------------------------------------------------------


def test_same_seed_same_schedule():
    """The replay identity: one seed, one byte-stable schedule."""
    a, b = sample_plan(7), sample_plan(7)
    assert a.schedule() == b.schedule()
    assert a.to_ndjson() == b.to_ndjson()
    assert a.fingerprint() == b.fingerprint()


def test_generated_plans_are_pure_functions_of_their_arguments():
    kwargs = dict(
        duration_s=30.0, link_targets=("a<->b", "b<->c"),
        router_targets=("b",), directory=True,
    )
    assert (FaultPlan.generate(3, **kwargs).fingerprint()
            == FaultPlan.generate(3, **kwargs).fingerprint())
    assert (FaultPlan.generate(3, **kwargs).fingerprint()
            != FaultPlan.generate(4, **kwargs).fingerprint())


def test_spec_seeds_differ_per_spec_but_not_per_run():
    events = sample_plan().schedule()
    seeds = {e.spec_index: e.seed for e in events}
    assert len(set(seeds.values())) == len(seeds)
    assert seeds == {e.spec_index: e.seed for e in sample_plan().schedule()}


# -- schedule shape ----------------------------------------------------------


def test_every_spec_compiles_to_a_start_stop_pair():
    plan = sample_plan()
    events = plan.schedule()
    assert len(events) == 2 * len(plan.specs)
    for index, spec in enumerate(plan.specs):
        mine = [e for e in events if e.spec_index == index]
        assert [e.action for e in mine] == [START, STOP]
        assert mine[0].t == spec.onset_s
        assert mine[1].t == spec.onset_s + spec.duration_s


def test_schedule_sorted_with_stop_before_start_on_ties():
    plan = FaultPlan(seed=1, specs=(
        FaultSpec("drop", "a->b", onset_s=0.0, duration_s=1.0, rate=0.5),
        FaultSpec("drop", "b->a", onset_s=1.0, duration_s=1.0, rate=0.5),
    ))
    actions_at_1 = [e.action for e in plan.schedule() if e.t == 1.0]
    assert actions_at_1 == [STOP, START]


def test_faults_end():
    assert sample_plan().faults_end_s() == 4.0


# -- validation --------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    FaultSpec("meteor", "a->b", 0.0, 1.0),
    FaultSpec("drop", "a->b", -1.0, 1.0, rate=0.5),
    FaultSpec("drop", "a->b", 0.0, 0.0, rate=0.5),
    FaultSpec("drop", "a->b", 0.0, 1.0, rate=0.0),
    FaultSpec("drop", "a->b", 0.0, 1.0, rate=1.5),
    FaultSpec("delay", "a->b", 0.0, 1.0, rate=0.5, delay_s=0.0),
    FaultSpec("directory_outage", "a->b", 0.0, 1.0),
    FaultSpec("router_crash", "b", 0.0, 1.0),
])
def test_invalid_specs_fail_at_plan_construction(spec):
    with pytest.raises(PlanError):
        FaultPlan(seed=1, specs=(spec,))


# -- target expansion --------------------------------------------------------


def test_expand_directed_and_bidirectional_targets():
    assert expand_target("a->b", EDGES) == ["a->b"]
    assert expand_target("a<->b", EDGES) == ["a->b", "b->a"]


def test_expand_node_target_touches_every_adjacent_link():
    assert expand_target("node:b", EDGES) == [
        "a->b", "b->a", "b->c", "c->b"
    ]


@pytest.mark.parametrize("target", ["a->z", "z<->a", "node:z", "gibberish"])
def test_expand_unknown_targets_raise(target):
    with pytest.raises(PlanError):
        expand_target(target, EDGES)
