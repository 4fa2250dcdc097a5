"""Flight-recorder forensics over chaos soaks.

The acceptance story: a fault plan mixing ``router_crash`` and
``shard_failover`` replays through the one chaos seam while every
component appends to one shared flight recorder; the resulting NDJSON
dump must reconstruct the full fault timeline — onset (the injector
applying the fault), detection (the leader observed dead), promotion
(the most-caught-up follower taking over), recovery (the crashed
entities back in service) — in causal order.
"""

import pytest

from repro.chaos.invariants import (
    InvariantChecker,
    InvariantViolationError,
    SoakReport,
    TxRecord,
)
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.chaos.seam import FaultInjector
from repro.chaos.soak import run_sim_soak
from repro.directory.cluster.chaos import (
    ClusterSoakConfig,
    run_cluster_soak,
    shard_failover_plan,
)
from repro.directory.cluster.cluster import DirectoryCluster
from repro.obs.recorder import FlightRecorder, fault_timeline, load_dump

pytestmark = pytest.mark.chaos


class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def _mixed_plan() -> FaultPlan:
    return FaultPlan(
        seed=11,
        specs=(
            FaultSpec(kind="router_crash", target="router:p1",
                      onset_s=0.2, duration_s=0.4),
            FaultSpec(kind="shard_failover", target="shard:shard-0",
                      onset_s=0.5, duration_s=0.5),
        ),
        recovery_slo_s=2.0,
        retry_budget=16,
        name="mixed-crash-failover",
    )


def test_dump_reconstructs_mixed_fault_timeline():
    """router_crash + shard_failover in one plan, one ring, one story."""
    plan = _mixed_plan()
    clock = _Clock()
    recorder = FlightRecorder(clock=clock.now)
    injector = FaultInjector(plan, edges=())
    injector.recorder = recorder
    cluster = DirectoryCluster(shard_count=1, replication_factor=2)
    cluster.set_recorder(recorder)

    crashed = {}

    def shard_down(shard_id, at):
        replica = cluster.kill_shard_leader(shard_id)
        crashed[shard_id] = replica
        injector.record("shard_leader_killed", at, shard=shard_id,
                        replica=replica)
        promoted = cluster.fail_over(shard_id)
        injector.record("shard_promoted", at, shard=shard_id,
                        replica=promoted)

    def shard_up(shard_id, at):
        replica = crashed.pop(shard_id)
        replayed = cluster.restart_replica(shard_id, replica)
        injector.record("shard_replica_restarted", at, shard=shard_id,
                        replica=replica, replayed=replayed)

    # The live interpreter's restart path lands in the recorder via
    # LiveRouter.restart(); this harness stands in for that substrate.
    def router_restart(name, at):
        recorder.record("router_restarted", node=name, t=at, port=0)

    injector.on_shard_down = shard_down
    injector.on_shard_up = shard_up
    injector.on_router_restart = router_restart

    for event in injector.events:
        clock.t = event.t
        injector.apply(event, at=event.t)
    clock.t = plan.faults_end_s() + 0.1

    dump = recorder.dump_ndjson(
        last_s=clock.t, now=clock.t, reason="test_trigger"
    )
    header, events = load_dump(dump)
    assert header["reason"] == "test_trigger"

    timeline = fault_timeline(events)
    onsets = {e["kind"] for e in timeline["onset"]}
    assert onsets == {"router_crash", "shard_failover"}
    assert {e["event"] for e in timeline["detection"]} == {
        "shard_leader_killed", "leader_killed",
    }
    assert {e["event"] for e in timeline["promotion"]} == {
        "shard_promoted", "leader_promoted",
    }
    recovery_events = [e["event"] for e in timeline["recovery"]]
    assert "router_restarted" in recovery_events
    assert "shard_replica_restarted" in recovery_events
    assert "replica_restarted" in recovery_events
    # Both faults' STOP actions count as recovery.
    stops = [e for e in timeline["recovery"]
             if e["event"] == "fault_applied"]
    assert {e["kind"] for e in stops} == {"router_crash", "shard_failover"}

    # Causal order: the shard story's phases hold sequence order.
    def first_seq(phase, name):
        return min(e["seq"] for e in timeline[phase]
                   if e["event"] == name)

    assert (
        first_seq("onset", "fault_applied")
        < first_seq("detection", "shard_leader_killed")
        < first_seq("promotion", "leader_promoted")
        < first_seq("recovery", "shard_replica_restarted")
    )


def test_cluster_soak_report_carries_flight_dump():
    plan = shard_failover_plan(
        seed=5, shard_ids=("shard-0", "shard-1"), duration_s=1.0,
        failovers=2,
    )
    report = run_cluster_soak(plan, ClusterSoakConfig(shard_count=2))
    header, events = load_dump(report.flight_dump)
    assert header["reason"] == "soak_end"
    timeline = fault_timeline(events)
    assert timeline["onset"] and timeline["detection"]
    assert timeline["promotion"] and timeline["recovery"]
    # Workload activity is in the same ring as the fault story.
    assert any(e["event"] == "log_appended" for e in events)


def test_sim_soak_report_carries_flight_dump():
    plan = FaultPlan(
        seed=3,
        specs=(
            FaultSpec(kind="router_crash", target="router:p1",
                      onset_s=0.5, duration_s=0.5),
        ),
        recovery_slo_s=2.0,
        retry_budget=16,
        name="sim-crash",
    )
    report = run_sim_soak(plan, seed=3)
    header, events = load_dump(report.flight_dump)
    assert header["reason"] == "soak_end"
    timeline = fault_timeline(events)
    assert [e["kind"] for e in timeline["onset"]] == ["router_crash"]
    assert any(e.get("action") == "stop" for e in timeline["recovery"])


def test_invariant_violation_attaches_flight_dump():
    plan = _mixed_plan()
    recorder = FlightRecorder(clock=lambda: 0.0)
    recorder.record("fault_applied", node="chaos", t=0.2,
                    kind="router_crash", target="router:p1",
                    action="start")
    report = SoakReport(
        plan=plan, substrate="unit", duration_s=1.0,
        transactions=[TxRecord(txid=1, started_s=0.0, finished_s=-1.0,
                               ok=False)],
        flight_dump=recorder.dump_ndjson(now=0.3, reason="unit"),
    )
    checker = InvariantChecker(plan)
    with pytest.raises(InvariantViolationError) as excinfo:
        checker.assert_ok(report)
    message = str(excinfo.value)
    assert "flight recorder dump" in message
    assert '"fault_applied"' in message
