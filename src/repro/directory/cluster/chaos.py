"""Chaos soaks for the directory cluster: rebind storms under failover.

PR 5 hardened directory *clients* against a flaky directory; this
harness turns the chaos engine on the directory *itself*.  A seeded
:class:`~repro.chaos.plan.FaultPlan` of ``shard_failover`` faults
replays through the same :class:`~repro.chaos.seam.FaultInjector` seam
the sim and live substrates use — START kills the targeted shard's
leader, promotion to the most-caught-up follower happens after a fixed
``detection_delay_s`` (the membership monitor's failure-detection
latency), STOP restarts the crashed replica as a catching-up follower.

The workload is a deterministic virtual-time storm: ``clients`` shard-
aware clients issue lookups, rebinds and fresh registrations round-
robin, every attempt advancing the clock by a per-client jittered
``op_interval_s`` (jitter desynchronizes retry schedules, the PR 5
lesson).  Writes that die mid-failover are retried with the same
request id, so the run is also an end-to-end dedup exercise.

The result is a substrate-neutral
:class:`~repro.chaos.invariants.SoakReport`:

* ``delivery_counts`` come from the **final authoritative logs** — one
  log entry per request id is the exactly-once proof;
* retries land in the injector's fault log (forensics) and count
  against each transaction's ``retry_budget``;
* the recovery SLO measures how fast the rebind storm settles after
  the last fault clears.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.chaos.invariants import SoakReport, TxRecord
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.chaos.seam import FaultInjector
from repro.directory.cluster.client import ClusterClient, ClusterCommandError
from repro.directory.cluster.cluster import DirectoryCluster
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import MetricsRegistry


@dataclass
class ClusterSoakConfig:
    """Everything one cluster soak needs, seedable and explicit."""

    shard_count: int = 4
    replication_factor: int = 2
    clients: int = 8
    names_per_client: int = 25
    op_interval_s: float = 0.0005
    detection_delay_s: float = 0.05
    tail_s: float = 0.5            # post-fault settle window
    lookup_weight: float = 0.7
    rebind_weight: float = 0.2     # remainder registers fresh names
    max_attempts: int = 4
    registry: Optional[MetricsRegistry] = None
    #: Shared flight recorder (None = the soak makes its own; either
    #: way the end-of-run dump lands in ``SoakReport.flight_dump``).
    recorder: Optional[FlightRecorder] = None


def shard_failover_plan(
    seed: int,
    shard_ids: Tuple[str, ...],
    duration_s: float = 2.0,
    failovers: int = 1,
    recovery_slo_s: float = 2.0,
    retry_budget: int = 16,
) -> FaultPlan:
    """A seeded plan of ``failovers`` staggered shard-leader crashes."""
    rng = random.Random(f"sirpent-shard-failover:{seed}")
    specs: List[FaultSpec] = []
    for n in range(failovers):
        shard = shard_ids[rng.randrange(len(shard_ids))]
        length = duration_s * rng.uniform(0.15, 0.3)
        onset = duration_s * (0.2 + 0.6 * n / max(1, failovers))
        onset = min(onset + rng.uniform(0.0, duration_s * 0.05),
                    duration_s - length)
        specs.append(FaultSpec(
            kind="shard_failover", target=f"shard:{shard}",
            onset_s=round(onset, 6), duration_s=round(length, 6),
        ))
    return FaultPlan(
        seed=seed, specs=tuple(specs), recovery_slo_s=recovery_slo_s,
        retry_budget=retry_budget, name=f"shard-failover-{seed}",
    )


@dataclass
class _Pending:
    """A scheduled promotion (failure detection firing later)."""

    at: float
    shard_id: str


def run_cluster_soak(
    plan: FaultPlan, config: Optional[ClusterSoakConfig] = None
) -> SoakReport:
    """Replay ``plan`` against a live workload on a fresh cluster."""
    cfg = config or ClusterSoakConfig()
    cluster = DirectoryCluster(
        shard_count=cfg.shard_count,
        replication_factor=cfg.replication_factor,
        registry=cfg.registry,
    )
    injector = FaultInjector(plan, edges=())
    clock = _VirtualClock()
    # The shared ring: cluster replicas, the injector and the harness
    # all append to it on the virtual clock, so the dump's causal order
    # is the soak's event order.
    recorder = cfg.recorder
    if recorder is None:
        recorder = FlightRecorder(clock=clock.now)
    injector.recorder = recorder
    cluster.set_recorder(recorder)
    cluster.set_clock(clock.now)
    rebind_recovery = (
        cfg.registry.histogram("rebind_recovery_s")
        if cfg.registry is not None else None
    )
    promotions: List[_Pending] = []
    crashed: Dict[str, str] = {}  # shard id -> crashed replica id

    def shard_down(shard_id: str, at: float) -> None:
        replica_id = cluster.kill_shard_leader(shard_id)
        if replica_id is not None:
            crashed[shard_id] = replica_id
        promotions.append(_Pending(at + cfg.detection_delay_s, shard_id))
        injector.record("shard_leader_killed", at, shard=shard_id,
                        replica=replica_id)

    def shard_up(shard_id: str, at: float) -> None:
        replica_id = crashed.pop(shard_id, None)
        if replica_id is None:
            return
        replayed = cluster.restart_replica(shard_id, replica_id)
        injector.record("shard_replica_restarted", at, shard=shard_id,
                        replica=replica_id, replayed=replayed)

    injector.on_shard_down = shard_down
    injector.on_shard_up = shard_up

    # -- deterministic workload -------------------------------------------
    rng = random.Random(f"sirpent-cluster-soak:{plan.seed}")
    clients: List[ClusterClient] = []
    jitter: List[float] = []
    for n in range(cfg.clients):
        client = ClusterClient(
            cluster.execute_raw,
            name=f"soak-c{n}",
            max_attempts=cfg.max_attempts,
            cache_ttl_s=0.05,
            clock=clock.now,
            on_retry=lambda rid, attempt, _n=n: _on_retry(
                injector, clock, cfg, _n, attempt
            ),
        )
        clients.append(client)
        jitter.append(0.5 + rng.random())  # per-client cadence spread

    # Seed namespace: every client owns names spread across regions.
    names: List[List[str]] = []
    for n, client in enumerate(clients):
        mine = []
        for k in range(cfg.names_per_client):
            name = f"h{k}.c{n}.region{(n * 7 + k) % 11}.net"
            client.register_host(name, f"node-{n}-{k}")
            mine.append(name)
        names.append(mine)

    schedule = list(injector.events)
    schedule_pos = 0
    duration = plan.faults_end_s() + cfg.tail_s
    transactions: List[TxRecord] = []
    txid = 0
    fresh = 0

    while clock.now() < duration:
        t = clock.now()
        while schedule_pos < len(schedule) and schedule[schedule_pos].t <= t:
            event = schedule[schedule_pos]
            injector.apply(event, at=event.t)
            schedule_pos += 1
        for pending in [p for p in promotions if p.at <= t]:
            promotions.remove(pending)
            promoted = cluster.fail_over(pending.shard_id)
            injector.record("shard_promoted", t, shard=pending.shard_id,
                            replica=promoted)
        n = txid % cfg.clients
        client = clients[n]
        roll = rng.random()
        started = clock.now()
        txid += 1
        try:
            if roll < cfg.lookup_weight:
                target = names[n][rng.randrange(len(names[n]))]
                client.lookup(target, use_cache=rng.random() < 0.5)
            elif roll < cfg.lookup_weight + cfg.rebind_weight:
                target = names[n][rng.randrange(len(names[n]))]
                client.rebind(target, f"node-{n}-m{txid}")
                if rebind_recovery is not None:
                    # Wall time (virtual) from issuing the rebind to its
                    # acknowledgement — retries and backoff included, so
                    # a mid-failover rebind shows its true recovery cost.
                    rebind_recovery.add(clock.now() - started)
            else:
                fresh += 1
                name = f"f{fresh}.c{n}.region{fresh % 11}.net"
                client.register_host(name, f"node-{n}-f{fresh}")
                names[n].append(name)
            ok, error = True, ""
        except ClusterCommandError as exc:
            ok, error = False, exc.code or str(exc)
        clock.advance(cfg.op_interval_s * jitter[n])
        transactions.append(TxRecord(
            txid=txid, started_s=started, finished_s=clock.now(),
            ok=ok, retries=client.last_attempts - 1, error=error,
        ))

    cluster.refresh_metrics()
    report = SoakReport(
        plan=plan,
        substrate="cluster",
        duration_s=clock.now(),
        transactions=transactions,
        delivery_counts=dict(cluster.request_id_counts()),
        fault_log=injector.fault_log,
        applied_ndjson=injector.applied_ndjson(),
        flight_dump=recorder.dump_ndjson(
            last_s=None, now=clock.now(), reason="soak_end"
        ),
    )
    return report


def _on_retry(
    injector: FaultInjector,
    clock: "_VirtualClock",
    cfg: ClusterSoakConfig,
    client_index: int,
    attempt: int,
) -> None:
    """Record the retry and charge jittered backoff to the clock."""
    backoff = cfg.op_interval_s * (2 ** attempt) * (
        1.0 + 0.37 * ((client_index * 13 + attempt * 7) % 10)
    )
    clock.advance(backoff)
    injector.record("retry", clock.now(), client=client_index,
                    attempt=attempt)


class _VirtualClock:
    """A deterministic monotone clock the soak advances explicitly."""

    def __init__(self) -> None:
        self._now = 0.0

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> None:
        self._now += seconds
