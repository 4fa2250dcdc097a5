"""Seeded chaos soaks: the same plan, the sim stack, the live stack.

One canonical topology — the 4-router diamond
``src — rA — (p1|p2) — rB — dst`` (two disjoint middle paths, the
minimum §6.3 needs for client-held alternates to mean anything) — and
one canonical :func:`chaos_plan` drive both substrates:

* :func:`run_sim_soak` — VMTP transactions over the simulator, plan
  events on the virtual clock (30 simulated seconds cost milliseconds);
* :func:`run_live_soak` — :class:`~repro.live.host.LiveTransactor`
  transactions over real UDP sockets, plan events on the asyncio clock,
  directory refresh over real TCP (so directory outages exercise the
  client's reconnect path).  The links never retransmit: every retry is
  the transport's, counted per transaction against the plan's
  ``retry_budget``.

Both return a :class:`~repro.chaos.invariants.SoakReport`; feeding the
two reports' ``applied_ndjson`` into one ``==`` is the replay-identity
assertion, and :class:`~repro.chaos.invariants.InvariantChecker` is the
soundness verdict.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional

from repro.chaos.invariants import SoakReport, TxRecord
from repro.chaos.live_interp import LiveFaultInterpreter
from repro.chaos.plan import FaultPlan
from repro.chaos.sim_interp import SimFaultInterpreter
from repro.directory.routes import Route
from repro.live.directory import DirectoryError, LiveDirectoryClient
from repro.live.host import LiveTransactor, WallClock
from repro.live.topology import LiveOverlay
from repro.obs.recorder import FlightRecorder
from repro.scenarios import build_sirpent_parallel
from repro.scenarios.builders import SirpentScenario
from repro.transport.rebind import RouteManager
from repro.transport.vmtp import TransportConfig

#: Fault targets of the canonical diamond (both middle paths, the
#: crashable mid router, and the directory).
DIAMOND_LINKS = ("rA<->p1", "p1<->rB", "rA<->p2", "p2<->rB")
DIAMOND_ROUTERS = ("p1",)


def chaos_scenario(seed: int = 1) -> SirpentScenario:
    """The canonical 4-router diamond, sim description (both substrates
    boot from it — the live overlay via :class:`LiveOverlay`)."""
    return build_sirpent_parallel(
        n_paths=2, path_delay_step=50e-6, seed=seed,
    )


def chaos_plan(
    seed: int,
    duration_s: float = 30.0,
    intensity: float = 0.5,
    recovery_slo_s: float = 2.0,
    retry_budget: int = 16,
) -> FaultPlan:
    """The canonical mixed-fault plan over the diamond's fault targets."""
    return FaultPlan.generate(
        seed=seed,
        duration_s=duration_s,
        link_targets=DIAMOND_LINKS,
        router_targets=DIAMOND_ROUTERS,
        directory=True,
        intensity=intensity,
        recovery_slo_s=recovery_slo_s,
        retry_budget=retry_budget,
        name=f"diamond-{seed}",
    )


# -- simulator soak ----------------------------------------------------------


def run_sim_soak(
    plan: FaultPlan,
    seed: int = 1,
    tx_interval_s: float = 0.05,
    grace_s: float = 5.0,
) -> SoakReport:
    """Drive ``plan`` through the simulator substrate."""
    scenario = chaos_scenario(seed)
    sim = scenario.sim
    interp = SimFaultInterpreter(sim, scenario.topology, plan)
    # Flight recorder on the virtual clock: fault applications, harness
    # events and the hosts' drops, retries and route switches land in
    # the ring, dumped into the report at the end.
    recorder = FlightRecorder(clock=lambda: sim.now)
    interp.injector.recorder = recorder
    for host in scenario.hosts.values():
        host.set_recorder(recorder)
    interp.schedule(0.0)

    config = TransportConfig(base_timeout=5e-3)
    client = scenario.transport("src", config=config)
    server = scenario.transport("dst", config=config)
    delivery_counts: Dict[object, int] = {}

    def handler(message):
        key = f"sim-tx-{message.transaction_id}"
        delivery_counts[key] = delivery_counts.get(key, 0) + 1
        return (b"ok", 64)

    entity = server.create_entity(handler, hint="chaos-server")

    def refresher() -> List[Route]:
        if not interp.directory_up:
            return []  # outage: the §6.3 stale-route hazard, on purpose
        return scenario.vmtp_routes("src", "dst", k=2)

    manager = RouteManager(
        sim, scenario.vmtp_routes("src", "dst", k=2), refresher=refresher,
    )

    records: List[TxRecord] = []

    def issue(txid: int) -> None:
        record = TxRecord(
            txid=txid, started_s=sim.now, finished_s=-1.0, ok=False,
        )
        records.append(record)

        def done(result) -> None:
            record.finished_s = sim.now
            record.ok = result.ok
            record.retries = result.retries
            record.route_switches = result.route_switches
            record.error = result.error

        client.transact(manager, entity, f"tx-{txid:06d}".encode(), 64, done)

    duration = plan.faults_end_s() + plan.recovery_slo_s
    txid = 0
    t = 0.0
    while t < duration:
        sim.at(t, issue, txid)
        txid += 1
        t += tx_interval_s
    sim.run(until=duration + grace_s)

    return SoakReport(
        plan=plan,
        substrate="sim",
        duration_s=sim.now,
        transactions=records,
        delivery_counts=delivery_counts,
        fault_log=interp.injector.fault_log,
        applied_ndjson=interp.injector.applied_ndjson(),
        flight_dump=recorder.dump_ndjson(
            last_s=sim.now, now=sim.now, reason="soak_end"
        ),
    )


# -- live soak ---------------------------------------------------------------


async def _drive_live(
    plan: FaultPlan,
    seed: int,
    tx_gap_s: float,
    refresh_interval_s: float,
) -> SoakReport:
    scenario = chaos_scenario(seed)
    overlay = LiveOverlay(scenario.topology)
    await overlay.start()
    loop = asyncio.get_running_loop()
    directory_client = LiveDirectoryClient("src")
    refresh_task: Optional[asyncio.Task] = None
    interp = LiveFaultInterpreter(overlay, plan)
    try:
        interp.install()
        anchor = loop.time()

        def plan_now() -> float:
            return loop.time() - anchor

        # Re-clock the overlay's always-on recorder to plan-relative
        # seconds and share it with the injector, so packet fates and
        # fault applications interleave on one timeline.
        overlay.recorder.clock = plan_now
        injector = interp.injector
        injector.recorder = overlay.recorder

        src = overlay.hosts["src"]
        dst = overlay.hosts["dst"]
        server_tx = LiveTransactor(dst)
        delivery_counts: Dict[object, int] = {}

        def handler(request: bytes) -> bytes:
            key = request[:16].rstrip(b".").decode("ascii", "replace")
            delivery_counts[key] = delivery_counts.get(key, 0) + 1
            return b"ok:" + request[:16]

        server_tx.serve(handler)
        client_tx = LiveTransactor(src)

        routes = overlay.routes(
            "src", "dst", k=2, dest_socket=client_tx.config.socket,
        )
        manager = RouteManager(WallClock(), routes)
        src.endpoint.on_peer_dead = lambda addr: manager.report_failure()

        await directory_client.connect(overlay.directory_address)

        async def refresh_loop() -> None:
            while True:
                await asyncio.sleep(refresh_interval_s)
                try:
                    fresh = await directory_client.routes(
                        "dst", k=2,
                        dest_socket=client_tx.config.socket,
                        timeout_s=0.5,
                    )
                except (DirectoryError, OSError):
                    injector.record("directory_refresh_failed", plan_now())
                    continue
                if fresh:
                    manager.adopt(fresh)

        refresh_task = loop.create_task(refresh_loop())
        interp.start()

        records: List[TxRecord] = []
        end = plan.faults_end_s() + plan.recovery_slo_s
        txid = 0
        while plan_now() < end:
            payload = f"tx-{txid:06d}".encode().ljust(16, b".") + b"x" * 48
            started = plan_now()
            result = await client_tx.transact(manager, payload)
            records.append(TxRecord(
                txid=txid,
                started_s=started,
                finished_s=plan_now(),
                ok=result.ok,
                retries=result.retries,
                route_switches=result.route_switches,
                error=result.error,
            ))
            txid += 1
            await asyncio.sleep(tx_gap_s)
        await interp.wait()

        return SoakReport(
            plan=plan,
            substrate="live",
            duration_s=plan_now(),
            transactions=records,
            delivery_counts=delivery_counts,
            fault_log=injector.fault_log,
            applied_ndjson=injector.applied_ndjson(),
            flight_dump=overlay.recorder.dump_ndjson(
                last_s=plan_now(), now=plan_now(), reason="soak_end"
            ),
        )
    finally:
        if refresh_task is not None:
            refresh_task.cancel()
        interp.cancel()
        directory_client.close()
        overlay.stop()


def run_live_soak(
    plan: FaultPlan,
    seed: int = 1,
    tx_gap_s: float = 0.02,
    refresh_interval_s: float = 0.5,
) -> SoakReport:
    """Drive ``plan`` through the live UDP overlay (wall-clock time)."""
    return asyncio.run(
        _drive_live(plan, seed, tx_gap_s, refresh_interval_s)
    )
