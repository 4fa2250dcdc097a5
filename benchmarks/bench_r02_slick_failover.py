"""R02 — Slick-Packets failover: in-band reroute vs quarantine/rebind.

Robustness evidence for the ARCHITECTURE §16 backup-route DAGs: the
same fault plan (a mid-path link partition, then a mid-path router
crash) is replayed on **both** substrates against two traffic arms that
differ only in their route encoding:

* **non-slick** — two plain routes in a
  :class:`~repro.transport.rebind.RouteManager`; recovery is the §6.3
  client loop (end-to-end timeouts, quarantine, rebind);
* **slick** — the primary route carries its alternate as an in-band
  backup block (:func:`~repro.directory.routes.slickify_route`); the
  first router splices the alternate the moment its egress is dead,
  mid-flight, with no client involvement.

Measured per (plan, arm, substrate): the **recovery time** — from fault
onset to the first completed transaction *started after* the onset —
plus per-transaction latency curves (the committed NDJSON artifacts),
router reroute counters, and exactly-once delivery.  The claim under
test: slick recovery is >= 10x faster than quarantine/rebind under the
same plan on both substrates, with zero duplicate deliveries.

Substrate notes.  The live overlay detects a dead egress through the
link's probe ladder — unanswered probes on the traffic a port carries
(:class:`~repro.live.link.LivenessConfig`; the bench runs a tight ladder
so detection is milliseconds, identical in both arms).  The simulator
has no per-hop acks: its deterministic
equivalent of dead-peer detection is loss of carrier, so the sim driver
mirrors the partition spec's onset/offset onto
``topology.fail_link``/``restore_link`` (the seam's per-packet drops
still apply; a ``router_crash`` already fails adjacent links through
the interpreter on both substrates).
"""

from __future__ import annotations

import asyncio
import json
import os
import sys
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _entry in (_ROOT, os.path.join(_ROOT, "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.chaos.live_interp import LiveFaultInterpreter
from repro.chaos.plan import FaultPlan, FaultSpec
from repro.chaos.sim_interp import SimFaultInterpreter
from repro.chaos.soak import chaos_scenario
from repro.directory.routes import slickify_route
from repro.live.host import LiveTransactor, WallClock
from repro.live.link import LivenessConfig
from repro.live.topology import LiveOverlay
from repro.transport.rebind import RouteManager
from repro.transport.vmtp import TransportConfig

from benchmarks._common import RESULTS_DIR, format_table, publish

#: Everything below is a pure function of this seed (sim substrate).
SEED = 20260808

#: The acceptance floor: in-band reroute must beat rebind by this much.
MIN_SPEEDUP = 10.0

# -- sim schedule (virtual seconds) -----------------------------------------

SIM_ONSET_S = 0.05
SIM_FAULT_S = 0.4
SIM_TX_GAP_S = 5e-4
SIM_ISSUE_UNTIL_S = 0.15
SIM_RUN_UNTIL_S = 1.0

# -- live schedule (wall-clock seconds) -------------------------------------

LIVE_ONSET_S = 0.4
LIVE_FAULT_S = 0.8
LIVE_TX_GAP_S = 2e-3
LIVE_ISSUE_UNTIL_S = 1.0
#: Tight probe ladder (both arms): two unanswered 2 ms probes, a few
#: milliseconds with the send gap, *detect* a dead egress; only the
#: slick arm can also *act* on it mid-flight.
LIVE_LIVENESS = LivenessConfig(ack_timeout_s=0.002, max_retries=1)

#: Both arms' managers switch on explicit failure only.  Loopback RTTs
#: sit well above the directory's advertised sub-millisecond base RTT,
#: so the default degradation rule would ping-pong routes every few
#: samples and randomize which path is active at fault onset — this
#: bench isolates *failure-driven* recovery.
NO_DEGRADATION = 10**6


def _plans(onset: float, fault_s: float) -> List[FaultPlan]:
    """The two scripted plans, parameterized per substrate's clock."""
    return [
        FaultPlan(
            seed=SEED,
            specs=(FaultSpec(
                kind="partition", target="rA<->p1",
                onset_s=onset, duration_s=fault_s,
            ),),
            recovery_slo_s=1.0,
            name="r02-partition",
        ),
        FaultPlan(
            seed=SEED,
            specs=(FaultSpec(
                kind="router_crash", target="router:p1",
                onset_s=onset, duration_s=fault_s,
            ),),
            recovery_slo_s=1.0,
            name="r02-crash",
        ),
    ]


def _slickify(routes):
    """[primary, alternate] -> [slick primary (alternate in-band), alternate].

    The in-band block replaces hop 0 onward — the first router owns the
    reroute.  The plain alternate stays in the manager as the §6.3
    rebind backstop (the exhaustion fallback, ARCHITECTURE §16).
    """
    primary, alternate = routes[0], routes[1]
    segments, blocks = slickify_route(
        primary.segments, {0: alternate.segments}
    )
    return [
        replace(primary, segments=segments, alternates=blocks), alternate,
    ]


def _recovery_s(records, onset: float) -> Optional[float]:
    """Onset -> first completion of a transaction *started* after onset."""
    finishes = [
        fin for (started, fin, ok) in records if ok and started >= onset
    ]
    return (min(finishes) - onset) if finishes else None


def _curve(records, onset: float) -> List[dict]:
    """Per-transaction latency curve, times relative to fault onset."""
    return [
        {
            "t_ms": round((started - onset) * 1e3, 3),
            "latency_ms": round((fin - started) * 1e3, 3),
            "ok": ok,
        }
        for (started, fin, ok) in records
    ]


# -- simulator arm -----------------------------------------------------------


def _run_sim(plan: FaultPlan, slick: bool) -> dict:
    scenario = chaos_scenario(SEED)
    sim = scenario.sim
    interp = SimFaultInterpreter(sim, scenario.topology, plan)
    interp.schedule(0.0)
    spec = plan.specs[0]
    if spec.kind == "partition":
        # Loss-of-carrier mirror: the sim's deterministic equivalent of
        # the live overlay's per-hop dead-peer detection (see module
        # docstring).  router_crash already fails links via the seam.
        link = spec.target.replace("<->", "--")
        sim.at(spec.onset_s, scenario.topology.fail_link, link)
        sim.at(
            spec.onset_s + spec.duration_s,
            scenario.topology.restore_link, link,
        )

    config = TransportConfig(base_timeout=5e-3)
    client = scenario.transport("src", config=config)
    server = scenario.transport("dst", config=config)
    delivered: Dict[str, int] = {}

    def handler(message):
        key = f"tx-{message.transaction_id}"
        delivered[key] = delivered.get(key, 0) + 1
        return (b"ok", 64)

    entity = server.create_entity(handler, hint="r02-server")
    routes = scenario.vmtp_routes("src", "dst", k=2)
    manager = RouteManager(
        sim, _slickify(routes) if slick else routes,
        degradation_samples=NO_DEGRADATION,
    )

    records: List[Tuple[float, float, bool]] = []

    def issue(txid: int) -> None:
        started = sim.now

        def done(result) -> None:
            records.append((started, sim.now, result.ok))

        client.transact(manager, entity, b"x" * 64, 64, done)

    t, txid = 0.0, 0
    while t < SIM_ISSUE_UNTIL_S:
        sim.at(t, issue, txid)
        txid += 1
        t += SIM_TX_GAP_S
    sim.run(until=SIM_RUN_UNTIL_S)

    reroutes = sum(
        node.stats.slick_reroutes.count
        for node in scenario.topology.nodes.values()
        if hasattr(node, "stats")
    )
    return {
        "records": records,
        "recovery_s": _recovery_s(records, spec.onset_s),
        "curve": _curve(records, spec.onset_s),
        "duplicates": sum(1 for n in delivered.values() if n > 1),
        "reroutes": reroutes,
        "switches": manager.switches.count,
    }


# -- live arm ----------------------------------------------------------------


async def _drive_live(plan: FaultPlan, slick: bool) -> dict:
    scenario = chaos_scenario(SEED)
    overlay = LiveOverlay(scenario.topology, liveness=LIVE_LIVENESS)
    await overlay.start()
    interp = LiveFaultInterpreter(overlay, plan)
    loop = asyncio.get_running_loop()
    try:
        interp.install()
        src, dst = overlay.hosts["src"], overlay.hosts["dst"]
        server_tx = LiveTransactor(dst)
        delivered: Dict[str, int] = {}

        def handler(request: bytes) -> bytes:
            key = request[:16].rstrip(b".").decode("ascii", "replace")
            delivered[key] = delivered.get(key, 0) + 1
            return b"ok:" + request[:16]

        server_tx.serve(handler)
        client_tx = LiveTransactor(src)
        routes = overlay.routes(
            "src", "dst", k=2, dest_socket=client_tx.config.socket,
        )
        arm_routes = _slickify(routes) if slick else routes

        # Warm-up on a scratch manager: the overlay's first transactions
        # can time out while sockets and hop state settle, and a single
        # spurious report_failure would park the measured manager on the
        # backup path before the fault even starts.
        warmup = RouteManager(
            WallClock(), arm_routes, degradation_samples=NO_DEGRADATION,
        )
        for i in range(20):
            await client_tx.transact(warmup, b"warmup-%06d" % i)
            await asyncio.sleep(2e-3)
        for key in list(delivered):
            if key.startswith("warmup"):
                del delivered[key]
        manager = RouteManager(
            WallClock(), arm_routes, degradation_samples=NO_DEGRADATION,
        )

        interp.start()
        anchor = loop.time()
        records: List[Tuple[float, float, bool]] = []
        tasks: List[asyncio.Task] = []

        async def one(payload: bytes) -> None:
            started = loop.time() - anchor
            result = await client_tx.transact(manager, payload)
            records.append((started, loop.time() - anchor, result.ok))

        txid = 0
        while loop.time() - anchor < LIVE_ISSUE_UNTIL_S:
            payload = f"tx-{txid:06d}".encode().ljust(16, b".") + b"x" * 48
            tasks.append(loop.create_task(one(payload)))
            txid += 1
            await asyncio.sleep(LIVE_TX_GAP_S)
        await asyncio.gather(*tasks)
        await interp.wait()

        onset = plan.specs[0].onset_s
        reroutes = sum(
            router.metrics.slick_reroutes
            for router in overlay.routers.values()
        )
        return {
            "records": records,
            "recovery_s": _recovery_s(records, onset),
            "curve": _curve(records, onset),
            "duplicates": sum(1 for n in delivered.values() if n > 1),
            "reroutes": reroutes,
            "switches": manager.switches.count,
        }
    finally:
        interp.cancel()
        overlay.stop()


def _run_live(plan: FaultPlan, slick: bool) -> dict:
    return asyncio.run(_drive_live(plan, slick))


# -- harness -----------------------------------------------------------------


def _run() -> dict:
    out: Dict[str, dict] = {}
    for plan in _plans(SIM_ONSET_S, SIM_FAULT_S):
        for slick in (False, True):
            arm = "slick" if slick else "rebind"
            out[f"sim/{plan.name}/{arm}"] = _run_sim(plan, slick)
    for plan in _plans(LIVE_ONSET_S, LIVE_FAULT_S):
        for slick in (False, True):
            arm = "slick" if slick else "rebind"
            out[f"live/{plan.name}/{arm}"] = _run_live(plan, slick)
    return out


def _write_artifact(results: Dict[str, dict]) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "r02_recovery_curves.ndjson")
    with open(path, "w") as handle:
        for key in sorted(results):
            for point in results[key]["curve"]:
                entry = dict(run=key, **point)
                handle.write(json.dumps(
                    entry, sort_keys=True, separators=(",", ":")
                ) + "\n")
    return path


def bench_r02_slick_failover(benchmark):
    results = benchmark.pedantic(_run, rounds=1, iterations=1)
    _write_artifact(results)

    rows = []
    metrics: Dict[str, float] = {}
    ratios: Dict[str, float] = {}
    for substrate in ("sim", "live"):
        for plan_name in ("r02-partition", "r02-crash"):
            pair = {}
            for arm in ("rebind", "slick"):
                run = results[f"{substrate}/{plan_name}/{arm}"]
                assert run["recovery_s"] is not None, (
                    f"{substrate}/{plan_name}/{arm}: no post-onset "
                    "transaction ever completed"
                )
                pair[arm] = run
                rows.append((
                    substrate, plan_name.replace("r02-", ""), arm,
                    len(run["records"]),
                    run["recovery_s"] * 1e3,
                    run["reroutes"], run["switches"], run["duplicates"],
                ))
            ratio = pair["rebind"]["recovery_s"] / pair["slick"]["recovery_s"]
            kind = plan_name.replace("r02-", "")
            ratios[f"{substrate}/{kind}"] = ratio
            metrics[f"{substrate}_{kind}_slick_recovery_ms"] = round(
                pair["slick"]["recovery_s"] * 1e3, 3
            )
            metrics[f"{substrate}_{kind}_speedup"] = round(ratio, 2)

    table = format_table(
        f"R02  Slick-Packets failover vs quarantine/rebind (seed {SEED})",
        ["substrate", "fault", "arm", "tx", "recovery ms",
         "reroutes", "switches", "dups"],
        rows,
    )
    note = (
        "\nrecovery = fault onset -> first completed tx started after "
        "onset.\nspeedups (rebind/slick): "
        + ", ".join(f"{k} {v:.1f}x" for k, v in sorted(ratios.items()))
        + "\ncurves: benchmarks/results/r02_recovery_curves.ndjson"
    )
    publish("r02_slick_failover", table + note, data={
        "name": "r02_slick_failover",
        "title": "R02 Slick-Packets failover",
        "metrics": metrics,
        "lower_is_better": sorted(
            k for k in metrics if k.endswith("_recovery_ms")
        ),
        "higher_is_better": sorted(
            k for k in metrics if k.endswith("_speedup")
        ),
    })

    # Acceptance: in-band reroute beats client rebind >= 10x under the
    # same plan on both substrates, with exactly-once delivery intact.
    for key, ratio in ratios.items():
        assert ratio >= MIN_SPEEDUP, (
            f"{key}: slick recovery only {ratio:.1f}x faster "
            f"(need >= {MIN_SPEEDUP:.0f}x)"
        )
    for key, run in results.items():
        assert run["duplicates"] == 0, f"{key}: duplicate deliveries"
        if key.endswith("/slick"):
            assert run["reroutes"] > 0, f"{key}: no in-band reroute fired"
        else:
            assert run["reroutes"] == 0, f"{key}: non-slick arm rerouted"


if __name__ == "__main__":
    from benchmarks.run_all import _InlineBenchmark

    bench_r02_slick_failover(_InlineBenchmark())
