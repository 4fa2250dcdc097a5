"""``sim_random_mix``: the discrete-event substrate, no sockets at all.

``build_sirpent_random(12 routers, 8 hosts, 6 chords)``, tokens
required, 16 closed-loop ``TransactionApp`` clients with request sizes
{64, 700, 2500} B, 512 B replies and 1 ms mean think time, driven
through ``Simulator.run`` one short simulated slice at a time.

The internetwork and the 16 (client, server, size) flows are *fixed*
(:data:`TOPOLOGY_SEED`): between random topologies host-seconds per
transaction differ by 2x (887-1,782 tx/s measured over builder seeds
1-5), which is the workload changing, not the program.  ``--seed``
drives what is left: every client's think times.
"""

from __future__ import annotations

import random
import statistics
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

from repro.core.router import RouterConfig
from repro.scenarios import build_sirpent_random
from repro.transport import RouteManager
from repro.workloads.apps import TransactionApp

from benchmarks.e2e import probes
from benchmarks.e2e.estimate import (
    Calibration,
    Slice,
    at_reference_speed,
    peak_rss_mb,
    quantile,
)
from benchmarks.e2e.runner import (
    RunResult,
    check,
    cpu_share_warnings,
    declared_metrics,
    machine_speed,
    setup_seconds,
    timing_metrics,
)
from benchmarks.e2e.spec import SELF_SHARE_PACKAGES, SETUP_REPEATS, Workload

#: Seed of the internetwork and of the flow list.
TOPOLOGY_SEED = 1

CLIENTS = 16
REQUEST_SIZES = (64, 700, 2500)
REPLY_BYTES = 512
MEAN_THINK_S = 1e-3

#: Simulated seconds per measured slice (about 100 transactions).
SLICE_SIM_S = 0.05

#: Simulated seconds of warm-up; every set-up of a run must reach the
#: same :meth:`SimBench.fingerprint` here.
WARMUP_SIM_S = 0.25


@dataclass(frozen=True)
class Progress:
    """Cumulative counters of the scenario at one instant."""

    completed: int
    events: int
    forwarded: int


class SimBench:
    """The scenario, its clients, and cumulative statistics."""

    def __init__(self, seed: int) -> None:
        self.scenario = build_sirpent_random(
            n_routers=12, n_hosts=8, extra_edges=6,
            router_config=RouterConfig(require_tokens=True),
            seed=TOPOLOGY_SEED,
        )
        scenario = self.scenario
        names = sorted(scenario.hosts)
        self.transports = {name: scenario.transport(name) for name in names}
        self.served = 0
        entities = {
            name: transport.create_entity(self._serve, hint=f"svc-{name}")
            for name, transport in self.transports.items()
        }
        flows = random.Random(TOPOLOGY_SEED)
        self.apps: List[TransactionApp] = []
        for index in range(CLIENTS):
            source, destination = flows.sample(names, 2)
            routes = scenario.vmtp_routes(
                source, destination, k=1, with_tokens=True
            )
            self.apps.append(TransactionApp(
                scenario.sim, self.transports[source],
                RouteManager(scenario.sim, routes), entities[destination],
                random.Random(f"think:{seed}:{index}"),
                request_size=REQUEST_SIZES[index % len(REQUEST_SIZES)],
                mean_think=MEAN_THINK_S,
            ))
        self.now = 0.0

    def _serve(self, _message) -> Tuple[bytes, int]:
        self.served += 1
        return b"ok", REPLY_BYTES

    def advance(self, simulated_s: float) -> None:
        self.now += simulated_s
        self.scenario.sim.run(until=self.now)

    def progress(self) -> Progress:
        return Progress(
            completed=sum(app.completed.count for app in self.apps),
            events=self.scenario.sim.events_executed,
            forwarded=sum(
                r.stats.forwarded.count for r in self.scenario.routers.values()
            ),
        )

    def failed(self) -> int:
        return sum(app.failed.count for app in self.apps)

    def drops(self) -> int:
        return sum(
            s.dropped_no_route.count + s.dropped_token.count
            + s.dropped_bad_portinfo.count + s.route_exhausted.count
            for s in (r.stats for r in self.scenario.routers.values())
        )

    def rtts(self) -> List[float]:
        """Every completed transaction's simulated round-trip time."""
        return [rtt for app in self.apps for rtt in app.response_time.samples]

    def client_rtt_quantile(self, q: float) -> float:
        """The median client's ``q`` quantile of simulated RTT.

        Not a quantile of the pooled samples: the 16 flows differ in path
        and size, the pool is multi-modal, and where its quantiles fall
        depends on the think-time seed (9-20 % between seeds, measured);
        each client's own distribution is unimodal and repeats to 2 %.
        """
        return statistics.median(
            quantile(sorted(app.response_time.samples), q) for app in self.apps
        )

    def fingerprint(self) -> Tuple[int, int, float, int, int, int]:
        """(completed, ok, sum of rtt, retries, forwarded, drops): equal
        between two runs of one commit, and between two commits unless
        simulated behaviour changed."""
        progress = self.progress()
        return (
            progress.completed + self.failed(),
            progress.completed,
            round(sum(self.rtts()), 9),
            sum(
                t.stats.retransmissions.count for t in self.transports.values()
            ),
            progress.forwarded,
            self.drops(),
        )


# -- one run -----------------------------------------------------------------


def run(
    workload: Workload, seed: int, seconds: float, traced: bool,
    quick: bool, entered: float, calibrate: Calibration,
) -> RunResult:
    """``sim_random_mix`` in this process."""
    imports_s = time.process_time() - entered
    warmup_s = WARMUP_SIM_S / (10 if quick else 1)
    slice_s = SLICE_SIM_S / (5 if quick else 1)
    set_ups, fingerprints, set_up_counts = [], [], []
    calibrations = machine_speed(calibrate)
    bench = None
    for _ in range(2 if quick else SETUP_REPEATS):
        started = time.process_time()
        with probes.profiling(enabled=traced) as profiler:
            bench = SimBench(seed)
            bench.advance(warmup_s)
        set_ups.append(time.process_time() - started)
        calibrations += machine_speed(calibrate)
        fingerprints.append(bench.fingerprint())
        if traced:
            set_up_counts.append(probes.call_counts(profiler.getstats()))
    check(len(set(fingerprints)) == 1,
           f"the same seed simulated differently: {fingerprints}")
    check(all(c == set_up_counts[0] for c in set_up_counts),
           f"call counts differ between identical set-ups: {set_up_counts}")
    setup_s = setup_seconds(imports_s, set_ups, calibrations)

    fixed = 3 if quick else workload.fixed_slices
    warm = bench.progress()

    def window(limit_s: float, min_slices: int, on_fixed: Callable[[], None]) -> List[Slice]:
        slices: List[Slice] = []
        calibrated = calibrate()
        started = time.perf_counter()
        while len(slices) < min_slices or time.perf_counter() - started < limit_s:
            before = bench.progress()
            wall, cpu = time.perf_counter(), time.process_time()
            bench.advance(slice_s)
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            after = bench.progress()
            earlier, calibrated = calibrated, calibrate()
            slices.append(Slice.between(
                earlier, calibrated,
                tx=after.completed - before.completed, wall_s=wall, cpu_s=cpu,
                events=after.events - before.events,
            ))
            if len(slices) == min_slices:
                on_fixed()
        return slices

    exact: Dict[str, float] = {}
    tables: List[str] = []

    def sample_fixed_part() -> None:
        """Simulated statistics of the fixed part repeat exactly."""
        now = bench.progress()
        tx = now.completed - warm.completed
        exact.update({
            "peak_rss_mb": peak_rss_mb(),
            "rtt_p50_ms": bench.client_rtt_quantile(0.5) * 1e3,
            "rtt_p90_ms": bench.client_rtt_quantile(0.9) * 1e3,
            "sim.events_per_tx": (now.events - warm.events) / tx,
            "core.router.forwarded_per_tx": (now.forwarded - warm.forwarded) / tx,
            "core.router.drops": bench.drops(),
            "fingerprint": bench.fingerprint(),
            "rtt_samples": now.completed,
        })

    if not traced:
        slices = window(seconds, fixed, sample_fixed_part)
        values, notes = timing_metrics(slices)
        values.update({k: exact[k] for k in ("peak_rss_mb", "rtt_p50_ms", "rtt_p90_ms")})
        values["setup_s"] = setup_s
    else:
        # Profiled window first: the fixed part then starts right after
        # warm-up, where an untraced run's does, and the fingerprints match.
        with probes.profiling() as profiler:
            slices = window(seconds / 2, fixed, sample_fixed_part)
        stats = profiler.getstats()
        reference, _ = timing_metrics(window(seconds / 4, 3, lambda: None))
        timing, notes = timing_metrics(slices)
        events_per_s = 1.0 / at_reference_speed(
            [s.calibration_wall_s for s in slices],
            [s.wall_s / s.events for s in slices],
        )
        tx = sum(s.tx for s in slices)
        counts = probes.call_counts(stats)
        shares = probes.self_shares(stats, SELF_SHARE_PACKAGES)
        values = {
            f"calls.{key}_per_tx": count / tx for key, count in counts.items()
        }
        values.update({f"{pkg}.self_share": share for pkg, share in shares.items()})
        values.update({
            k: exact[k] for k in ("sim.events_per_tx",
                                  "core.router.forwarded_per_tx",
                                  "core.router.drops")
        })
        values["sim.events_per_s"] = events_per_s
        values["calls.exact_repeat"] = 1.0
        values["trace_overhead_ratio"] = timing["tx_per_s"] / reference["tx_per_s"]
        rows = sorted(shares.items(), key=lambda item: -item[1])
        tables.append("\n".join(
            [f"self time by package, {workload.name} (cProfile, sums to 1)"]
            + [f"  {name + '.self_share':24s} {share:7.3f}" for name, share in rows]
        ))
    total = bench.progress()
    failed = bench.failed()
    notes.update({
        "sim.fingerprint": list(exact["fingerprint"]),
        "rtt_samples": exact["rtt_samples"],
        "simulated_s": bench.now,
        "verified": total.completed,
    })
    check(failed == 0, f"{failed} simulated transactions failed")
    check(bench.served >= total.completed,
           "more transactions completed than the servers answered")
    notes["warnings"] = [] if quick else cpu_share_warnings(notes)
    return RunResult(
        workload=workload.name, seed=seed, traced=traced, correct=True,
        attempted=total.completed + failed, failed=failed,
        metrics=declared_metrics(values, traced),
        notes=notes, tables=tables,
    )
