"""L01 — the live overlay on real loopback sockets.

The simulator's numbers are model numbers; this experiment runs the
same Sirpent machinery as *processes on a real network stack*: a
client, a server and four routers, each on its own loopback UDP socket
(:mod:`repro.live`), routes fetched from the directory, every
transaction crossing three cut-through routers as byte-exact VIPER
frames.  Midway through the run the mid-path router on the active
route is killed outright — its socket closes — and the client must
*survive*: the transaction's own timeout surfaces the death (the
neighbours' probe ladders mark the dead port), the transaction
layer reports the failure, and the route manager rebinds to the
disjoint alternate route (§3's directory-supplied alternates put to
work against a real failure, not a simulated one).

Measured: end-to-end transactions completed, throughput, p50/p99 RTT,
and the retry/rebind accounting around the kill.

Two throughput phases:

* **sequential** — one transaction at a time: a latency measurement
  (every transaction pays the full six-hop round trip before the next
  starts), and the phase the kill/rebind assertions live in;
* **pipelined** — a window of concurrent transactions keeps every
  router busy: this is where the PR 8 zero-allocation fastpath
  (ring-slot receive batches, in-place hop moves, memoized return
  tails) shows up as datagrams/sec/core, since the overlay runs on a
  single asyncio loop = one core.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

# `python -m benchmarks.bench_l01_live_loopback` must work from a bare
# checkout: put the repo root and src/ on the path before repro imports.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _entry in (_ROOT, os.path.join(_ROOT, "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import LiveOverlay, LiveTransactor, WallClock
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.transport.rebind import RouteManager

from benchmarks._common import format_table, ms, publish

#: Transactions attempted (acceptance floor is 1,000 completed).
TRANSACTIONS = 1200

#: Transaction index at which the active mid-path router is killed.
KILL_AT = 400

#: Pipelined phase: transactions in flight at once, and how many total.
PIPELINE_WINDOW = 32
PIPELINED = 4000

REQUEST = 256
REPLY = 128


def _build_topology() -> Topology:
    """client — r1 — {r2 | r4} — r3 — server: two disjoint mid paths."""
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    r2 = SirpentRouter(sim, "r2")
    r3 = SirpentRouter(sim, "r3")
    r4 = SirpentRouter(sim, "r4")
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.connect(r1, r4)
    topo.connect(r2, r3)
    topo.connect(r4, r3)
    topo.connect(r3, server)
    return topo


def _endpoints(overlay: LiveOverlay):
    return [
        node.endpoint
        for node in (*overlay.routers.values(), *overlay.hosts.values())
    ]


def _datagrams_out(overlay: LiveOverlay) -> int:
    """Every frame any endpoint put on the wire (data frames, not acks)."""
    return sum(node.metrics.frames_out for node in
               (*overlay.routers.values(), *overlay.hosts.values()))


def _rx_batching(overlay: LiveOverlay):
    endpoints = _endpoints(overlay)
    return (
        sum(e.rx_datagrams for e in endpoints),
        sum(e.rx_batches for e in endpoints),
    )


def _mid_router_of(overlay: LiveOverlay, route) -> str:
    """Which of r2/r4 the route's first (r1) segment forwards into."""
    for edge in overlay.topology.all_edges():
        if edge.src == "r1" and edge.port_id == route.segments[0].port:
            return edge.dst
    raise AssertionError("route does not traverse r1")


async def _run_overlay() -> dict:
    overlay = LiveOverlay(_build_topology())
    await overlay.start()
    try:
        client_tx = LiveTransactor(overlay.hosts["client"])
        server_tx = LiveTransactor(overlay.hosts["server"])
        server_tx.serve(lambda payload: b"r" * REPLY)
        routes = overlay.routes(
            "client", "server", k=2,
            dest_socket=client_tx.config.socket, with_tokens=True,
        )
        assert len(routes) == 2, "expected two disjoint routes"
        manager = RouteManager(WallClock(), routes)

        request = b"q" * REQUEST
        rtts = []
        failures = 0
        retries_total = 0
        killed = ""
        kill_recovery_rtt = 0.0
        started = time.monotonic()
        for index in range(TRANSACTIONS):
            if index == KILL_AT:
                killed = _mid_router_of(overlay, manager.current())
                overlay.kill(killed)
            result = await client_tx.transact(manager, request)
            if result.ok:
                rtts.append(result.rtt)
                if index == KILL_AT:
                    kill_recovery_rtt = result.rtt
            else:
                failures += 1
            retries_total += result.retries
        elapsed = time.monotonic() - started

        assert killed, "kill point never reached"
        alive_mid = "r4" if killed == "r2" else "r2"
        assert _mid_router_of(overlay, manager.current()) == alive_mid, (
            "client did not rebind off the killed router"
        )

        # Phase 2 — pipelined: a window of concurrent transactions keeps
        # the surviving route's routers busy, so per-hop cost (not RTT)
        # bounds throughput.  The phase gets its own manager pinned to
        # the surviving route: queueing inside the window inflates RTTs
        # past the degradation threshold, and this phase measures the
        # forwarding fastpath, not rebind policy (phase 1 covered that).
        pinned = RouteManager(WallClock(), [manager.current()])
        frames_before = _datagrams_out(overlay)
        rx_dgrams_before, rx_batches_before = _rx_batching(overlay)
        window = asyncio.Semaphore(PIPELINE_WINDOW)
        p_rtts = []
        p_failures = 0

        async def one_transaction() -> None:
            nonlocal p_failures
            async with window:
                result = await client_tx.transact(pinned, request)
            if result.ok:
                p_rtts.append(result.rtt)
            else:
                p_failures += 1

        p_started = time.monotonic()
        await asyncio.gather(
            *(one_transaction() for _ in range(PIPELINED))
        )
        p_elapsed = time.monotonic() - p_started
        rx_dgrams_after, rx_batches_after = _rx_batching(overlay)
        return {
            "rtts": rtts,
            "failures": failures,
            "retries": retries_total,
            "elapsed": elapsed,
            "killed": killed,
            "kill_recovery_rtt": kill_recovery_rtt,
            "switches": manager.switches.count,
            "pipelined_rtts": p_rtts,
            "pipelined_failures": p_failures,
            "pipelined_elapsed": p_elapsed,
            "pipelined_frames": _datagrams_out(overlay) - frames_before,
            "pipelined_rx_datagrams": rx_dgrams_after - rx_dgrams_before,
            "pipelined_rx_batches": rx_batches_after - rx_batches_before,
            "metrics_table": overlay.render_metrics(),
        }
    finally:
        overlay.stop()


def _quantile(samples, q: float) -> float:
    ordered = sorted(samples)
    index = min(len(ordered) - 1, int(round(q * (len(ordered) - 1))))
    return ordered[index]


def bench_l01_live_loopback(benchmark):
    results = benchmark.pedantic(
        lambda: asyncio.run(_run_overlay()), rounds=1, iterations=1
    )
    rtts = results["rtts"]
    completed = len(rtts)
    throughput = completed / results["elapsed"]
    p50 = _quantile(rtts, 0.50)
    p99 = _quantile(rtts, 0.99)
    p_completed = len(results["pipelined_rtts"])
    p_throughput = p_completed / results["pipelined_elapsed"]
    datagrams_per_s = results["pipelined_frames"] / results["pipelined_elapsed"]
    rx_batch_avg = results["pipelined_rx_datagrams"] / max(
        1, results["pipelined_rx_batches"]
    )
    p_p50 = _quantile(results["pipelined_rtts"], 0.50)
    table = format_table(
        f"L01  Live loopback overlay ({REQUEST}B/{REPLY}B, 3 routers per "
        f"path, {results['killed']} killed mid-run)",
        ["measure", "value", "notes"],
        [
            ("transactions completed", completed,
             f"of {TRANSACTIONS} attempted, {results['failures']} failed"),
            ("throughput (tx/s)", round(throughput, 1),
             "sequential transactions over real UDP"),
            ("RTT p50 (ms)", round(ms(p50), 3), "3 live router hops each way"),
            ("RTT p99 (ms)", round(ms(p99), 3),
             "tail includes the kill-recovery transaction"),
            ("route switches", results["switches"],
             f"rebind away from {results['killed']} "
             f"(recovery took {ms(results['kill_recovery_rtt']):.1f}ms)"),
            ("transaction retries", results["retries"],
             "timeouts during the dead-router window"),
            ("pipelined throughput (tx/s)", round(p_throughput, 1),
             f"{p_completed} tx, window of {PIPELINE_WINDOW} in flight"),
            ("pipelined datagrams/s/core", round(datagrams_per_s, 1),
             "data frames on the wire across all 6 nodes, one asyncio "
             "loop = one core"),
            ("pipelined RTT p50 (ms)", round(ms(p_p50), 3),
             "includes queueing inside the window"),
            ("rx batch fill (datagrams/wakeup)", round(rx_batch_avg, 2),
             "ring-slot recvmsg_into drain per reader wakeup"),
        ],
    )
    note = (
        "\nPer-endpoint counters:\n" + results["metrics_table"] +
        "\nThe same switching/token/trailer code as the simulator, on "
        "real sockets;\na killed router becomes ack silence, and the "
        "directory's alternate route\nabsorbs the failure inside one "
        "transaction.  Sequential tx/s is a latency\nnumber (each "
        "transaction waits out its own six-hop round trip); the\n"
        "pipelined phase is the throughput number the zero-allocation "
        "fastpath\nis accountable for."
    )
    publish("l01_live_loopback", table + note, data={
        "title": "L01 live loopback overlay",
        "metrics": {
            "sequential_tx_s": round(throughput, 1),
            "pipelined_tx_s": round(p_throughput, 1),
            "datagrams_per_s_core": round(datagrams_per_s, 1),
            "rx_batch_fill": round(rx_batch_avg, 2),
            "rtt_p50_ms": round(ms(p50), 3),
            "rtt_p99_ms": round(ms(p99), 3),
        },
        "higher_is_better": [
            "sequential_tx_s", "pipelined_tx_s",
            "datagrams_per_s_core", "rx_batch_fill",
        ],
        "lower_is_better": ["rtt_p50_ms", "rtt_p99_ms"],
    })

    # Acceptance: at least 1,000 transactions complete over real UDP.
    assert completed >= 1000, f"only {completed} transactions completed"
    # The kill was survived: every transaction still completed...
    assert results["failures"] == 0, f"{results['failures']} transactions lost"
    # ...because the client rebound to the alternate route.
    assert results["switches"] >= 1, "no rebind happened"
    # Loopback RTT through three live routers stays in the ms regime.
    assert p50 < 0.05, f"p50 {p50:.4f}s is implausibly slow for loopback"
    assert p99 < 1.0, f"p99 {p99:.4f}s: recovery should be sub-second"
    # Pipelining over the fastpath must beat sequential decisively: the
    # window hides RTT, so throughput is bounded by per-hop CPU cost,
    # not the six-hop round trip.  (The absolute number is tracked by
    # tools/perfgate.py against benchmarks/baselines/.)
    assert results["pipelined_failures"] == 0, (
        f"{results['pipelined_failures']} pipelined transactions lost"
    )
    assert p_throughput >= 1.5 * throughput, (
        f"pipelined {p_throughput:.0f} tx/s is under 1.5x sequential "
        f"{throughput:.0f} tx/s — the window is not hiding latency"
    )
    # The receive path must actually batch: ring-slot drains amortize
    # one wakeup over many datagrams once the window applies pressure.
    assert rx_batch_avg >= 4.0, (
        f"rx batch fill {rx_batch_avg:.2f} datagrams/wakeup — the "
        "recvmsg_into drain loop is not amortizing wakeups"
    )


if __name__ == "__main__":
    from benchmarks.run_all import _InlineBenchmark

    bench_l01_live_loopback(_InlineBenchmark())
