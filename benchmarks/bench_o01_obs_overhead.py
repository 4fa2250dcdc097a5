"""O01 — observability must cost (almost) nothing when it is off.

The tracing hooks of :mod:`repro.obs` sit on the hottest paths in the
codebase — the sim router's forwarding loop and the live overlay's
frame handlers — guarded by ``if packet.trace_id and tracer is not
None`` against a ``None`` default.  This
experiment prices that design on the two benchmarks whose numbers the
rest of the suite leans on:

* **E01's workload** (Poisson senders through one cut-through port at
  rho=0.5) re-run with tracing off / 1-in-100 sampled / every packet;
* **L01-style live transactions** (client — r1 — r2 — server over real
  loopback UDP) under the same three configurations.

"Off" is the shipped default and therefore the baseline; its residual
cost relative to un-instrumented code is the guard expression itself,
which is micro-timed and expressed as a share of the measured
per-packet (per-transaction) budget — the <5% acceptance bar.  The
1-in-100 and 1-in-1 columns document what turning tracing on buys you
into.  The live overlay runs its flight recorder *on*, so the live leg
also counts the ring events a transaction records: a clean transaction
should take no slot of the ring, which is kept for faults.
"""

from __future__ import annotations

import asyncio
import os
import sys
import time

# `python -m benchmarks.bench_o01_obs_overhead` must work from a bare
# checkout: put the repo root and src/ on the path before repro imports.
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
for _entry in (_ROOT, os.path.join(_ROOT, "src")):
    if _entry not in sys.path:
        sys.path.insert(0, _entry)

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import LiveOverlay, LiveTransactor, WallClock
from repro.net.topology import Topology
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator
from repro.transport.rebind import RouteManager

from benchmarks._common import format_table, publish

from benchmarks.bench_e01_switching_delay import run_point

#: Wall-clock repetitions per configuration; best-of-N tames scheduler
#: noise without needing long runs.
REPEATS = 3

#: Sequential live transactions per timed run.
LIVE_TRANSACTIONS = 200

#: Guard evaluations a packet meets per hop is single-digit; price a
#: generous 10 per delivered packet when computing the disabled share.
GUARDS_PER_PACKET = 10


def _best_of(fn, repeats: int = REPEATS):
    """Return (best_elapsed_seconds, last_result)."""
    best = float("inf")
    result = None
    for _ in range(repeats):
        started = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - started)
    return best, result


#: Interleaved (guarded, empty) passes a guard is priced over: a single
#: pass of each read 40-50 % above the committed price on a loaded box
#: with nothing changed, and noise only ever adds time.
GUARD_PASSES = 7


def _empty_loop(iterations: int) -> float:
    """Seconds for ``iterations`` turns of an empty loop."""
    started = time.perf_counter()
    for _ in range(iterations):
        pass
    return time.perf_counter() - started


def _priced_ns(guarded, iterations: int) -> float:
    """Nanoseconds one turn of ``guarded(iterations)``'s loop costs over
    an empty loop's: each side the best of :data:`GUARD_PASSES` passes,
    the two interleaved so the box's drift falls on both alike."""
    best_guarded = best_empty = float("inf")
    for _ in range(GUARD_PASSES):
        best_guarded = min(best_guarded, guarded(iterations))
        best_empty = min(best_empty, _empty_loop(iterations))
    return max(0.0, (best_guarded - best_empty) / iterations * 1e9)


def _guard_cost_ns(iterations: int = 1_000_000) -> float:
    """Micro-time the disabled-tracing guard, net of loop overhead.

    This is the *entire* per-call cost tracing adds when off: one
    short-circuiting ``trace_id and tracer is not None`` check against
    no tracer.
    """
    class _Holder:
        """Stands in for a node (``self.tracer``) and packet pair."""

        def __init__(self):
            self.tracer = None
            self.trace_id = 0

    holder = _Holder()

    def guarded(iterations, node=holder, packet=holder):
        sink = 0
        started = time.perf_counter()
        for _ in range(iterations):
            if packet.trace_id and node.tracer is not None:
                sink += 1
        return time.perf_counter() - started

    return _priced_ns(guarded, iterations)


def _recorder_guard_cost_ns(iterations: int = 1_000_000) -> float:
    """Micro-time the disabled flight-recorder guard.

    Every recorder hook in the routers, hosts, directory server and
    cluster replicas is one ``if self.recorder is not None:`` check
    against no recorder; this is its unit price.
    """
    class _Holder:
        def __init__(self):
            self.recorder = None

    holder = _Holder()

    def guarded(iterations, node=holder):
        sink = 0
        started = time.perf_counter()
        for _ in range(iterations):
            if node.recorder is not None:
                sink += 1
        return time.perf_counter() - started

    return _priced_ns(guarded, iterations)


def _trace_ctx_guard_cost_ns(iterations: int = 1_000_000) -> float:
    """Micro-time the untraced v2 command-path guard.

    Cross-layer propagation gates on ``if tid and self.tracer is not
    None`` where ``tid`` comes from the (absent) request trace context —
    the cost a plain, untraced directory command pays for the feature.
    """
    class _Holder:
        def __init__(self):
            self.tracer = None

    holder = _Holder()

    def guarded(iterations, node=holder):
        tid = 0  # untraced request: no trace context on the wire
        sink = 0
        started = time.perf_counter()
        for _ in range(iterations):
            if tid and node.tracer is not None:
                sink += 1
        return time.perf_counter() - started

    return _priced_ns(guarded, iterations)


# -- sim leg (E01's workload) -------------------------------------------------


def _sim_leg():
    """Best-of-N wall times for E01's rho=0.5 point, three tracer modes
    (the tracer, when on, stamps simulated time)."""
    configs = [("off", 0), ("sampled 1/100", 100), ("full 1/1", 1)]
    out = {}
    for label, every in configs:
        elapsed, point = _best_of(
            lambda every=every: run_point(0.5, trace_every=every)
        )
        out[label] = {"elapsed": elapsed, "delivered": point["delivered"]}
    return out


# -- live leg (L01-style transactions) ---------------------------------------


def _line_topology() -> Topology:
    """client — r1 — r2 — server, point-to-point."""
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    r2 = SirpentRouter(sim, "r2")
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.connect(r2, server)
    return topo


async def _run_live(tracer) -> tuple:
    """Elapsed seconds for LIVE_TRANSACTIONS sequential transactions,
    and the flight-recorder events recorded per transaction."""
    overlay = LiveOverlay(_line_topology(), tracer=tracer)
    await overlay.start()
    try:
        client_tx = LiveTransactor(overlay.hosts["client"])
        server_tx = LiveTransactor(overlay.hosts["server"])
        server_tx.serve(lambda payload: b"r" * 128)
        routes = overlay.routes(
            "client", "server", dest_socket=client_tx.config.socket,
        )
        manager = RouteManager(WallClock(), routes)
        request = b"q" * 256
        recorded = overlay.recorder.recorded
        started = time.perf_counter()
        for _ in range(LIVE_TRANSACTIONS):
            result = await client_tx.transact(manager, request)
            assert result.ok, "transaction failed during overhead run"
        elapsed = time.perf_counter() - started
        ring_events = overlay.recorder.recorded - recorded
        return elapsed, ring_events / LIVE_TRANSACTIONS
    finally:
        overlay.stop()


def _live_leg():
    """Best-of-N wall times for the live transaction loop, three modes.

    A run's time is :func:`_run_live`'s own, of its transactions alone:
    the overlay's boot and teardown around them are not the loop's.
    """
    configs = [
        ("off", lambda: None),
        ("sampled 1/100", lambda: Tracer(sample_every=100)),
        ("full 1/1", lambda: Tracer(sample_every=1)),
    ]
    out = {}
    for label, make in configs:
        runs = [asyncio.run(_run_live(make())) for _ in range(REPEATS)]
        elapsed = min(run_elapsed for run_elapsed, _ in runs)
        ring_events = runs[-1][1]
        out[label] = {
            "elapsed": elapsed, "transactions": LIVE_TRANSACTIONS,
            "ring_events_per_tx": ring_events,
        }
    return out


def _overhead(config: dict, baseline: dict) -> float:
    """Percent slowdown of ``config`` relative to ``baseline``."""
    return (config["elapsed"] / baseline["elapsed"] - 1.0) * 100.0


def bench_o01_obs_overhead(benchmark):
    guard_ns = benchmark.pedantic(_guard_cost_ns, rounds=1, iterations=1)
    recorder_ns = _recorder_guard_cost_ns()
    trace_ctx_ns = _trace_ctx_guard_cost_ns()
    sim = _sim_leg()
    live = _live_leg()

    sim_base = sim["off"]
    per_packet_ns = sim_base["elapsed"] / sim_base["delivered"] * 1e9
    sim_disabled_share = GUARDS_PER_PACKET * guard_ns / per_packet_ns * 100
    # The full observability surface a packet meets with everything off:
    # tracing guards + flight-recorder guards + the v2 trace-context
    # propagation guard, each priced at GUARDS_PER_PACKET evaluations.
    obs_total_ns = GUARDS_PER_PACKET * (guard_ns + recorder_ns + trace_ctx_ns)
    obs_share = obs_total_ns / per_packet_ns * 100

    live_base = live["off"]
    per_tx_ns = live_base["elapsed"] / live_base["transactions"] * 1e9
    # A transaction crosses two routers out and back plus both hosts:
    # budget several packets' worth of guards.
    live_disabled_share = 6 * GUARDS_PER_PACKET * guard_ns / per_tx_ns * 100

    rows = [
        ("e01 sim", "off (baseline)", round(sim_base["elapsed"], 3),
         f"{sim_disabled_share:.3f}% guard share of "
         f"{per_packet_ns / 1e3:.0f}us/pkt"),
        ("e01 sim", "sampled 1/100",
         round(sim["sampled 1/100"]["elapsed"], 3),
         f"{_overhead(sim['sampled 1/100'], sim_base):+.1f}% vs off"),
        ("e01 sim", "full 1/1", round(sim["full 1/1"]["elapsed"], 3),
         f"{_overhead(sim['full 1/1'], sim_base):+.1f}% vs off"),
        ("l01 live", "off (baseline)", round(live_base["elapsed"], 3),
         f"{live_disabled_share:.3f}% guard share of "
         f"{per_tx_ns / 1e6:.2f}ms/tx"),
        ("l01 live", "sampled 1/100",
         round(live["sampled 1/100"]["elapsed"], 3),
         f"{_overhead(live['sampled 1/100'], live_base):+.1f}% vs off"),
        ("l01 live", "full 1/1", round(live["full 1/1"]["elapsed"], 3),
         f"{_overhead(live['full 1/1'], live_base):+.1f}% vs off"),
        ("l01 live", "recorder on (as shipped)",
         f"{live_base['ring_events_per_tx']:.2f} events/tx",
         "flight-recorder ring slots a transaction takes"),
        ("guards", "tracer / recorder / trace-ctx",
         f"{guard_ns:.0f} / {recorder_ns:.0f} / {trace_ctx_ns:.0f} ns",
         f"{obs_share:.3f}% of {per_packet_ns / 1e3:.0f}us/pkt"),
    ]
    table = format_table(
        "O01  Observability overhead (tracing off / sampled / full)",
        ["workload", "tracing", "best wall (s)", "overhead"],
        rows,
    )
    note = (
        f"\nDisabled tracing is the shipped default: every hook is one "
        f"guard ({guard_ns:.0f}ns\nmeasured) against an absent tracer, "
        f"i.e. {sim_disabled_share:.3f}% of the sim's per-packet "
        f"budget\nand {live_disabled_share:.4f}% of a live "
        f"transaction — far under the 5% acceptance bar.\n"
        f"The whole disabled observability surface (tracer + flight "
        f"recorder +\nv2 trace-context guards) totals "
        f"{obs_share:.3f}% of the per-packet budget, against\n"
        f"the 1% CI gate.  1-in-100 sampling is the recommended "
        f"always-on setting;\nfull tracing is for debugging single "
        f"flows."
    )
    publish(
        "o01_obs_overhead", table + note,
        data={
            "guard_ns": {
                "tracer": round(guard_ns, 2),
                "recorder": round(recorder_ns, 2),
                "trace_ctx": round(trace_ctx_ns, 2),
            },
            "per_packet_ns": round(per_packet_ns, 1),
            "per_transaction_ns": round(per_tx_ns, 1),
            "sim_disabled_share_pct": round(sim_disabled_share, 4),
            "live_disabled_share_pct": round(live_disabled_share, 4),
            "live_ring_events_per_tx": round(
                live_base["ring_events_per_tx"], 3),
            "obs_total_share_pct": round(obs_share, 4),
            "sampled_sim_overhead_pct": round(
                _overhead(sim["sampled 1/100"], sim_base), 2),
            "sampled_live_overhead_pct": round(
                _overhead(live["sampled 1/100"], live_base), 2),
        },
    )

    # Acceptance: tracing off costs <5% of the per-packet budget on both
    # the e01 sim workload and l01-style live transactions.
    assert sim_disabled_share < 5.0, (
        f"disabled-tracing guard share {sim_disabled_share:.2f}% on e01"
    )
    assert live_disabled_share < 5.0, (
        f"disabled-tracing guard share {live_disabled_share:.2f}% on l01"
    )
    # CI perf gate: the combined disabled observability surface —
    # tracing, flight recorder, and trace-context propagation guards —
    # must stay under 1% of the per-packet budget.
    assert obs_share < 1.0, (
        f"observability guard share {obs_share:.3f}% exceeds the 1% "
        f"per-packet gate (tracer {guard_ns:.0f}ns, recorder "
        f"{recorder_ns:.0f}ns, trace-ctx {trace_ctx_ns:.0f}ns)"
    )
    # Pathology net (loose: wall-clock noise, not a precision claim) —
    # 1-in-100 sampling must not meaningfully bend either workload.
    assert _overhead(sim["sampled 1/100"], sim_base) < 50.0
    assert _overhead(live["sampled 1/100"], live_base) < 50.0


if __name__ == "__main__":
    from benchmarks.run_all import _InlineBenchmark

    bench_o01_obs_overhead(_InlineBenchmark())
