"""E5 — §2.2/§6.3 rate-based congestion control.

Paper claims:

* "the rate-limiting information builds up back from the point of
  congestion to the sources, dynamically generating soft state on
  flows";
* "any non-empty output queue indicates a (possibly temporary) mismatch
  … The rate control mechanism prevents there being a sustained
  mismatch";
* the feedback loop "necessarily oscillates. The degree of oscillation
  … depends on the amount of output buffer space, the propagation delay
  to the feeding routers and the variation in traffic".

Setup: a 3-pair dumbbell (senders behind access routers) offering 1.6x
the bottleneck's capacity.  Sweep control on/off, buffer size, and
feedback propagation delay; report the congested queue's mean/max, the
drops it took, its utilization, and the signal traffic.
"""

from __future__ import annotations

from repro.core.router import RouterConfig
from repro.scenarios import build_sirpent_dumbbell
from repro.sim.rng import RngStreams
from repro.workloads.arrivals import PoissonArrivals

from benchmarks._common import format_table, publish

PACKET = 1000
N_PAIRS = 3
OVERLOAD = 1.6
SIM_SECONDS = 1.5


def run_point(congestion: bool, buffer_bytes: int, feedback_prop: float):
    config = RouterConfig(
        congestion_enabled=congestion, buffer_bytes=buffer_bytes,
    )
    scenario = build_sirpent_dumbbell(
        n_pairs=N_PAIRS, edge_rate_bps=10e6, bottleneck_rate_bps=10e6,
        router_config=config, access_routers=True,
        propagation_delay=feedback_prop,
    )
    rngs = RngStreams(31)
    per_sender_pps = OVERLOAD * 10e6 / (PACKET * 8 * N_PAIRS)
    for index in range(N_PAIRS):
        sender = scenario.hosts[f"sender{index + 1}"]
        route = scenario.routes(
            f"sender{index + 1}", f"receiver{index + 1}"
        )[0]
        PoissonArrivals(
            scenario.sim, per_sender_pps,
            emit=lambda size, s=sender, r=route: s.send(r, bytes(size - 50)),
            rng=rngs.stream(f"sender{index}"),
            fixed_size=PACKET, stop_at=SIM_SECONDS,
        )
    scenario.sim.run(until=SIM_SECONDS + 0.1)
    left = scenario.routers["rL"]
    port_id = next(
        pid for pid, att in left.ports.items()
        if att.peer_name_for(None) == "rR"
    )
    outport = left.output_ports[port_id]
    delivered = sum(
        scenario.hosts[f"receiver{i + 1}"].received.count
        for i in range(N_PAIRS)
    )
    held = sum(
        scenario.routers[f"a{i + 1}"].congestion.total_held()
        for i in range(N_PAIRS)
    ) if congestion else 0
    return {
        "queue_mean": outport.queue_length.mean(scenario.sim.now),
        "queue_max": outport.queue_length.maximum,
        "drops": outport.drops.count,
        "utilization": scenario.topology.links["bottleneck"].a_to_b
        .utilization.utilization(scenario.sim.now),
        "signals": left.congestion.signals_sent.count if congestion else 0,
        "delivered": delivered,
        "held_upstream": held,
    }


def run_sweep():
    rows = []
    for congestion in (False, True):
        for buffer_kb in (16, 64):
            for prop_us in (10, 500):
                point = run_point(congestion, buffer_kb * 1024, prop_us * 1e-6)
                point.update(cc=congestion, buffer_kb=buffer_kb,
                             prop_us=prop_us)
                rows.append(point)
    return rows


def bench_e05_congestion_backpressure(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = format_table(
        "E5  Backpressure at a 1.6x-overloaded bottleneck "
        f"({N_PAIRS} senders, {SIM_SECONDS:.1f}s)",
        ["rate ctrl", "buffer KB", "fb prop us", "queue mean", "queue max",
         "drops", "bottleneck util", "signals", "delivered"],
        [
            ("on" if r["cc"] else "off", r["buffer_kb"], r["prop_us"],
             r["queue_mean"], r["queue_max"], r["drops"],
             r["utilization"], r["signals"], r["delivered"])
            for r in rows
        ],
    )
    note = (
        "\nPaper: backpressure converts queue growth + loss at the\n"
        "congestion point into upstream soft state; oscillation (queue\n"
        "max) grows with the feedback propagation delay; the link it\n"
        "protects stays busy."
    )
    publish("e05_congestion_backpressure", table + note)

    def pick(cc, buffer_kb, prop_us):
        return next(r for r in rows if r["cc"] is cc
                    and r["buffer_kb"] == buffer_kb
                    and r["prop_us"] == prop_us)

    for buffer_kb in (16, 64):
        off = pick(False, buffer_kb, 10)
        on = pick(True, buffer_kb, 10)
        # Control keeps the congested queue near-empty on average (the
        # uncontrolled queue saturates its buffer) and removes most of
        # the loss.
        assert on["queue_mean"] < off["queue_mean"] * 0.25
        assert on["drops"] < off["drops"] * 0.25 + 1
        # Without starving the bottleneck.
        assert on["utilization"] > 0.6
        # And the backlog genuinely moved upstream at some point.
        assert on["signals"] > 0
    # With ample buffer, control also bounds the worst-case excursion.
    assert pick(True, 64, 10)["queue_max"] < pick(False, 64, 10)["queue_max"]
    # Longer feedback delay = sloppier control (bigger queue excursions).
    assert pick(True, 64, 500)["queue_max"] >= pick(True, 64, 10)["queue_max"]
