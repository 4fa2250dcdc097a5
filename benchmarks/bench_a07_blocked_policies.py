"""A7 — §2.1's blocked-packet handling alternatives.

"Deferral may be accomplished by storing the packet, looping it back to
a previous node (as done in Blazenet) or entering it into a local delay
line to store the packet for some period of time."

Setup: the E1 contention point (4 senders, one output port) at 60% and
90% utilization under the three policies: electronic output QUEUE,
Blazenet-style DELAY_LINE (photonic loop, fixed latency per revolution,
bounded revolutions), and bufferless DROP.  Measured: delivery ratio
and delay distribution — the trade the paper attributes to each
technology.
"""

from __future__ import annotations

from repro.core.blocked import BlockedPolicy
from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.viper.wire import HeaderSegment
from repro.workloads.arrivals import PoissonArrivals

from benchmarks._common import format_table, publish, us

PACKET = 1000
RATE = 10e6
N_SENDERS = 4
SIM_SECONDS = 2.0


def run_point(policy: BlockedPolicy, utilization: float):
    sim = Simulator()
    topo = Topology(sim)
    rngs = RngStreams(61)
    config = RouterConfig(
        blocked_policy=policy,
        delay_line_s=PACKET * 8 / RATE / 2,  # half a packet per revolution
        max_delay_loops=8,
        congestion_enabled=False,
    )
    router = topo.add_node(SirpentRouter(sim, "r1", config=config))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    _, out_port, _ = topo.connect(router, dst, rate_bps=RATE)
    dst.bind(0, lambda d: None)
    sent = {"n": 0}
    per_sender = utilization * RATE / (PACKET * 8) / N_SENDERS
    for index in range(N_SENDERS):
        host = topo.add_node(SirpentHost(sim, f"s{index}"))
        _, host_port, _ = topo.connect(host, router, rate_bps=RATE)
        route = Route(
            "dst", [HeaderSegment(port=out_port), HeaderSegment(port=0)], host_port, None
        )

        def emit(size, h=host, r=route):
            sent["n"] += 1
            h.send(r, bytes(size - 8))

        PoissonArrivals(sim, per_sender, emit, rngs.stream(f"s{index}"),
                        fixed_size=PACKET, stop_at=SIM_SECONDS)
    sim.run(until=SIM_SECONDS + 0.2)
    return {
        "delivered": dst.received.count / max(1, sent["n"]),
        "p95_delay": dst.delivery_delay.quantile(0.95),
        "drops": router.output_ports[out_port].drops.count,
    }


def run_all():
    rows = []
    for utilization in (0.6, 0.9):
        for policy in BlockedPolicy:
            point = run_point(policy, utilization)
            point.update(policy=policy.value, rho=utilization)
            rows.append(point)
    return rows


def bench_a07_blocked_policies(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        "A7  Blocked-packet policies at a contended port (§2.1)",
        ["rho", "policy", "delivery ratio", "p95 delay (us)", "drops"],
        [
            (r["rho"], r["policy"], f"{r['delivered']:.3f}",
             us(r["p95_delay"]), r["drops"])
            for r in rows
        ],
    )
    note = (
        "\nElectronic queueing delivers everything at the cost of delay;\n"
        "the Blazenet delay line bounds storage (half-packet revolutions,\n"
        "8 max) trading loss under sustained contention; a bufferless\n"
        "fabric drops on any collision — the §2.1 technology menu."
    )
    publish("a07_blocked_policies", table + note)

    def pick(rho, policy):
        return next(r for r in rows if r["rho"] == rho
                    and r["policy"] == policy)

    for rho in (0.6, 0.9):
        queue = pick(rho, "queue")
        delay_line = pick(rho, "delay_line")
        drop = pick(rho, "drop")
        assert queue["delivered"] > 0.999
        assert queue["p95_delay"] >= delay_line["p95_delay"] * 0.5
        assert delay_line["delivered"] >= drop["delivered"]
        assert drop["drops"] > 0
    # Sustained contention is where the delay line starts losing.
    assert pick(0.9, "delay_line")["delivered"] < 1.0
    assert pick(0.6, "delay_line")["delivered"] > pick(0.9, "delay_line")["delivered"]
