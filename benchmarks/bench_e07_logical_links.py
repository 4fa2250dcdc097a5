"""E7 — §2.2 logical links over a replicated trunk.

Paper claim: "a very high speed physical link, such as a 10 gigabit
line, might be statically divided into 10 1-gigabit channels with all
10 links being treated as one logical link.  A packet arriving for this
logical link would be routed to whichever of the channels was free" —
late binding that static source routes cannot match.

Setup (scaled to the simulator's sweet spot): 4 x 10 Mb/s channels
between two routers carrying a Poisson aggregate at 0.8 x the trunk's
total capacity.  Compare: (a) static assignment — each flow pinned to
one channel, the unlucky ones overloaded; (b) least-loaded logical-port
selection; (c) flow-hash selection (ordered per flow).
"""

from __future__ import annotations

from repro.core.host import SirpentHost
from repro.dataplane.logical import SelectionPolicy
from repro.core.router import SirpentRouter
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.viper.portinfo import LogicalInfo
from repro.viper.wire import HeaderSegment
from repro.workloads.arrivals import PoissonArrivals

from benchmarks._common import format_table, publish

N_CHANNELS = 4
CHANNEL_BPS = 10e6
PACKET = 1000
SIM_SECONDS = 1.5
#: Offered load as a fraction of total trunk capacity; flows are
#: *unequal* (heavy-tailed) so static pinning overloads some channels.
TOTAL_LOAD = 0.8
FLOW_WEIGHTS = [8, 4, 2, 1, 1, 1, 1, 1]
LOGICAL_PORT = 100


def run_policy(mode: str, seed: int = 7):
    sim = Simulator()
    topo = Topology(sim)
    rngs = RngStreams(seed)
    ra = topo.add_node(SirpentRouter(sim, "rA"))
    rb = topo.add_node(SirpentRouter(sim, "rB"))
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    _, src_port, _ = topo.connect(src, ra, rate_bps=100e6)
    member_ports, links = [], []
    for index in range(N_CHANNELS):
        link, pa, _ = topo.connect(ra, rb, rate_bps=CHANNEL_BPS,
                                   name=f"trunk{index}")
        member_ports.append(pa)
        links.append(link)
    _, rb_out, _ = topo.connect(rb, dst, rate_bps=100e6)
    dst.bind(0, lambda d: None)

    policy = (SelectionPolicy.FLOW_HASH if mode in ("static", "flow_hash")
              else SelectionPolicy.LEAST_LOADED)
    ra.logical.add_trunk(LOGICAL_PORT, member_ports, policy=policy)

    total_pps = TOTAL_LOAD * N_CHANNELS * CHANNEL_BPS / (PACKET * 8)
    weight_sum = sum(FLOW_WEIGHTS)
    for flow, weight in enumerate(FLOW_WEIGHTS):
        if mode == "static":
            hint = 0 if flow < 3 else flow  # heavy flows collide on ch 0
        else:
            hint = flow
        info = LogicalInfo(label=1, flow_hint=hint).to_bytes()
        route = Route("dst", [
            HeaderSegment(port=LOGICAL_PORT, portinfo=info),
            HeaderSegment(port=rb_out),
            HeaderSegment(port=0),
        ], src_port, None)
        PoissonArrivals(
            sim, total_pps * weight / weight_sum,
            emit=lambda size, r=route: src.send(r, bytes(size - 30)),
            rng=rngs.stream(f"flow{flow}"),
            fixed_size=PACKET, stop_at=SIM_SECONDS,
        )
    sim.run(until=SIM_SECONDS + 0.2)
    per_channel = [l.a_to_b.utilization.utilization(sim.now) for l in links]
    drops = sum(ra.output_ports[p].drops.count for p in member_ports)
    waits = [ra.output_ports[p].wait_time for p in member_ports]
    mean_wait = (
        sum(w.mean * w.count for w in waits) / max(1, sum(w.count for w in waits))
    )
    return {
        "mode": mode,
        "delivered": dst.received.count,
        "drops": drops,
        "mean_wait_ms": mean_wait * 1e3,
        "util_spread": max(per_channel) - min(per_channel),
        "per_channel": per_channel,
    }


def run_all():
    return [run_policy(mode) for mode in ("static", "flow_hash", "least_loaded")]


def bench_e07_logical_links(benchmark):
    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        f"E7  Replicated trunk ({N_CHANNELS} x {CHANNEL_BPS / 1e6:.0f} Mb/s) "
        f"at {TOTAL_LOAD:.0%} aggregate load, skewed flows",
        ["assignment", "delivered", "drops", "mean queue wait (ms)",
         "util spread", "per-channel util"],
        [
            (r["mode"], r["delivered"], r["drops"],
             r["mean_wait_ms"], r["util_spread"],
             "/".join(f"{u:.2f}" for u in r["per_channel"]))
            for r in rows
        ],
    )
    note = (
        "\nPaper: late binding at the router routes each packet 'to\n"
        "whichever of the channels was free', balancing load that static\n"
        "per-flow assignment cannot."
    )
    publish("e07_logical_links", table + note)

    by_mode = {r["mode"]: r for r in rows}
    static, balanced = by_mode["static"], by_mode["least_loaded"]
    # Late binding drains queues the static assignment builds.
    assert balanced["mean_wait_ms"] < static["mean_wait_ms"] * 0.5
    assert balanced["util_spread"] < static["util_spread"]
    assert balanced["drops"] <= static["drops"]
    assert balanced["delivered"] >= static["delivered"]
    # Flow-hash sits between: order-preserving, partially balanced.
    assert by_mode["flow_hash"]["mean_wait_ms"] <= static["mean_wait_ms"]
