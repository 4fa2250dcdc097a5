"""A2 — ablation: M/D/1 vs the real [4] packet-size mixture.

§6.1 uses M/D/1 (deterministic service).  Real traffic has the [4]
mixture's variability (cv² ≈ 1.1), which the Pollaczek–Khinchine M/G/1
formula predicts roughly doubles the queueing delay.  This ablation
drives the E1 setup with mixture-sized packets and checks that the
M/G/1 correction — not the paper's M/D/1 simplification — matches, so
the paper's "one packet or less" framing is mildly optimistic for
bursty size distributions.
"""

from __future__ import annotations

from repro.analysis.queueing import md1_mean_wait, mg1_mean_wait
from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.viper.wire import HeaderSegment
from repro.workloads.arrivals import PoissonArrivals
from repro.workloads.sizes import PacketSizeMixture

from benchmarks._common import assert_close, format_table, publish, us

RATE = 10e6
N_SENDERS = 4
SIM_SECONDS = 4.0
MIXTURE = PacketSizeMixture(min_size=64, max_size=1500)


def run_point(utilization: float):
    sim = Simulator()
    topo = Topology(sim)
    rngs = RngStreams(53)
    router = topo.add_node(SirpentRouter(
        sim, "r1", config=RouterConfig(congestion_enabled=False),
    ))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    _, out_port, _ = topo.connect(router, dst, rate_bps=RATE)
    dst.bind(0, lambda d: None)
    mean_size = MIXTURE.mean()
    per_sender_pps = utilization * RATE / (mean_size * 8) / N_SENDERS
    for index in range(N_SENDERS):
        host = topo.add_node(SirpentHost(sim, f"s{index}"))
        _, host_port, _ = topo.connect(host, router, rate_bps=RATE)
        route = Route(
            "dst", [HeaderSegment(port=out_port), HeaderSegment(port=0)], host_port, None
        )
        PoissonArrivals(
            sim, per_sender_pps,
            emit=lambda size, h=host, r=route: h.send(r, bytes(max(1, size - 8))),
            rng=rngs.stream(f"s{index}"),
            sizes=MIXTURE, stop_at=SIM_SECONDS,
        )
    sim.run(until=SIM_SECONDS)
    outport = router.output_ports[out_port]
    service = mean_size * 8 / RATE
    return {
        "measured": outport.wait_time.mean,
        "md1": md1_mean_wait(utilization, service),
        "mg1": mg1_mean_wait(utilization, service, MIXTURE.squared_cv()),
    }


def run_sweep():
    return {rho: run_point(rho) for rho in (0.3, 0.5, 0.7)}


def bench_a02_size_mixture_queueing(benchmark):
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = format_table(
        f"A2  Queueing with the [4] size mixture (cv^2="
        f"{MIXTURE.squared_cv():.2f}) vs the paper's M/D/1",
        ["rho", "wait measured (us)", "M/D/1 (us)", "M/G/1 mixture (us)"],
        [
            (rho, us(r["measured"]), us(r["md1"]), us(r["mg1"]))
            for rho, r in results.items()
        ],
    )
    note = (
        "\nThe paper's M/D/1 understates waits for realistic size mixes\n"
        "by ~2x; P-K with the mixture's cv^2 restores the fit.  The §6.1\n"
        "qualitative story (sub-packet waits at moderate load) survives."
    )
    publish("a02_size_mixture_queueing", table + note)

    for rho, r in results.items():
        # M/G/1 fits...
        assert_close(r["measured"], r["mg1"], rel=0.35,
                     what=f"M/G/1 at rho={rho}")
    # ...and M/D/1 systematically undershoots at higher load.
    assert results[0.7]["measured"] > results[0.7]["md1"] * 1.3
