"""E1 — §6.1 switching delay and M/D/1 queueing.

Paper claims:

* cut-through reduces router delay to "the switch decision and setup
  time … significantly less than a microsecond" plus queueing;
* "with reasonable load (up to about 70 percent utilization), M/D/1
  modeling of the queue suggests an average queue length of
  approximately one packet or less, including the packet currently
  being transmitted";
* "the average blocking delay is then approximately the transmission
  time for half of an average packet" (exact at rho = 0.5).

Setup: four Poisson senders share one output port of a Sirpent router
(superposed arrivals ≈ Poisson, deterministic 1000-byte packets).  We
sweep the port's utilization and compare the measured waiting time and
queue occupancy against the M/D/1 formulas.
"""

from __future__ import annotations

from repro.analysis.queueing import md1_mean_queue, md1_mean_wait
from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter, RouterConfig
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.viper.wire import HeaderSegment
from repro.workloads.arrivals import PoissonArrivals

from benchmarks._common import format_table, publish, us

PACKET_BYTES = 1000
RATE_BPS = 10e6
N_SENDERS = 4
SIM_SECONDS = 3.0


def run_point(utilization: float, seed: int = 1, trace_every: int = 0):
    """One utilization point; with ``trace_every`` a :class:`Tracer` on
    the simulated clock, sampling one packet in ``trace_every``, is
    installed on every node — the observability overhead benchmark
    (``bench_o01``) re-runs this exact workload with tracing on."""
    sim = Simulator()
    topo = Topology(sim)
    rngs = RngStreams(seed)
    router = topo.add_node(SirpentRouter(
        sim, "r1", config=RouterConfig(decision_delay=0.5e-6),
    ))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    _, out_port, _ = topo.connect(router, dst, rate_bps=RATE_BPS)
    senders = []
    for index in range(N_SENDERS):
        host = topo.add_node(SirpentHost(sim, f"s{index}"))
        _, host_port, _ = topo.connect(host, router, rate_bps=RATE_BPS)
        senders.append((host, host_port))
    dst.bind(0, lambda d: None)

    # The senders' own links each run at utilization/N: no inbound queueing.
    wire_size = PACKET_BYTES
    per_sender_pps = utilization * RATE_BPS / (wire_size * 8) / N_SENDERS
    for index, (host, host_port) in enumerate(senders):
        route = Route(
            "dst", [HeaderSegment(port=out_port), HeaderSegment(port=0)], host_port, None
        )
        overhead = 4 * 2  # two minimal segments
        PoissonArrivals(
            sim, per_sender_pps,
            emit=lambda size, h=host, r=route: h.send(r, bytes(size - overhead)),
            rng=rngs.stream(f"sender{index}"),
            fixed_size=wire_size, stop_at=SIM_SECONDS,
        )
    if trace_every:
        Tracer(sample_every=trace_every, clock=lambda: sim.now).install(
            router, dst, *[host for host, _ in senders]
        )
    sim.run(until=SIM_SECONDS)
    outport = router.output_ports[out_port]
    service_time = wire_size * 8 / RATE_BPS
    return {
        "measured_wait": outport.wait_time.mean,
        "measured_queue": outport.queue_length.mean(sim.now)
        + topo.links["r1--dst"].a_to_b.utilization.utilization(sim.now),
        "decision_delay": router.stats.router_delay.mean,
        "service_time": service_time,
        "delivered": dst.received.count,
    }


def run_sweep():
    rows = []
    for utilization in (0.1, 0.3, 0.5, 0.7, 0.9):
        point = run_point(utilization)
        service = point["service_time"]
        rows.append({
            "rho": utilization,
            "wait_meas": point["measured_wait"],
            "wait_md1": md1_mean_wait(utilization, service),
            "queue_meas": point["measured_queue"],
            "queue_md1": md1_mean_queue(utilization),
            "decision_us": us(point["decision_delay"]),
            "service": service,
        })
    return rows


def bench_e01_switching_delay(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = format_table(
        "E1  Switching delay vs utilization (Sirpent cut-through port, M/D/1)",
        ["rho", "wait measured (us)", "wait M/D/1 (us)",
         "L measured (pkts)", "L M/D/1 (pkts)", "decision (us)"],
        [
            (r["rho"], us(r["wait_meas"]), us(r["wait_md1"]),
             r["queue_meas"], r["queue_md1"], r["decision_us"])
            for r in rows
        ],
    )
    note = (
        "\nPaper: decision+setup < 1 us; ~1 packet in system at <=70% load;\n"
        "blocking delay ~ half a packet's transmission time at rho=0.5."
    )
    publish("e01_switching_delay", table + note)

    from benchmarks._common import assert_close

    by_rho = {r["rho"]: r for r in rows}
    # Decision delay is sub-microsecond, always.
    assert all(r["decision_us"] < 1.0 for r in rows)
    # M/D/1 match where queueing is non-trivial.
    for rho in (0.5, 0.7):
        r = by_rho[rho]
        assert_close(r["wait_meas"], r["wait_md1"], rel=0.35,
                     what=f"M/D/1 wait at rho={rho}")
    # Half-a-packet blocking delay at rho = 0.5.
    assert_close(by_rho[0.5]["wait_meas"], by_rho[0.5]["service"] / 2,
                 rel=0.35, what="half-packet wait at rho=0.5")
    # "One packet or less" holds through moderate load.
    assert by_rho[0.5]["queue_meas"] < 1.3
    assert by_rho[0.7]["queue_meas"] < 2.2
