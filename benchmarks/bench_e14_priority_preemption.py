"""E14 — §2.1/§5 type-of-service: priorities and mid-transmission
preemption.

Paper claims:

* "the type of service field allows the network to support a variety of
  types of traffic ranging from real-time video to file transfer while
  still only imposing the overhead of examining and acting on the type
  of service field when the packet is blocked";
* "Priorities 6 and 7 preempt the transmission of lower priority
  packets in mid-transmission if necessary" — so high-priority traffic
  sees "contention only … between comparable priority traffic".

Setup: a CBR 'video' stream crosses a router saturated by bulk
transfers.  Sweep the stream's priority: background (0xF), normal (0),
high non-preemptive (5) and preemptive (7); measure its delivery delay
distribution and the bulk traffic's throughput.
"""

from __future__ import annotations

from repro.scenarios import build_sirpent_line
from repro.transport import RouteManager
from repro.viper.flags import (
    PRIORITY_LOWEST,
    PRIORITY_NORMAL,
    PRIORITY_PREEMPT_HIGH,
)
from repro.workloads.apps import FileTransferApp, JitterMeter, VideoStreamApp

from benchmarks._common import format_table, ms, publish

FRAME_INTERVAL = 2e-3
FRAME_BYTES = 500
DURATION = 1.0


def run_priority(priority: int):
    # Two routers: the video (src->dst) and the bulk (src2->dst2) share
    # the r1->r2 trunk, which is where contention and preemption happen.
    # Rate-based congestion control is off so the experiment isolates
    # the *queueing/preemption* machinery — E5 covers backpressure.
    from repro.core.router import RouterConfig

    scenario = build_sirpent_line(
        n_routers=2, extra_host_pairs=1,
        router_config=RouterConfig(congestion_enabled=False),
    )
    video_route = scenario.routes("src", "dst", dest_socket=0)[0]
    meter = JitterMeter(expected_interval=FRAME_INTERVAL)
    delays = []

    def on_frame(delivered):
        meter.on_delivery(delivered)
        delays.append(delivered.arrived_at - delivered.packet.created_at)

    scenario.hosts["dst"].bind(0, on_frame)
    # dib=False: blocked frames queue at their priority instead of being
    # discarded, so the priority ladder shows up as delay rather than
    # loss.  (With DIB the non-preemptive variants would simply lose
    # almost every frame on a saturated trunk — tested separately.)
    VideoStreamApp(
        scenario.sim, scenario.hosts["src"], video_route,
        frame_bytes=FRAME_BYTES, frame_interval=FRAME_INTERVAL,
        priority=priority, duration=DURATION, dib=False,
    )
    # Saturating bulk competition on the shared router.
    bulk_client = scenario.transport("src2")
    bulk_server = scenario.transport("dst2")
    entity = bulk_server.create_entity(lambda m: (b"", 1), hint="sink")
    bulk_manager = RouteManager(
        scenario.sim, scenario.vmtp_routes("src2", "dst2")
    )
    bulk = FileTransferApp(
        scenario.sim, bulk_client, bulk_manager, entity,
        total_bytes=4_000_000, priority=PRIORITY_NORMAL,
    )
    scenario.sim.run(until=DURATION + 0.3)
    router = scenario.routers["r1"]
    preemptions = sum(p.preemptions.count for p in router.output_ports.values())
    import statistics

    return {
        "received": meter.received.count,
        "p50": statistics.median(delays) if delays else float("nan"),
        "p95": sorted(delays)[int(len(delays) * 0.95)] if delays else float("nan"),
        "jitter_p95": meter.jitter.quantile(0.95),
        "bulk_throughput": bulk.throughput_bps(),
        "preemptions": preemptions,
    }


def run_all():
    return {
        "background (0xF)": run_priority(PRIORITY_LOWEST),
        "normal (0)": run_priority(PRIORITY_NORMAL),
        "high, no preempt (5)": run_priority(5),
        "preemptive (7)": run_priority(PRIORITY_PREEMPT_HIGH),
    }


def bench_e14_priority_preemption(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        "E14  CBR stream through a bulk-saturated router, by priority",
        ["stream priority", "frames delivered", "delay p50 (ms)",
         "delay p95 (ms)", "jitter p95 (ms)", "bulk Mb/s", "preemptions"],
        [
            (name, r["received"], ms(r["p50"]), ms(r["p95"]),
             ms(r["jitter_p95"]), r["bulk_throughput"] / 1e6,
             r["preemptions"])
            for name, r in results.items()
        ],
    )
    note = (
        "\nPaper: priority is only examined when a packet blocks; 6-7\n"
        "preempt mid-transmission, so real-time traffic contends only\n"
        "with its own class while bulk transfer still progresses."
    )
    publish("e14_priority_preemption", table + note)

    background = results["background (0xF)"]
    normal = results["normal (0)"]
    high = results["high, no preempt (5)"]
    preemptive = results["preemptive (7)"]
    # Higher priority -> lower tail delay, monotonically.
    assert preemptive["p95"] < high["p95"] <= normal["p95"] <= background["p95"] * 1.05
    # Preemption actually happened, and bounds the tail near the
    # unloaded delivery time (well under one bulk-packet serialization
    # behind schedule).
    assert preemptive["preemptions"] > 0
    assert preemptive["p95"] < 1.5e-3
    assert preemptive["jitter_p95"] < 1e-3
    # Bulk still made real progress under the preemptive stream.
    assert preemptive["bulk_throughput"] > 1e6
