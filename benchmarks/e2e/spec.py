"""What the benchmark runs and what it reports: workloads and metrics.

This module is the single declaration the root ``BENCHMARK.json`` is
written from (``tests/bench_e2e`` checks the two agree).  Workload
names are permanent: later PRs quote them in performance claims.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``slice_tx`` transactions make one measured
    slice; the window always runs at least ``fixed_slices`` slices, and
    ``peak_rss_mb`` (and the sim's exact statistics) are sampled when
    exactly that many have completed, so both commits have done the same
    work at the sampling point however fast they are."""

    name: str
    why: str
    kind: str = "live"              # "live" (UDP overlay) or "sim"
    request_bytes: int = 64
    reply_bytes: int = 64
    window: int = 1                 # closed loop: transactions in flight
    slice_tx: int = 64
    fixed_slices: int = 40
    cold_flows: bool = False        # a new flow (fresh tokens) per transaction
    loss_rate: float = 0.0


WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        "live_small_pipelined",
        "64 B transactions, 32 in flight on one warm flow: per-frame CPU is "
        "everything and the loop is saturated, so tx/s is cost per frame-hop",
        window=32, slice_tx=128, fixed_slices=40,
    ),
    Workload(
        "live_small_seq",
        "same path one transaction at a time: rx batch fill 1, nothing to "
        "amortise; unloaded RTT is the paper's headline, batching loses here",
        window=1, slice_tx=128, fixed_slices=25,
    ),
    Workload(
        "live_bulk",
        "16 KiB each way as 16+16 members of 1 KiB, 4 in flight: bytes "
        "copied, host encode and group reassembly dominate, not per-packet cost",
        request_bytes=16384, reply_bytes=16384, window=4,
        slice_tx=32, fixed_slices=12,
    ),
    Workload(
        "live_cold_flows",
        "every transaction is a new flow with freshly minted tokens: path-find, "
        "HMAC verify and flow install on every hop; unbounded tables show as RSS",
        window=32, slice_tx=128, fixed_slices=30, cold_flows=True,
    ),
    Workload(
        "live_lossy",
        "live_small_pipelined with 2 % loss on every endpoint: CPU cost of "
        "retransmits and duplicates; p90 = p50 + one 50 ms hop ack timeout; "
        "counter-workload to dropping hop acks",
        window=32, slice_tx=128, fixed_slices=30, loss_rate=0.02,
    ),
    Workload(
        "sim_random_mix",
        "the other substrate: 12-router random internetwork, 16 closed-loop "
        "clients, mixed sizes, tokens on; no sockets, guards the simulator's speed",
        kind="sim", window=16, slice_tx=0, fixed_slices=30,
    ),
)

WORKLOADS_BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float
    definition: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25,
             "interpreter entry to first measured transaction: CPU seconds of "
             "imports + median of three (build, route fetch, warm-up) "
             "set-ups, at reference machine speed"),
    EndToEnd("tx_per_s", "1/s", "higher", 0.25,
             "verified transactions per wall second at reference machine "
             "speed (sim: simulated transactions per host second)"),
    EndToEnd("cpu_us_per_tx", "us", "lower", 0.25,
             "process CPU time per verified transaction at reference "
             "machine speed"),
    EndToEnd("rtt_p50_ms", "ms", "lower", 0.25,
             "median client-observed transaction time at reference machine "
             "speed (sim: the median client's, in simulated time, exact)"),
    EndToEnd("rtt_p90_ms", "ms", "lower", 0.25,
             "90th percentile transaction time; on live_lossy the median "
             "plus one loss recovery, the timer as measured (sim: the median "
             "client's, simulated, exact)"),
    EndToEnd("peak_rss_mb", "MB", "lower", 0.10,
             "ru_maxrss when the window's fixed part has completed"),
)


@dataclass(frozen=True)
class PerLayer:
    """``moves`` is the prediction later issues are held to: which
    end-to-end metric, on which workload, this row should move."""

    name: str
    unit: str
    better: str
    how: str
    moves: Tuple[Tuple[str, str], ...]


def _m(*pairs: str) -> Tuple[Tuple[str, str], ...]:
    return tuple(tuple(p.split("@")) for p in pairs)  # type: ignore[misc]


PIPE, SEQ, BULK, COLD, LOSSY, SIM = (w.name for w in WORKLOADS)

#: Packages whose cProfile self time is a ``<pkg>.self_share`` row.
SELF_SHARE_PACKAGES = ("sim", "core", "net", "transport", "dataplane",
                       "viper", "tokens")

PER_LAYER: Tuple[PerLayer, ...] = (
    # -- live.link ---------------------------------------------------------
    PerLayer("live.link.data_frames_per_tx", "count", "lower",
             "sum of EndpointMetrics.frames_out / tx",
             _m(f"tx_per_s@{PIPE}", f"cpu_us_per_tx@{PIPE}")),
    PerLayer("live.link.acks_per_tx", "count", "lower",
             "sum of EndpointMetrics.acks_out / tx",
             _m(f"tx_per_s@{PIPE}", f"cpu_us_per_tx@{PIPE}")),
    PerLayer("live.link.hop_retries_per_tx", "count", "lower",
             "sum of EndpointMetrics.retries / tx",
             _m(f"rtt_p90_ms@{LOSSY}", f"tx_per_s@{LOSSY}")),
    PerLayer("live.link.drops_per_tx", "count", "lower",
             "sum of EndpointMetrics.total_drops() / tx",
             _m(f"rtt_p90_ms@{LOSSY}", f"tx_per_s@{LOSSY}")),
    PerLayer("live.link.rx_batch_fill", "count", "higher",
             "sum of rx_datagrams / sum of rx_batches",
             _m(f"tx_per_s@{PIPE}")),
    PerLayer("live.link.tx_busy_share", "ratio", "lower",
             "traced: self time inside endpoint.send/send_view/send_parts / wall",
             _m(f"cpu_us_per_tx@{PIPE}", f"cpu_us_per_tx@{BULK}")),
    PerLayer("live.link.tx_us_per_frame", "us", "lower",
             "traced: self time inside endpoint.send* / frames sent",
             _m(f"cpu_us_per_tx@{PIPE}", f"cpu_us_per_tx@{BULK}")),
    # -- live.router -------------------------------------------------------
    PerLayer("live.router.batch_self_us_per_hop", "us", "lower",
             "traced: router on_batch self time / frames forwarded",
             _m(f"tx_per_s@{PIPE}", f"rtt_p50_ms@{SEQ}")),
    PerLayer("live.router.forwarded_per_tx", "count", "lower",
             "sum of router metrics.forwarded / tx (6 x members when clean)",
             _m(f"tx_per_s@{PIPE}")),
    # -- live.frames -------------------------------------------------------
    PerLayer("live.frames.hop_move_us_64", "us", "lower",
             "direct hop_move_into calls, 4 segments, 32 B tokens, 64 B payload",
             _m(f"tx_per_s@{PIPE}")),
    PerLayer("live.frames.hop_move_us_1024", "us", "lower",
             "direct hop_move_into calls, same frame with a 1 KiB payload",
             _m(f"tx_per_s@{BULK}")),
    PerLayer("live.frames.decode_preamble_us", "us", "lower",
             "direct decode_preamble calls on the same frame",
             _m(f"tx_per_s@{PIPE}")),
    PerLayer("live.frames.decode_preamble_per_frame_hop", "count", "lower",
             "profiled: decode_preamble calls / data frames received "
             "(2 on a router = the roadmap's decoded-twice suspect)",
             _m(f"cpu_us_per_tx@{PIPE}")),
    # -- dataplane ---------------------------------------------------------
    PerLayer("dataplane.decide_us", "us", "lower",
             "traced: self+child time inside each router's pipeline.decide / call",
             _m(f"cpu_us_per_tx@{COLD}", f"cpu_us_per_tx@{PIPE}")),
    PerLayer("dataplane.decide_busy_share", "ratio", "lower",
             "traced: time inside pipeline.decide / wall",
             _m(f"cpu_us_per_tx@{COLD}", f"cpu_us_per_tx@{PIPE}")),
    PerLayer("dataplane.decides_per_tx", "count", "lower",
             "traced: pipeline.decide calls / tx",
             _m(f"cpu_us_per_tx@{PIPE}")),
    PerLayer("dataplane.flow_cache_hit_ratio", "ratio", "higher",
             "router.flow_cache.stats hits / (hits + misses), delta over the window",
             _m(f"tx_per_s@{COLD}")),
    # -- tokens ------------------------------------------------------------
    PerLayer("tokens.cache_miss_ratio", "ratio", "lower",
             "token_cache misses / (hits + misses), delta over the window",
             _m(f"tx_per_s@{COLD}")),
    PerLayer("tokens.cache_entries_end", "count", "lower",
             "sum of len(router.token_cache) when the window ends",
             _m(f"peak_rss_mb@{COLD}")),
    PerLayer("tokens.admit_us", "us", "lower",
             "traced: time inside token_cache.admit / call",
             _m(f"tx_per_s@{COLD}")),
    # -- directory ---------------------------------------------------------
    PerLayer("directory.query_us", "us", "lower",
             "harness-timed overlay.directory.query per call",
             _m(f"tx_per_s@{COLD}")),
    PerLayer("directory.query_busy_share", "ratio", "lower",
             "time inside overlay.directory.query / wall",
             _m(f"tx_per_s@{COLD}")),
    PerLayer("live.directory.routes_us", "us", "lower",
             "200 LiveDirectoryClient.routes() TCP lookups during set-up",
             _m(f"setup_s@{COLD}")),
    # -- live.host ---------------------------------------------------------
    PerLayer("live.host.batch_self_us_per_frame", "us", "lower",
             "traced: host on_batch self time / frames delivered",
             _m(f"tx_per_s@{BULK}")),
    PerLayer("live.host.send_us_per_frame", "us", "lower",
             "traced: self time inside LiveHost.send/send_return / frames",
             _m(f"tx_per_s@{BULK}")),
    PerLayer("live.host.transact_self_us", "us", "lower",
             "traced: transact root span minus the seam spans inside it",
             _m(f"rtt_p50_ms@{SEQ}")),
    PerLayer("live.host.rtt_p99_ms", "ms", "lower",
             "99th percentile transaction time over the whole window",
             _m(f"rtt_p50_ms@{SEQ}")),
    # -- event loop --------------------------------------------------------
    PerLayer("loop.residual_share", "ratio", "lower",
             "traced: 1 - top-level seam spans / wall = epoll, rx syscalls, "
             "timers, asyncio, the transactor's own coroutine",
             _m(f"tx_per_s@{PIPE}")),
    PerLayer("trace_overhead_ratio", "ratio", "higher",
             "traced tx_per_s / untraced tx_per_s, same process",
             _m(f"tx_per_s@{PIPE}")),
    # -- exact-repeat call counts (cProfile, per transaction) ----------------
    PerLayer("calls.socket_sendto_per_tx", "count", "lower",
             "profiled: socket.sendto calls / tx",
             _m(f"cpu_us_per_tx@{PIPE}")),
    PerLayer("calls.recvmsg_into_per_tx", "count", "lower",
             "profiled: socket.recvmsg_into calls / tx",
             _m(f"cpu_us_per_tx@{PIPE}")),
    PerLayer("calls.call_later_per_tx", "count", "lower",
             "profiled: loop.call_later calls / tx",
             _m(f"cpu_us_per_tx@{PIPE}")),
    PerLayer("calls.hmac_new_per_tx", "count", "lower",
             "profiled: hmac.new calls / tx",
             _m(f"cpu_us_per_tx@{COLD}")),
    PerLayer("calls.decode_preamble_per_tx", "count", "lower",
             "profiled: decode_preamble calls / tx",
             _m(f"cpu_us_per_tx@{PIPE}")),
    PerLayer("calls.hop_move_into_per_tx", "count", "lower",
             "profiled: hop_move_into calls / tx",
             _m(f"cpu_us_per_tx@{PIPE}")),
    PerLayer("calls.pipeline_decide_per_tx", "count", "lower",
             "profiled: ForwardingPipeline.decide calls / tx",
             _m(f"cpu_us_per_tx@{PIPE}", f"cpu_us_per_tx@{SIM}")),
    PerLayer("calls.heappush_per_tx", "count", "lower",
             "profiled: heapq.heappush calls / tx",
             _m(f"cpu_us_per_tx@{SIM}")),
    PerLayer("calls.exact_repeat", "count", "higher",
             "1 when two clean profiled passes gave identical route-determined "
             "counts (all counts on the sim), else 0",
             _m(f"cpu_us_per_tx@{PIPE}", f"cpu_us_per_tx@{SIM}")),
    # -- sim ---------------------------------------------------------------
    PerLayer("sim.events_per_tx", "count", "lower",
             "Simulator.events_executed / tx over the fixed part (exact)",
             _m(f"tx_per_s@{SIM}")),
    PerLayer("sim.events_per_s", "1/s", "higher",
             "Simulator.events_executed / host second at reference speed",
             _m(f"tx_per_s@{SIM}")),
    PerLayer("core.router.forwarded_per_tx", "count", "lower",
             "sum of router.stats.forwarded / tx over the fixed part (exact)",
             _m(f"tx_per_s@{SIM}")),
    PerLayer("core.router.drops", "count", "lower",
             "sum of the routers' drop counters over the fixed part (exact)",
             _m(f"tx_per_s@{SIM}")),
) + tuple(
    PerLayer(f"{pkg}.self_share", "ratio", "lower",
             f"profiled: cProfile self time in {where} / total "
             "(the self_share rows sum to 1)",
             _m(f"cpu_us_per_tx@{SIM}"))
    for pkg, where in (
        *((pkg, f"repro.{pkg}") for pkg in SELF_SHARE_PACKAGES),
        ("builtins", "built-in functions"),
        ("other", "every other module (directory, workloads, stdlib)"),
    )
) + (
    PerLayer("failed_share", "ratio", "lower",
             "(failed + wrong reply + never completed) / attempted",
             _m(f"tx_per_s@{LOSSY}")),
)

#: Topology of every live workload: 3 routers, 8 data frames and 6
#: router forwards per single-member transaction.
LIVE_ROUTERS = 3

#: Untimed transactions before the window (counted in ``setup_s``); a
#: workload whose transactions are large warms up with two slices' worth.
WARMUP_TX = 200

#: Set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
