"""The five live workloads: a UDP overlay on loopback, driven closed-loop.

One process, one thread, one asyncio loop, one client host socket; the
whole overlay (client, three routers, server, directory) runs in that
loop, so it is one core's worth of Sirpent, and traffic crosses the
host's loopback interface.  Topology for every workload:
``client - r1 - r2 - r3 - server``, tokens required, per-hop acks on:
8 data frames and 6 router forwards per single-member transaction.

The harness touches ``repro`` only through its public API:
``LiveOverlay``, ``LiveTransactor.transact/serve``,
``overlay.directory.query``, ``RouteManager``.
"""

from __future__ import annotations

import asyncio
import hashlib
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory.service import RouteQuery
from repro.live import (
    Impairments,
    LiveDirectoryClient,
    LiveOverlay,
    LiveTransactor,
    WallClock,
    as_live_route,
)
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.transport.rebind import RouteManager

from benchmarks.e2e import probes
from benchmarks.e2e.estimate import Calibration, Slice, peak_rss_mb, quantile
from benchmarks.e2e.runner import (
    CLEAN_RETRIES_PER_TX,
    OUT_DIR,
    PremiseError,
    RunResult,
    check,
    cpu_share_warnings,
    declared_metrics,
    machine_speed,
    setup_seconds,
    timing_metrics,
)
from benchmarks.e2e.spec import LIVE_ROUTERS, SETUP_REPEATS, WARMUP_TX, Workload

#: Distinct requests drawn from the seed; transaction i sends number
#: i mod this.
REQUEST_POOL = 64

#: A transaction this much slower than the median one waited for a
#: retransmit timer (the hop ack timeout is 50 ms) - far more than queueing
#: behind 31 others adds.
STALL_S = 0.030

#: ``LiveDirectoryClient.routes()`` lookups timed in the cold-flow set-up.
DIRECTORY_LOOKUPS = 200


def reply_for(request: bytes, size: int) -> bytes:
    """The server's answer: the request's digest repeated to ``size`` bytes."""
    digest = hashlib.sha256(request).digest()
    return (digest * (size // len(digest) + 1))[:size]


def line_topology() -> Topology:
    sim = Simulator()
    topology = Topology(sim)
    config = RouterConfig(require_tokens=True)
    chain = [SirpentHost(sim, "client")]
    chain += [
        SirpentRouter(sim, f"r{i + 1}", config=config)
        for i in range(LIVE_ROUTERS)
    ]
    chain.append(SirpentHost(sim, "server"))
    for left, right in zip(chain, chain[1:]):
        topology.connect(left, right)
    return topology


@dataclass
class Counters:
    """Public counters summed over the overlay, read before and after."""

    frames_out: int = 0
    acks_out: int = 0
    retries: int = 0
    drops: int = 0
    forwarded: int = 0
    delivered_hosts: int = 0
    frames_in_routers: int = 0
    rx_datagrams: int = 0
    rx_batches: int = 0
    flow_hits: int = 0
    flow_misses: int = 0
    token_hits: int = 0
    token_misses: int = 0

    @classmethod
    def read(cls, overlay: LiveOverlay) -> "Counters":
        c = cls()
        nodes = (*overlay.routers.values(), *overlay.hosts.values())
        for node in nodes:
            m = node.metrics
            c.frames_out += m.frames_out
            c.acks_out += m.acks_out
            c.retries += m.retries
            c.drops += m.total_drops()
            c.rx_datagrams += node.endpoint.rx_datagrams
            c.rx_batches += node.endpoint.rx_batches
        for host in overlay.hosts.values():
            c.delivered_hosts += host.metrics.delivered_local
        for router in overlay.routers.values():
            c.forwarded += router.metrics.forwarded
            c.frames_in_routers += router.metrics.frames_in
            c.flow_hits += router.flow_cache.stats.hits
            c.flow_misses += router.flow_cache.stats.misses
            c.token_hits += router.token_cache.hits
            c.token_misses += router.token_cache.misses
        return c

    def since(self, earlier: "Counters") -> "Counters":
        return Counters(**{
            key: value - getattr(earlier, key)
            for key, value in vars(self).items()
        })


@dataclass
class Window:
    """What one closed-loop window observed."""

    slices: List[Slice] = field(default_factory=list)
    #: Verified transactions, including those that drained after the
    #: last slice; the counter deltas cover exactly these.
    verified: int = 0
    attempted: int = 0
    #: Transactions that did not complete, plus ``wrong`` ones.
    failed: int = 0
    #: Replies that arrived but differed from the expected bytes.
    wrong: int = 0
    #: Transaction-level timeouts (each sends a retransmission probe).
    tx_retries: int = 0
    counters: Counters = field(default_factory=Counters)
    rss_fixed_mb: float = 0.0
    start_ns: int = 0
    end_ns: int = 0
    query_ns: int = 0
    queries: int = 0
    token_entries_end: int = 0

    @property
    def wall_s(self) -> float:
        return sum(s.wall_s for s in self.slices)


class LiveBench:
    """One live workload: set-up, closed-loop windows, tear-down."""

    def __init__(
        self, workload: Workload, seed: int, calibrate: Calibration,
        quick: bool = False,
    ) -> None:
        self.workload = workload
        self.seed = seed
        self.quick = quick
        rng = random.Random(seed)
        self.requests = [
            rng.randbytes(workload.request_bytes) for _ in range(REQUEST_POOL)
        ]
        self.replies = [
            reply_for(request, workload.reply_bytes) for request in self.requests
        ]
        self.overlay: Optional[LiveOverlay] = None
        self.client: Optional[LiveTransactor] = None
        self.server: Optional[LiveTransactor] = None
        self.manager: Optional[RouteManager] = None
        self.routes_us = 0.0
        #: Time inside ``overlay.directory.query`` and calls made, so far.
        self.query_ns = 0
        self.queries = 0
        self._query = None
        self._calibrate = calibrate
        #: Flow number: every cold-flow transaction of the process gets
        #: its own token account, warm-up included.
        self._flows = 0

    # -- set-up ------------------------------------------------------------

    async def set_up(self) -> None:
        """Boot an overlay, fetch the route, warm the path up."""
        workload = self.workload
        # Loss is switched on after the warm-up: a warm-up under loss ends
        # waiting for its last stalled transaction, 50 or 150 ms of timer
        # that would make ``setup_s`` two-valued.  The overlay's endpoints
        # read this object on every send.
        impairments = (
            Impairments(seed=self.seed) if workload.loss_rate else None
        )
        self.overlay = LiveOverlay(line_topology(), impairments=impairments)
        await self.overlay.start()
        self.client = LiveTransactor(self.overlay.hosts["client"])
        self.server = LiveTransactor(self.overlay.hosts["server"])
        self.server.serve(self._reply)
        self._query = self.overlay.directory.query
        if workload.cold_flows:
            await self._time_directory_lookups()
        self.manager = self._new_manager(account=0)
        warm_up = min(WARMUP_TX, 2 * workload.slice_tx)
        await self.run_window(tx_limit=20 if self.quick else warm_up)
        if impairments is not None:
            impairments.loss_rate = workload.loss_rate

    def tear_down(self) -> None:
        if self.overlay is not None:
            self.overlay.stop()
            self.overlay = None

    def _reply(self, request: bytes) -> bytes:
        return reply_for(request, self.workload.reply_bytes)

    def _new_manager(self, account: int) -> RouteManager:
        query = RouteQuery(
            destination="server", k=1,
            dest_socket=self.client.config.socket,
            with_tokens=True, account=account,
        )
        started = time.perf_counter_ns()
        found = self._query("client", query)
        self.query_ns += time.perf_counter_ns() - started
        self.queries += 1
        return RouteManager(WallClock(), [as_live_route(r) for r in found])

    async def _time_directory_lookups(self) -> None:
        lookups = 10 if self.quick else DIRECTORY_LOOKUPS
        directory = LiveDirectoryClient("client")
        await directory.connect(self.overlay.directory_address)
        try:
            started = time.perf_counter()
            for _ in range(lookups):
                routes = await directory.routes(
                    "server", dest_socket=self.client.config.socket,
                    with_tokens=True,
                )
                if not routes:
                    raise RuntimeError("directory returned no route")
            self.routes_us = (time.perf_counter() - started) / lookups * 1e6
        finally:
            directory.close()

    def install_probes(self) -> probes.Tracer:
        """Switch tracing on for every later window."""
        tracer = probes.Tracer()
        probes.install_live_probes(tracer, self.overlay, (self.client,))
        self._query = tracer.traced(self._query, "directory.query")
        self._calibrate = tracer.traced(self._calibrate, "bench.calibrate")
        self.server.serve(tracer.traced(self._reply, "bench.serve"))
        return tracer

    # -- the closed loop ---------------------------------------------------

    async def run_window(
        self,
        seconds: float = 0.0,
        min_slices: int = 0,
        tx_limit: Optional[int] = None,
    ) -> Window:
        """``workload.window`` callers, each waiting for its reply.

        Runs until ``seconds`` have passed *and* ``min_slices`` slices are
        complete, or until exactly ``tx_limit`` transactions were issued.
        """
        workload = self.workload
        slice_tx = workload.slice_tx
        if self.quick:
            slice_tx = max(4, slice_tx // 8)
        window = Window(query_ns=-self.query_ns, queries=-self.queries)
        before = Counters.read(self.overlay)
        issued = 0
        in_slice = 0
        rtts: List[float] = []
        stop = False
        cold = workload.cold_flows
        requests, replies = self.requests, self.replies
        transact = self.client.transact
        clock = time.perf_counter
        cpu_clock = time.process_time
        calibrated = self._calibrate()
        window.start_ns = time.perf_counter_ns()
        started = slice_started = clock()
        slice_cpu = cpu_clock()

        def end_slice() -> None:
            nonlocal in_slice, rtts, stop, slice_started, slice_cpu, calibrated
            now, now_cpu = clock(), cpu_clock()
            window.end_ns = time.perf_counter_ns()
            before, calibrated = calibrated, self._calibrate()
            window.slices.append(Slice.between(
                before, calibrated, tx=in_slice, wall_s=now - slice_started,
                cpu_s=now_cpu - slice_cpu, rtts_s=rtts,
            ))
            in_slice, rtts = 0, []
            if len(window.slices) == min_slices:
                window.rss_fixed_mb = peak_rss_mb()
            if (
                tx_limit is None
                and len(window.slices) >= min_slices
                and now - started >= seconds
            ):
                stop = True
            slice_started, slice_cpu = clock(), cpu_clock()

        async def caller() -> None:
            nonlocal issued, in_slice
            while not stop and (tx_limit is None or issued < tx_limit):
                index = issued
                issued += 1
                k = index % REQUEST_POOL
                manager = self.manager
                if cold:
                    self._flows += 1
                    manager = self._new_manager(account=self._flows)
                result = await transact(manager, requests[k])
                window.attempted += 1
                window.tx_retries += result.retries
                if result.ok and result.payload == replies[k]:
                    window.verified += 1
                    if not stop:
                        rtts.append(result.rtt)
                        in_slice += 1
                        if in_slice == slice_tx:
                            end_slice()
                else:
                    window.failed += 1
                    window.wrong += result.ok

        await asyncio.gather(*(caller() for _ in range(workload.window)))
        window.counters = Counters.read(self.overlay).since(before)
        window.query_ns += self.query_ns
        window.queries += self.queries
        window.token_entries_end = sum(
            len(router.token_cache) for router in self.overlay.routers.values()
        )
        return window


# -- direct calls on workload-shaped frames ------------------------------------


def frame_microbench(quick: bool) -> Dict[str, float]:
    """``hop_move_into`` and ``decode_preamble`` on frames shaped like
    the workloads' (4 segments, 32 B tokens), median of five batches."""
    from repro.live.frames import (
        decode_preamble,
        encode_live_frame,
        hop_move_into,
        return_tail_of,
    )
    from repro.viper.packet import SirpentPacket
    from repro.viper.ring import BufferRing
    from repro.viper.wire import HeaderSegment, PacketView, segment_span

    batch = 100 if quick else 600
    tail = return_tail_of(HeaderSegment(port=7, token=b"R" * 32))

    def per_call_us(call) -> float:
        samples = []
        for _ in range(5):
            started = time.perf_counter()
            for _ in range(batch):
                call()
            samples.append((time.perf_counter() - started) / batch * 1e6)
        return statistics.median(samples)

    out: Dict[str, float] = {}
    for size in (64, 1024):
        payload = b"x" * size
        packet = SirpentPacket(
            segments=[
                HeaderSegment(port=p, token=b"T" * 32) for p in (1, 2, 3)
            ] + [HeaderSegment(port=0)],
            payload_size=size, payload=payload,
        )
        datagram = encode_live_frame(packet, payload)
        preamble = decode_preamble(datagram)
        first_end = segment_span(datagram, preamble.header_len)
        slot = BufferRing(slots=1).acquire()
        slot.buffer[:len(datagram)] = datagram
        view = PacketView.of_slot(slot, len(datagram))

        def move() -> None:
            # The move consumes the slot's head; restoring it (~50 B) is
            # charged to the move, as in f02.
            view.start = 0
            view.end = len(datagram)
            slot.buffer[:first_end] = datagram[:first_end]
            hop_move_into(view, tail, preamble, next_rel=first_end)

        out[f"live.frames.hop_move_us_{size}"] = per_call_us(move)
        if size == 64:
            out["live.frames.decode_preamble_us"] = per_call_us(
                lambda: decode_preamble(datagram)
            )
    return out


# -- one run -----------------------------------------------------------------


def run(
    workload: Workload, seed: int, seconds: float, traced: bool,
    quick: bool, entered: float, calibrate: Calibration,
) -> RunResult:
    """One live workload in this process, on a fresh event loop."""
    return asyncio.run(
        _run(workload, seed, seconds, traced, quick, entered, calibrate)
    )


async def _run(
    workload: Workload, seed: int, seconds: float, traced: bool,
    quick: bool, entered: float, calibrate: Calibration,
) -> RunResult:
    imports_s = time.process_time() - entered
    set_ups, calibrations = [], machine_speed(calibrate)
    bench = None
    for _ in range(1 if quick else SETUP_REPEATS):
        if bench is not None:
            bench.tear_down()
        started = time.process_time()
        bench = LiveBench(workload, seed, calibrate, quick)
        await bench.set_up()
        set_ups.append(time.process_time() - started)
        calibrations += machine_speed(calibrate)
    setup_s = setup_seconds(imports_s, set_ups, calibrations)
    fixed = 3 if quick else workload.fixed_slices
    timer_tail = workload.loss_rate > 0.0
    try:
        if not traced:
            window = await bench.run_window(seconds, min_slices=fixed)
            values, notes = timing_metrics(window.slices, timer_tail)
            values["setup_s"] = setup_s
            values["peak_rss_mb"] = window.rss_fixed_mb
            notes.update(_notes(workload, window, values))
            check_premises(workload, window, notes, quick)
            return _result(workload, seed, False, window, values, notes, [])

        micro = frame_microbench(quick)
        reference = await bench.run_window(seconds / 4, min_slices=3)
        profile = await _profile(bench, workload, quick)
        tracer = bench.install_probes()
        window = await bench.run_window(seconds / 2, min_slices=fixed)
        ledger = probes.Ledger(tracer.spans, window.start_ns, window.end_ns)
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace_{workload.name}.ndjson"))
    finally:
        bench.tear_down()

    timing, notes = timing_metrics(window.slices, timer_tail)
    reference_timing, _ = timing_metrics(reference.slices, timer_tail)
    notes.update(_notes(workload, window, timing))
    notes["spans"] = len(tracer.spans)
    values = _layers(window, ledger, notes)
    values.update(micro)
    values.update(profile)
    values["live.directory.routes_us"] = bench.routes_us
    values["trace_overhead_ratio"] = (
        timing["tx_per_s"] / reference_timing["tx_per_s"]
    )
    check_premises(workload, window, notes, quick)
    table = ledger.render(
        f"ledger {workload.name} (traced window, "
        f"{window.wall_s:.2f} s measured + calibration)"
    )
    return _result(workload, seed, True, window, values, notes, [table])


def _result(workload, seed, traced, window, values, notes, tables) -> RunResult:
    return RunResult(
        workload=workload.name, seed=seed, traced=traced,
        correct=window.wrong == 0,
        attempted=window.attempted, failed=window.failed,
        metrics=declared_metrics(values, traced),
        notes=notes, tables=tables,
    )


def _notes(workload: Workload, window, timing: Dict[str, float]) -> Dict[str, object]:
    c = window.counters
    tx = max(1, window.verified)
    members = -(-workload.request_bytes // 1024)
    notes: Dict[str, object] = {
        "verified": window.verified,
        "hop_retries_per_tx": c.retries / tx,
        "tx_retries_per_tx": window.tx_retries / max(1, window.attempted),
        "flow_cache_hit_ratio": c.flow_hits / max(1, c.flow_hits + c.flow_misses),
        "router_frame_hops_per_s": timing["tx_per_s"] * 2 * 3 * members,
        "failed_share": window.failed / max(1, window.attempted),
    }
    if workload.request_bytes >= 1024:
        notes["goodput_mb_per_s"] = (
            timing["tx_per_s"]
            * (workload.request_bytes + workload.reply_bytes) / 1e6
        )
    rtts = sorted(rtt for s in window.slices for rtt in s.rtts_s)
    notes["rtt_p99_ms"] = quantile(rtts, 0.99) * 1e3
    # A transaction that lost a frame sat out the 50 ms hop ack timeout.
    stalled = quantile(rtts, 0.5) + STALL_S
    notes["stalled_share"] = sum(1 for r in rtts if r > stalled) / len(rtts)
    return notes


def check_premises(workload: Workload, window, notes, quick: bool) -> None:
    check(window.wrong == 0, f"{window.wrong} replies differed from the expected bytes")
    warnings = notes.setdefault("warnings", [])
    if workload.loss_rate == 0.0:
        check(window.failed == 0,
               f"{window.failed} of {window.attempted} transactions failed "
               "on a clean workload")
        if notes["hop_retries_per_tx"] > CLEAN_RETRIES_PER_TX:
            warnings.append(
                f"{notes['hop_retries_per_tx']:.2f} hop retries per "
                "transaction on a clean workload: the loop was stalled "
                "past the ack timeout"
            )
    if quick:
        return  # too few transactions to test a share against a limit
    hit = notes["flow_cache_hit_ratio"]
    if workload.cold_flows:
        check(hit < 0.6, f"flow cache hit ratio {hit:.2f} on cold flows: "
               "the flows are not new")
    elif workload.name == "live_small_pipelined":
        check(hit > 0.95, f"flow cache hit ratio {hit:.2f} on a warm flow")
    if workload.loss_rate:
        stalled = notes["stalled_share"]
        check(0.11 < stalled < 0.40,
               f"{stalled:.3f} of transactions took {STALL_S * 1e3:.0f} ms "
               "longer than the median: p90 is not inside the one-loss mode")
    warnings.extend(cpu_share_warnings(notes))


def _layers(window, ledger: probes.Ledger, notes: Dict[str, object]) -> Dict[str, float]:
    c = window.counters
    tx = max(1, window.verified)
    measured_ns = ledger.wall_ns - ledger.self_ns("bench.calibrate")
    send_ns = ledger.self_ns("live.link.send")
    decide_calls = ledger.count("dataplane.decide")
    decide_ns = ledger.total_ns.get("dataplane.decide", 0)
    admit_calls = ledger.count("tokens.admit")
    host_send_calls = ledger.count("live.host.send")
    sliced_tx = sum(s.tx for s in window.slices)
    return {
        "live.link.data_frames_per_tx": c.frames_out / tx,
        "live.link.acks_per_tx": c.acks_out / tx,
        "live.link.hop_retries_per_tx": notes["hop_retries_per_tx"],
        "live.link.drops_per_tx": c.drops / tx,
        "live.link.rx_batch_fill": c.rx_datagrams / max(1, c.rx_batches),
        "live.link.tx_busy_share": send_ns / measured_ns,
        "live.link.tx_us_per_frame":
            send_ns / 1e3 / max(1, ledger.count("live.link.send")),
        "live.router.batch_self_us_per_hop":
            ledger.self_ns("live.router.on_batch") / 1e3
            / max(1, decide_calls),
        "live.router.forwarded_per_tx": c.forwarded / tx,
        "dataplane.decide_us": decide_ns / 1e3 / max(1, decide_calls),
        "dataplane.decide_busy_share": decide_ns / measured_ns,
        "dataplane.decides_per_tx": decide_calls / max(1, sliced_tx),
        "dataplane.flow_cache_hit_ratio": notes["flow_cache_hit_ratio"],
        "tokens.cache_miss_ratio":
            c.token_misses / max(1, c.token_hits + c.token_misses),
        "tokens.cache_entries_end": window.token_entries_end,
        "tokens.admit_us":
            ledger.total_ns.get("tokens.admit", 0) / 1e3 / max(1, admit_calls),
        "directory.query_us": window.query_ns / 1e3 / max(1, window.queries),
        "directory.query_busy_share":
            ledger.total_ns.get("directory.query", 0) / measured_ns,
        "live.host.batch_self_us_per_frame":
            ledger.self_ns("live.host.on_batch") / 1e3
            / max(1, c.delivered_hosts),
        "live.host.send_us_per_frame":
            ledger.self_ns("live.host.send") / 1e3 / max(1, host_send_calls),
        "live.host.transact_self_us":
            ledger.root_self_ns / 1e3 / max(1, ledger.roots),
        "live.host.rtt_p99_ms": notes["rtt_p99_ms"],
        "loop.residual_share": ledger.residual_ns / measured_ns,
        "failed_share": notes["failed_share"],
    }


#: Calls fixed by the route alone; they must repeat exactly between two
#: clean profiled passes.
_ROUTE_DETERMINED = ("socket_sendto", "decode_preamble", "hop_move_into",
                     "pipeline_decide")


async def _profile(bench, workload: Workload, quick: bool) -> Dict[str, float]:
    """cProfile a fixed number of transactions until two passes were
    clean (no hop retry, no drop, no transaction timeout — each of those
    adds frames the route does not determine), and compare them."""
    tx = 8 if quick else 2 * workload.slice_tx
    clean: List[Tuple[Dict[str, float], int]] = []
    last: Tuple[Dict[str, float], int] = ({}, 1)
    for _ in range(1 if workload.loss_rate else 4):
        with probes.profiling() as profiler:
            window = await bench.run_window(tx_limit=tx)
        counts = probes.call_counts(profiler.getstats())
        c = window.counters
        counts.update(frames_out=c.frames_out, acks_out=c.acks_out,
                      forwarded=c.forwarded)
        last = (counts, c.frames_in_routers + c.delivered_hosts)
        if (
            not workload.loss_rate  # stragglers of earlier losses cross passes
            and c.retries == 0 and c.drops == 0 and window.tx_retries == 0
        ):
            clean.append(last)
            if len(clean) == 2:
                break
    counts, frame_hops = clean[0] if clean else last
    values = {
        f"calls.{key}_per_tx": counts[key] / tx for key in probes.COUNTED_CALLS
    }
    # Every ack received is decoded once too; what is left is per data frame.
    values["live.frames.decode_preamble_per_frame_hop"] = (
        (counts["decode_preamble"] - counts["acks_out"]) / max(1, frame_hops)
    )
    exact = len(clean) == 2 and all(
        clean[0][0][key] == clean[1][0][key]
        for key in (*_ROUTE_DETERMINED, "frames_out", "acks_out", "forwarded")
    )
    if len(clean) == 2 and not exact:
        raise PremiseError(
            "route-determined call counts differ between two clean passes: "
            f"{clean[0][0]} vs {clean[1][0]}"
        )
    values["calls.exact_repeat"] = 1.0 if exact else 0.0
    return values
