"""F2 — the dataplane fast paths: flow cache and in-place hop move.

Three claims about the per-hop machinery:

* **Flow cache (§2.2)** — "routers cache tokens and flow information as
  soft state": a warm flow-cache decision must be at least 2x faster
  than the cold first-packet decision (HMAC token verification +
  resolution + install).  Three rows price a first packet: "cold (flush
  each)" flushes both caches and decides the *same* flow again — one
  token, one account, tables of one entry; "new flow" decides a flow
  never seen — fresh account, token and leading bytes per decision, the
  token cache and ledger growing and the full flow cache evicting, as
  on the ``live_cold_flows`` workload's forward hops; "new flow, token
  known" is that workload's reply hop — a new flow (the return hop
  leads, RPF set) under a token the router verified on the way out.
  The gate and the speedup use the first; the other two are the
  installs the end-to-end benchmark pays.  Beside each decision row,
  its Python and built-in calls per decision (cProfile, exact).
* **In-place hop move** — the live router's strip/reverse/append
  inside a buffer-ring slot (:func:`repro.live.frames.hop_move_into`:
  arithmetic strip boundary, preamble rewritten before the surviving
  bytes, memoized return tail appended) must beat the structural decode
  -> advance -> re-encode round trip it is byte-exact against.
* **Allocation discipline (PR 8)** — the in-place move must allocate
  several times fewer bytes per packet than the structural path:
  tracemalloc's peak-growth around a single op is the counter, because
  transient per-packet garbage is exactly what peaks.

Speedups are shape checks on ratios, not absolute numbers: wall-clock
noise moves the microseconds, not who wins.
"""

from __future__ import annotations

import cProfile
import time
import tracemalloc

from repro.dataplane import (
    Action,
    FlowCache,
    ForwardingPipeline,
    HopInput,
    PortMap,
    PortProfile,
)
from repro.live.frames import (
    decode_live_frame,
    decode_preamble,
    encode_live_frame,
    hop_move_into,
    return_tail_of,
)
from repro.tokens.cache import TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.packet import SirpentPacket, TrailerElement
from repro.viper.ring import BufferRing
from repro.viper.wire import HeaderSegment, PacketView, segment_span

from benchmarks._common import format_table, publish

DECISIONS = 4000
STRIPS = 4000
FLOW_CACHE_CAPACITY = 1024


def _per_op_us(fn, n: int) -> float:
    fn()  # warm the code path (bytecode caches, dict sizing)
    started = time.perf_counter()
    for _ in range(n):
        fn()
    return (time.perf_counter() - started) / n * 1e6


def _calls_per_op(fn, n: int) -> float:
    """Calls — Python and built-in — per ``fn()``, counted by cProfile
    over ``n`` of them (the profiler's own ``disable`` left out)."""
    profile = cProfile.Profile()
    profile.enable()
    for _ in range(n):
        fn()
    profile.disable()
    return (sum(entry.callcount for entry in profile.getstats()) - 1 - n) / n


def _alloc_per_op(fn, repeats: int = 9) -> int:
    """Median tracemalloc peak growth (bytes) across single invocations.

    Peak-minus-before catches transient garbage that a before/after
    snapshot diff would miss (per-packet objects are freed before the
    op returns — that churn is precisely what the zero-allocation
    fastpath removes).
    """
    samples = []
    tracemalloc.start()
    try:
        fn()  # warm caches so one-time allocations don't pollute sample 1
        for _ in range(repeats):
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            fn()
            _, peak = tracemalloc.get_traced_memory()
            samples.append(max(0, peak - before))
    finally:
        tracemalloc.stop()
    samples.sort()
    return samples[len(samples) // 2]


def _build_pipeline():
    mint = TokenMint(b"bench:f02", issuer="r1")
    token_cache = TokenCache(mint)
    pipeline = ForwardingPipeline(
        "r1",
        token_cache=token_cache,
        ports=PortMap({
            1: PortProfile(mtu=1500), 2: PortProfile(mtu=1500),
            7: PortProfile(mtu=1500),
        }),
        flow_cache=FlowCache(capacity=FLOW_CACHE_CAPACITY, ttl_ms=1 << 40),
    )
    token = mint.mint(port=1, account=9, reverse_ok=True)
    hop = HopInput(
        segment=HeaderSegment(port=1, token=token),
        seg_count=3, wire_size=600, in_port=7,
    )
    return pipeline, token_cache, hop


def _new_flows(reply: bool):
    """Mean µs and calls of deciding a flow never seen before, tables in
    steady state: the flow cache is filled first, so every timed install
    evicts.  ``reply``: the flow is a reply's — it arrives on the
    forward hop's egress, leads with its ingress, RPF set — under a token
    the forward hop verified; else its token is new too."""
    pipeline, token_cache, _ = _build_pipeline()
    forward, replies = [], []
    for account in range(FLOW_CACHE_CAPACITY + 2 * DECISIONS):
        token = token_cache.mint.mint(port=1, account=account, reverse_ok=True)
        forward.append(HopInput(
            segment=HeaderSegment(port=1, token=token),
            seg_count=3, wire_size=600, in_port=7,
        ))
        replies.append(HopInput(
            segment=HeaderSegment(port=7, rpf=True, token=token),
            seg_count=3, wire_size=600, in_port=1,
        ))
    if reply:
        for hop in forward:  # every token verified, on the way out
            pipeline.decide(hop)
    hops = replies if reply else forward
    for hop in hops:
        hop.lead  # the leading bytes arrive with the packet: not timed
    for hop in hops[:FLOW_CACHE_CAPACITY]:
        pipeline.decide(hop)
    timed = iter(hops[FLOW_CACHE_CAPACITY:FLOW_CACHE_CAPACITY + DECISIONS])
    started = time.perf_counter()
    for hop in timed:
        pipeline.decide(hop)
    elapsed = time.perf_counter() - started
    profiled = iter(hops[FLOW_CACHE_CAPACITY + DECISIONS:])
    calls = _calls_per_op(lambda: pipeline.decide(next(profiled)), DECISIONS)
    stats = pipeline.flow_cache.stats
    assert stats.hits == 0 and stats.evictions == len(forward) * (1 + reply) - FLOW_CACHE_CAPACITY
    assert len(token_cache) == len(token_cache.ledger.accounts()) == len(hops)
    assert all(
        token_cache.entry(hop.segment.token).packets == 1 + reply for hop in hops
    )
    return elapsed / DECISIONS * 1e6, calls


def _build_datagram() -> bytes:
    packet = SirpentPacket(
        segments=[
            HeaderSegment(port=p, token=b"T" * 32) for p in (1, 2, 3)
        ] + [HeaderSegment(port=0)],
        payload_size=512,
        payload=b"x" * 512,
    )
    return encode_live_frame(packet, b"x" * 512)


def bench_f02_dataplane(benchmark):
    pipeline, token_cache, hop = _build_pipeline()

    # Sanity: the flow actually forwards, cold and warm — the first
    # packet is handed the decision the cache then answers with.
    cold_check = pipeline.decide(hop)
    assert cold_check.action is Action.FORWARD
    assert pipeline.decide(hop) is cold_check
    assert pipeline.flow_cache.stats.hits == 1

    def cold_decision():
        # A flush drops both caches (soft state dies together), so every
        # decision pays the first-packet cost: HMAC verify + resolution
        # + flow install.
        token_cache.flush()
        pipeline.decide(hop)

    def warm_decision():
        pipeline.decide(hop)

    cold_us = _per_op_us(cold_decision, DECISIONS)
    cold_calls = _calls_per_op(cold_decision, DECISIONS)
    new_flow_us, new_flow_calls = _new_flows(reply=False)
    reply_us, reply_calls = _new_flows(reply=True)
    warm_us = benchmark(_per_op_us, warm_decision, DECISIONS)
    warm_calls = _calls_per_op(warm_decision, DECISIONS)
    decision_speedup = cold_us / warm_us

    datagram = _build_datagram()
    return_segment = HeaderSegment(port=7, token=b"R" * 32)

    def structural_move() -> bytes:
        # The same hop through the object layer: every byte round-trips.
        _preamble, packet, payload = decode_live_frame(datagram)
        packet.segments.pop(0)
        packet.trailer.append(TrailerElement(return_segment))
        return encode_live_frame(packet, payload)

    slow_us = _per_op_us(structural_move, STRIPS)

    # In-place hop move on a buffer-ring slot (the PR 8 fastpath).  The
    # move consumes the slot, so each op first restores the overwritten
    # head region (a ~50-byte copy — charged against the fast path).
    header_len = decode_preamble(datagram).header_len
    first_end = segment_span(datagram, header_len)
    tail = return_tail_of(return_segment)
    preamble = decode_preamble(datagram)
    ring = BufferRing(slots=1)
    slot = ring.acquire()
    slot.buffer[: len(datagram)] = datagram
    view = PacketView.of_slot(slot, len(datagram))

    def inplace_move():
        view.start = 0
        view.end = len(datagram)
        slot.buffer[:first_end] = datagram[:first_end]
        hop_move_into(view, tail, preamble, next_rel=first_end)

    inplace_us = _per_op_us(inplace_move, STRIPS)
    inplace_speedup = slow_us / inplace_us
    inplace_move()
    assert view.tobytes() == structural_move()

    # Allocation churn per hop move (tracemalloc peak growth).
    slow_alloc = _alloc_per_op(structural_move)
    inplace_alloc = _alloc_per_op(inplace_move)

    hit_rate = pipeline.flow_cache.stats.hit_rate()
    rows = [
        ("per-hop decision, cold (flush each)", f"{cold_us:.2f}", "1.0x",
         f"{cold_calls:.0f}", ""),
        ("per-hop decision, new flow (tables growing)", f"{new_flow_us:.2f}",
         f"{cold_us / new_flow_us:.1f}x", f"{new_flow_calls:.0f}", ""),
        ("per-hop decision, new flow, token known (reply)", f"{reply_us:.2f}",
         f"{cold_us / reply_us:.1f}x", f"{reply_calls:.0f}", ""),
        ("per-hop decision, warm flow cache", f"{warm_us:.2f}",
         f"{decision_speedup:.1f}x", f"{warm_calls:.0f}", ""),
        ("live hop move, structural codec", f"{slow_us:.2f}", "1.0x", "",
         slow_alloc),
        ("live hop move, in-place ring slot", f"{inplace_us:.2f}",
         f"{inplace_speedup:.1f}x", "", inplace_alloc),
    ]
    table = format_table(
        "F2  dataplane fast paths — flow cache and in-place hop move",
        ["path", "us/op", "speedup", "calls/op", "alloc B/op"],
        rows,
    )
    note = (
        f"\nFlow-cache hit rate over the run: {hit_rate:.3f}.  Warm\n"
        "decisions skip HMAC verification, logical resolution and\n"
        "portInfo decoding (§2.2 'cached version of the token ... in\n"
        "real time'); the in-place move finds the strip boundary\n"
        "arithmetically, rewrites the preamble inside the ring slot\n"
        "and appends the memoized return tail — no output frame is\n"
        "ever constructed (alloc B/op = tracemalloc peak growth)."
    )
    publish("f02_dataplane", table + note, data={
        "title": "F2 dataplane fast paths",
        "metrics": {
            "warm_decision_us": round(warm_us, 3),
            "cold_decision_us": round(cold_us, 3),
            "new_flow_decision_us": round(new_flow_us, 3),
            "reply_flow_decision_us": round(reply_us, 3),
            "cold_decision_calls": round(cold_calls, 2),
            "new_flow_decision_calls": round(new_flow_calls, 2),
            "reply_flow_decision_calls": round(reply_calls, 2),
            "warm_decision_calls": round(warm_calls, 2),
            "decision_speedup": round(decision_speedup, 2),
            "strip_inplace_us": round(inplace_us, 3),
            "alloc_bytes_structural": slow_alloc,
            "alloc_bytes_inplace": inplace_alloc,
        },
        "higher_is_better": ["decision_speedup"],
        "lower_is_better": [
            "warm_decision_us", "strip_inplace_us",
            "alloc_bytes_structural", "alloc_bytes_inplace",
        ],
    })

    assert decision_speedup >= 2.0, (
        f"warm flow-cache decision only {decision_speedup:.2f}x cold"
    )
    assert inplace_speedup >= 2.0, (
        f"in-place hop move only {inplace_speedup:.2f}x structural"
    )
    # The point of PR 8: per-packet allocation collapses on the
    # in-place path (the structural path builds a whole object layer).
    assert inplace_alloc * 4 <= slow_alloc, (
        f"in-place move allocates {inplace_alloc}B/op vs structural "
        f"{slow_alloc}B/op — expected at least a 4x reduction"
    )


if __name__ == "__main__":
    from benchmarks.run_all import _InlineBenchmark

    bench_f02_dataplane(_InlineBenchmark())
