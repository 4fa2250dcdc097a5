"""F4 — the simulator's bill: a per-transaction ledger of ``sim_random_mix``.

The benchmark's simulated workload (:class:`benchmarks.e2e.simrun.
SimBench`: a 12-router random internetwork, 16 closed-loop clients,
tokens on) run one simulated slice at a time, no sockets anywhere.
Rows are priced **from outside**: nothing in ``src/`` knows it is
measured.  Each row is a set of seams — the simulator's classes and
functions, :data:`SEAMS` — and is charged the time its seams run
themselves, children in another row's seams excluded:

* ``engine loop + heap`` — ``Simulator.run`` (pop, dispatch), ``at`` /
  ``after`` (push), event cancels, and what an event runs that no seam
  below covers;
* ``router adapter`` — the simulator's ``SirpentRouter`` (``on_header``,
  ``_process``, ``_forward``, ``_submit`` …) and its counters;
* ``RouterCore.step`` — the shared core: read, decide and move a hop;
* ``output queue`` — ``OutputPort``: submit, queue, transmit, port free;
* ``channel`` — ``Channel`` / ``EthernetSegment``, their
  ``Transmission``, the attachments' ``send``;
* ``host send`` — ``SirpentHost.send`` / ``send_return``: the frame build;
* ``host receive`` — ``SirpentHost.on_packet`` and ``HostCore``;
* ``codec`` — the transactor's ``send`` / ``send_return`` and socket
  handler, ``encode_pdu`` / ``open_pdu``;
* ``transport machine`` — ``TransactionMachine`` and its route manager;
* ``congestion`` — ``RateControlManager``, its limiters, the control
  plane and the rate signals' handlers;
* ``app`` — ``TransactionApp``.

Time is found by stack sampling, not by wrapping: a wrapper per seam
call costs about half the simulator's own time here, and a second
wrapper layer — what F3 prices its probe with — costs a fifth less than
the first, which left the rows 8–10 % above the wall clock.  A wall
clock timer interrupts sampled slices every :data:`INTERVAL_S`; each
sample charges the innermost seam on the stack.  Sampled slices
alternate with unsampled ones, so the box's drift falls on both alike,
and the rows must sum to the unsampled slices' wall clock per
transaction (the printed closure).  ``calls/tx`` is cProfile's exact
count over one simulated second with the collector off — per row, its
seams' calls.  Print-only: nothing here is a gate.
"""

from __future__ import annotations

import cProfile
import dis
import gc
import signal
import time
from types import CodeType
from typing import Dict

from repro.core.congestion import ControlPlane, FlowLimiter, RateControlManager
from repro.core.host import SirpentHost
from repro.core.queues import OutputPort
from repro.core.router import RouterStats, SirpentRouter
from repro.dataplane.host import HostCore
from repro.dataplane.router import RouterCore
from repro.net.ethernet import EthernetSegment
from repro.net.link import Channel, Transmission
from repro.net.node import Attachment, EthernetAttachment, P2PAttachment
from repro.sim.engine import EventHandle, Simulator
from repro.sim.monitor import Counter, Histogram, UtilizationTracker
from repro.transport import codec
from repro.transport.machine import TransactionMachine
from repro.transport.rebind import RouteManager
from repro.transport.transactor import TransactorIO
from repro.transport.vmtp import VmtpTransport
from repro.viper.wire import segment_span
from repro.workloads.apps import TransactionApp

from benchmarks._common import format_table, publish
from benchmarks.e2e.simrun import SimBench

#: The think-time seed of the ledger's scenario.
SEED = 3901
#: Simulated seconds of warm-up, as the e2e workload's.
WARMUP_S = 0.25
#: Simulated seconds per slice, and slices of each mode per pass.
SLICE_S = 0.05
BLOCKS = 150
#: Simulated seconds of the cProfile window.
PROFILE_S = 1.0
#: Wall seconds between samples.
INTERVAL_S = 0.0005
#: Whether a function's entry can be told (its ``RESUME``, Python 3.11+).
_HAS_RESUME = "RESUME" in dis.opmap

ENGINE = "engine loop + heap"
ROWS = (
    ENGINE, "router adapter", "RouterCore.step", "output queue", "channel",
    "host send", "host receive", "codec", "transport machine", "congestion",
    "app",
)

#: Each row and its seams: (class, methods), or (class, None) for every
#: method the class defines — nested functions (a closure it hands out,
#: a lambda) included.
SEAMS = (
    (ENGINE, ((Simulator, None), (EventHandle, None))),
    ("router adapter", ((SirpentRouter, None), (RouterStats, None))),
    ("RouterCore.step", ((RouterCore, None),)),
    ("output queue", ((OutputPort, None),)),
    ("channel", (
        (Channel, None), (Transmission, None), (Attachment, None),
        (P2PAttachment, None), (EthernetAttachment, None),
        (EthernetSegment, None), (UtilizationTracker, None),
    )),
    ("host send", ((SirpentHost, ("send", "send_return")),)),
    ("host receive", ((SirpentHost, ("on_packet",)), (HostCore, None))),
    ("codec", (
        (TransactorIO, ("send", "send_return", "_on_delivered")),
        (codec, ("encode_pdu", "open_pdu")),
    )),
    ("transport machine", (
        (TransactionMachine, None), (VmtpTransport, ("transact",)),
        (RouteManager, None),
    )),
    ("congestion", (
        (RateControlManager, None), (FlowLimiter, None), (ControlPlane, None),
        (SirpentHost, ("_on_control_message",)),
        (VmtpTransport, ("_on_rate_signal",)),
    )),
    ("app", ((TransactionApp, None),)),
)


def _code_rows() -> Dict[CodeType, str]:
    """Every seam's code object, and the codes nested in it, to its row."""
    rows: Dict[CodeType, str] = {}

    def claim(code: CodeType, row: str) -> None:
        rows.setdefault(code, row)
        for const in code.co_consts:
            if isinstance(const, CodeType):
                claim(const, row)

    for row, seams in SEAMS:
        for owner, names in seams:
            members = vars(owner)
            for name in names if names is not None else list(members):
                member = members[name]
                if isinstance(member, property):
                    member = member.fget
                member = getattr(member, "__func__", member)
                code = getattr(member, "__code__", None)
                if code is not None:
                    claim(code, row)
    return rows


class _Sampler:
    """A wall-clock timer that, every :data:`INTERVAL_S`, charges the
    row of the innermost seam on the interrupted stack; a stack in no
    seam (the loop that advances the slice) is the engine's.

    The interpreter runs a signal handler only at its next check: a
    function's entry, a loop's back edge, the return of a builtin call.
    A sample taken at a function's entry is its caller's time — the
    code run since the last check was the caller's, and any callee that
    returned without a check — so it is charged from the caller.  A
    function's entry is its ``RESUME`` instruction, which Python has
    from 3.11 on; before that, samples are charged without this
    correction, to the innermost seam they interrupt."""

    def __init__(self) -> None:
        self.samples: Dict[str, int] = dict.fromkeys(ROWS, 0)
        rows, samples = _code_rows(), self.samples
        entries: Dict[CodeType, int] = {}

        def entry_of(code: CodeType) -> int:
            offset = entries.get(code)
            if offset is None:
                offset = entries[code] = next(
                    ins.offset for ins in dis.get_instructions(code)
                    if ins.opname == "RESUME"
                )
            return offset

        def sample(_signum, frame) -> None:
            if (
                _HAS_RESUME and frame.f_back is not None
                and frame.f_lasti == entry_of(frame.f_code)
            ):
                frame = frame.f_back
            while frame is not None:
                row = rows.get(frame.f_code)
                if row is not None:
                    samples[row] += 1
                    return
                frame = frame.f_back
            samples[ENGINE] += 1

        self._handler = sample

    def __enter__(self) -> "_Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *_exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _ledger() -> dict:
    """One pass: unsampled and sampled slices, alternating, so the box's
    drift falls on both alike.  A row is its samples times the interval,
    per transaction of the sampled slices; the unsampled slices' wall
    clock per transaction is what the rows must sum to."""
    bench = SimBench(SEED)
    bench.advance(WARMUP_S)
    sampler = _Sampler()
    wall = {False: 0, True: 0}
    done = {False: 0, True: 0}
    gc.collect()
    for block in range(2 * BLOCKS):
        sampled = block % 2 == 1
        before = bench.progress().completed
        started = time.perf_counter_ns()
        if sampled:
            with sampler:
                bench.advance(SLICE_S)
        else:
            bench.advance(SLICE_S)
        wall[sampled] += time.perf_counter_ns() - started
        done[sampled] += bench.progress().completed - before
    return {
        "bare_us": wall[False] / done[False] / 1e3,
        "samples": sum(sampler.samples.values()),
        "rows_us": {
            row: count * INTERVAL_S * 1e6 / done[True]
            for row, count in sampler.samples.items()
        },
    }


#: What the bill is paid in, counted beside every call: a label and the
#: cProfile entries (code objects; a builtin's name) it sums.
COUNTED = (
    ("frame-hops", (RouterCore.step.__code__,)),
    ("heappush", ("<built-in method _heapq.heappush>",)),
    ("Counter/Histogram.add", (Counter.add.__code__, Histogram.add.__code__)),
    ("segment_span", (segment_span.__code__,)),
)


def _counts() -> dict:
    """Exact per-transaction counts over one profiled simulated second,
    the collector off: every call, each row's seam calls, and what the
    bill is paid in."""
    bench = SimBench(SEED)
    bench.advance(WARMUP_S)
    warm = bench.progress()
    gc.collect()
    gc.disable()
    try:
        profile = cProfile.Profile()
        profile.enable()
        bench.advance(PROFILE_S)
        profile.disable()
    finally:
        gc.enable()
    now = bench.progress()
    tx = now.completed - warm.completed
    code_rows = _code_rows()
    seam_calls = dict.fromkeys(ROWS, 0)
    counts = {"calls (cProfile)": 0, "events executed": now.events - warm.events}
    counts.update((label, 0) for label, _ in COUNTED)
    for entry in profile.getstats():
        counts["calls (cProfile)"] += entry.callcount
        row = code_rows.get(entry.code)
        if row is not None:
            seam_calls[row] += entry.callcount
        for label, codes in COUNTED:
            if entry.code in codes:
                counts[label] += entry.callcount
    return {
        "per_tx": {key: value / tx for key, value in counts.items()},
        "seam_calls": {row: value / tx for row, value in seam_calls.items()},
    }


def bench_f04_sim_ledger():
    ledger = _ledger()
    counts = _counts()
    rows_us, seam_calls = ledger["rows_us"], counts["seam_calls"]
    total = sum(rows_us.values())
    closure = total / ledger["bare_us"]
    table_rows = [
        [row, round(rows_us[row], 1), round(seam_calls[row], 2)] for row in ROWS
    ]
    table_rows += [
        ["= rows sum", round(total, 1), round(sum(seam_calls.values()), 2)],
        ["unsampled wall", round(ledger["bare_us"], 1), ""],
        ["closure (sum / wall)", round(closure, 3), ""],
    ]
    table_rows += [
        [key, "", round(value, 2)] for key, value in counts["per_tx"].items()
    ]
    title = f"F4: sim_random_mix, per-transaction ledger (seed {SEED})"
    table = format_table(title, ["row", "us/tx", "calls/tx"], table_rows)
    note = (
        f"\n\n{BLOCKS} slices of {SLICE_S} simulated s each, sampled every "
        f"{INTERVAL_S * 1e3:g} ms of wall clock ({ledger['samples']} samples), "
        f"alternating with as many unsampled, after {WARMUP_S} s of warm-up; "
        "a row is its samples' time per transaction.  calls/tx: cProfile "
        f"over {PROFILE_S} simulated s, gc off (a row's: its seams' calls)."
    )
    publish("f04_sim_ledger", table + note, data={
        "title": title,
        "metrics": {
            "unsampled_us": round(ledger["bare_us"], 1),
            "closure": round(closure, 3),
            "rows_us": {row: round(value, 1) for row, value in rows_us.items()},
            "calls_per_tx": {
                key: round(value, 2) for key, value in counts["per_tx"].items()
            },
        },
        "lower_is_better": ["unsampled_us", "calls_per_tx"],
    })
    return {"ledger": ledger, "counts": counts}


if __name__ == "__main__":
    bench_f04_sim_ledger()
