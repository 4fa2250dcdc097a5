"""Tracing from outside: spans around public entry points, and call counts.

The harness installs these wrappers on the *instances* an overlay
exposes (``endpoint.on_batch``, ``endpoint.send*``, ``pipeline.decide``,
``token_cache.admit``, ``LiveHost.send``/``send_return``); nothing under
``src/`` is edited or subclassed.  A span is the tuple
``(name, start_ns, end_ns, parent, tx)``; spans are kept in memory and
written out when the run ends.

Everything but a transaction's root span is synchronous on the one
event-loop thread, so synchronous spans nest strictly and never
overlap.  The ledger follows from that: a span's self time is its
duration minus its direct children's, the *top-level* spans (no
synchronous parent) tile the busy part of the window, and what they
leave uncovered is the event-loop residual — the rows sum to the
window's wall clock by construction.
"""

from __future__ import annotations

import bisect
import contextlib
import contextvars
import cProfile
import json
from time import perf_counter_ns
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: (name, start_ns, end_ns, parent index or -1, transaction index or -1)
Span = Tuple[str, int, int, int, int]

ROOT = "live.host.transact"

#: (index of the enclosing span, transaction it belongs to).  A context
#: variable, not a plain stack, because a root span stays open across
#: awaits while other tasks and reader callbacks run.
_ENCLOSING: contextvars.ContextVar[Tuple[int, int]] = contextvars.ContextVar(
    "bench_e2e_enclosing", default=(-1, -1)
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        #: Transactions currently inside ``transact``; a reader-callback
        #: span is attributed to a transaction only when it is alone.
        self._in_flight: Dict[int, None] = {}

    # -- synchronous seams -------------------------------------------------

    def wrap(self, owner: object, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` by a span-recording wrapper."""
        original = getattr(owner, attribute)
        setattr(owner, attribute, self.traced(original, name))

    def traced(self, original: Callable, name: str) -> Callable:
        """``original`` wrapped in a synchronous span called ``name``."""
        spans = self.spans
        in_flight = self._in_flight

        def seam(*args, **kwargs):
            parent, tx = _ENCLOSING.get()
            if tx < 0 and len(in_flight) == 1:
                tx = next(iter(in_flight))
            index = len(spans)
            spans.append(None)
            token = _ENCLOSING.set((index, tx))
            started = perf_counter_ns()
            try:
                return original(*args, **kwargs)
            finally:
                spans[index] = (name, started, perf_counter_ns(), parent, tx)
                _ENCLOSING.reset(token)

        return seam

    # -- the asynchronous root ---------------------------------------------

    def traced_transact(self, original: Callable) -> Callable:
        """``LiveTransactor.transact`` wrapped in a root span per call."""
        spans = self.spans
        in_flight = self._in_flight
        counter = iter(range(1 << 62))

        async def transact(*args, **kwargs):
            tx = next(counter)
            index = len(spans)
            spans.append(None)
            in_flight[tx] = None
            token = _ENCLOSING.set((index, tx))
            started = perf_counter_ns()
            try:
                return await original(*args, **kwargs)
            finally:
                spans[index] = (ROOT, started, perf_counter_ns(), -1, tx)
                _ENCLOSING.reset(token)
                del in_flight[tx]

        return transact

    def write(self, path: str) -> None:
        """One JSON array per span, one span per line; ``parent`` is the
        0-based line of the enclosing span (a span still open when the
        run ended is written as ``null``)."""
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def install_live_probes(tracer: Tracer, overlay, transactors: Iterable) -> None:
    """Wrap the public seams of a started ``LiveOverlay``."""
    for router in overlay.routers.values():
        tracer.wrap(router.endpoint, "on_batch", "live.router.on_batch")
        tracer.wrap(router.pipeline, "decide", "dataplane.decide")
        tracer.wrap(router.token_cache, "admit", "tokens.admit")
    for host in overlay.hosts.values():
        tracer.wrap(host.endpoint, "on_batch", "live.host.on_batch")
        tracer.wrap(host, "send", "live.host.send")
        tracer.wrap(host, "send_return", "live.host.send")
    for node in (*overlay.routers.values(), *overlay.hosts.values()):
        for method in ("send", "send_view", "send_parts"):
            tracer.wrap(node.endpoint, method, "live.link.send")
    for transactor in transactors:
        transactor.transact = tracer.traced_transact(transactor.transact)


# -- span arithmetic ---------------------------------------------------------


class Ledger:
    """Self time per span name over the window ``[start_ns, end_ns]``.

    The window's bounds must be instants at which no synchronous span
    is open (the harness marks them between transactions), so every
    synchronous span lies wholly inside or outside.  ``rows`` maps span
    name to (self nanoseconds, span count); together with
    ``residual_ns`` they sum to ``wall_ns``.
    """

    def __init__(
        self, spans: Sequence[Optional[Span]], start_ns: int, end_ns: int
    ) -> None:
        self.wall_ns = end_ns - start_ns
        self.rows: Dict[str, Tuple[int, int]] = {}
        self.total_ns: Dict[str, int] = {}
        inside = [
            span is not None and span[1] >= start_ns and span[2] <= end_ns
            for span in spans
        ]
        child_ns = [0] * len(spans)
        top_level: List[Tuple[int, int]] = []
        roots: List[Span] = []
        for index, span in enumerate(spans):
            if not inside[index]:
                continue
            name, start, end, parent, _tx = span
            if name == ROOT:
                roots.append(span)
            elif parent >= 0 and spans[parent][0] != ROOT:
                child_ns[parent] += end - start
            else:
                top_level.append((start, end))
        for index, span in enumerate(spans):
            if not inside[index] or span[0] == ROOT:
                continue
            name, start, end, _parent, _tx = span
            self_ns, count = self.rows.get(name, (0, 0))
            self.rows[name] = (self_ns + end - start - child_ns[index], count + 1)
            self.total_ns[name] = self.total_ns.get(name, 0) + end - start
        self.busy_ns = sum(end - start for start, end in top_level)
        self.residual_ns = self.wall_ns - self.busy_ns
        self.roots = len(roots)
        self.root_self_ns = _uncovered(roots, sorted(top_level))

    def self_ns(self, name: str) -> int:
        return self.rows.get(name, (0, 0))[0]

    def count(self, name: str) -> int:
        return self.rows.get(name, (0, 0))[1]

    def render(self, title: str) -> str:
        """The ledger table: seam rows plus the residual, summing to wall."""
        lines = [title, f"  {'seam':28s} {'self ms':>10s} {'share':>7s} {'spans':>9s}"]
        for name, (self_ns, count) in sorted(
            self.rows.items(), key=lambda item: -item[1][0]
        ):
            lines.append(
                f"  {name:28s} {self_ns / 1e6:10.1f} "
                f"{self_ns / self.wall_ns:7.3f} {count:9d}"
            )
        lines.append(
            f"  {'loop.residual':28s} {self.residual_ns / 1e6:10.1f} "
            f"{self.residual_ns / self.wall_ns:7.3f}"
        )
        lines.append(
            f"  {'= window wall clock':28s} {self.wall_ns / 1e6:10.1f} {1.0:7.3f}"
        )
        return "\n".join(lines)


def _uncovered(roots: Sequence[Span], top_level: List[Tuple[int, int]]) -> int:
    """Total root-span time not covered by the top-level seam spans that
    start inside each root's interval."""
    starts = [start for start, _end in top_level]
    covered_before = [0]
    for start, end in top_level:
        covered_before.append(covered_before[-1] + end - start)
    total = 0
    for _name, start, end, _parent, _tx in roots:
        lo = bisect.bisect_left(starts, start)
        hi = bisect.bisect_right(starts, end)
        total += max(0, end - start - (covered_before[hi] - covered_before[lo]))
    return total


# -- exact-repeat call counts --------------------------------------------------

#: Functions counted per transaction: metric suffix -> how a cProfile
#: entry is recognised (a substring of a built-in's description, or the
#: (file suffix, function name) of Python code).
COUNTED_CALLS: Dict[str, object] = {
    "socket_sendto": "'sendto' of '_socket.socket'",
    "recvmsg_into": "'recvmsg_into' of '_socket.socket'",
    "heappush": "_heapq.heappush",
    "call_later": ("asyncio/base_events.py", "call_later"),
    "hmac_new": ("hmac.py", "new"),
    "decode_preamble": ("repro/live/frames.py", "decode_preamble"),
    "hop_move_into": ("repro/live/frames.py", "hop_move_into"),
    "pipeline_decide": ("repro/dataplane/pipeline.py", "decide"),
}


@contextlib.contextmanager
def profiling(enabled: bool = True) -> Iterator[cProfile.Profile]:
    """cProfile everything this thread runs inside the block (event-loop
    callbacks included); read ``getstats()`` afterwards."""
    profiler = cProfile.Profile()
    if enabled:
        profiler.enable()
    try:
        yield profiler
    finally:
        if enabled:
            profiler.disable()


def call_counts(stats: list) -> Dict[str, int]:
    """Calls of each :data:`COUNTED_CALLS` function in cProfile ``stats``."""
    counts = {key: 0 for key in COUNTED_CALLS}
    for entry in stats:
        code = entry.code
        for key, pattern in COUNTED_CALLS.items():
            if isinstance(code, str):
                hit = isinstance(pattern, str) and pattern in code
            else:
                hit = (
                    isinstance(pattern, tuple)
                    and code.co_name == pattern[1]
                    and code.co_filename.replace("\\", "/").endswith(pattern[0])
                )
            if hit:
                counts[key] += entry.callcount
    return counts


def self_shares(stats: list, packages: Sequence[str]) -> Dict[str, float]:
    """cProfile self time by ``repro.<package>``, built-ins and the rest;
    the shares sum to 1."""
    totals = {package: 0.0 for package in packages}
    totals["builtins"] = 0.0
    totals["other"] = 0.0
    for entry in stats:
        code = entry.code
        if isinstance(code, str):
            totals["builtins"] += entry.inlinetime
            continue
        path = code.co_filename.replace("\\", "/")
        _, found, rest = path.rpartition("/repro/")
        package = rest.split("/", 1)[0] if found else ""
        totals[package if package in totals else "other"] += entry.inlinetime
    whole = sum(totals.values()) or 1.0
    return {key: value / whole for key, value in totals.items()}
