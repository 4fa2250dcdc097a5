"""Per-packet hop-by-hop tracing for the sim and the live overlay.

Sirpent's source routes make every packet's path explicit in its own
header, so a packet trace decomposes naturally into *one span per
header segment*: the stretch of time between a packet entering a node
and leaving it (or dying there, with a drop reason).  A
:class:`Tracer` collects those spans for a sampled subset of packets,
keyed by a 64-bit trace id minted from the transport's identifier
space (:class:`repro.transport.ids.EntityIdAllocator` — "unique
independent of the (inter)network layer addressing", §4.1).

**Call-site contract.**  Instrumented code holds a ``tracer`` attribute
that is :data:`NULL_TRACER` by default.  Every hot-path touch is::

    if packet.trace_id and self.tracer.enabled:
        self.tracer.event(packet.trace_id, now, self.name, "enqueue")

— for the 99.99% case (tracing disabled, or this packet unsampled) the
cost is one int truthiness test plus, at most, one attribute load.
``bench_o01_obs_overhead`` pins this at <5% of e01/l01 throughput.

**Timestamps** are caller-supplied floats: simulation seconds in the
sim, ``time.monotonic()`` seconds in the live overlay.  A trace never
mixes the two (a packet lives in exactly one substrate).

**Export** goes two ways: NDJSON (one header line per trace, one line
per event — streaming-friendly, what ``repro.obs.report`` reads) and
Chrome ``trace_event`` JSON loadable in ``about:tracing`` / Perfetto,
where each hop span renders as a slice with its phase events
(enqueue / cut-through-start / strip-reverse-append / tx-complete) in
``args``.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class TraceEvent:
    """One timestamped happening at one node."""

    t: float
    node: str
    name: str
    attrs: Dict[str, Any] = field(default_factory=dict)


@dataclass
class TraceRecord:
    """Everything recorded about one sampled packet (and its reply)."""

    trace_id: int
    source: str
    started: float
    events: List[TraceEvent] = field(default_factory=list)
    status: str = "open"  # open | delivered | dropped
    drop_reason: str = ""

    @property
    def finished(self) -> float:
        """Timestamp of the last event (== ``started`` when empty)."""
        return self.events[-1].t if self.events else self.started

    @property
    def total(self) -> float:
        """Wall/sim time between the first and last recorded event."""
        return self.finished - self.started


@dataclass
class HopSpan:
    """A maximal run of consecutive events at one node — one hop."""

    node: str
    start: float
    end: float
    events: List[TraceEvent]


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is False so guarded call sites skip even the method
    call; unguarded calls still cost only a cheap early return.
    """

    enabled = False

    def begin(self, source: str, now: float) -> int:
        """Never samples; returns trace id 0 ("untraced")."""
        return 0

    def event(self, trace_id: int, now: float, node: str, name: str,
              **attrs: Any) -> None:
        """Discard the event."""

    def drop(self, trace_id: int, now: float, node: str, reason: str,
             **attrs: Any) -> None:
        """Discard the drop."""

    def deliver(self, trace_id: int, now: float, node: str,
                **attrs: Any) -> None:
        """Discard the delivery."""

    def record(self, trace_id: int) -> Optional[TraceRecord]:
        """There are no records."""
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<NullTracer>"


#: The shared disabled tracer every instrumented component defaults to.
NULL_TRACER = NullTracer()


class Tracer:
    """Sampling per-packet tracer shared by sim nodes or live endpoints.

    ``sample_every=N`` traces one packet in N (1 = every packet).  At
    most ``max_traces`` records are retained; the oldest are evicted,
    which bounds memory under long runs.
    """

    enabled = True

    def __init__(
        self,
        sample_every: int = 1,
        max_traces: int = 4096,
        id_domain: str = "trace",
    ) -> None:
        if sample_every < 1:
            raise ValueError("sample_every must be >= 1")
        # Imported here, not at module level: repro.obs must stay
        # import-light because repro.sim.monitor (imported by nearly
        # everything) pulls in repro.obs.registry, and the transport
        # package imports the sim right back.
        from repro.transport.ids import EntityIdAllocator

        self.sample_every = sample_every
        self.max_traces = max_traces
        self._ids = EntityIdAllocator(domain=id_domain)
        self._send_count = 0
        self.records: "OrderedDict[int, TraceRecord]" = OrderedDict()
        #: Traces begun (sampled), for sampling-rate verification.
        self.sampled = 0
        #: Sends seen (sampled or not).
        self.seen = 0

    # -- recording ---------------------------------------------------------

    def begin(self, source: str, now: float) -> int:
        """Maybe start a trace for one outbound packet.

        Returns the 64-bit trace id, or 0 when this packet falls outside
        the sampling pattern — callers stamp the result straight onto
        the packet, so 0 doubles as "untraced" downstream.
        """
        self.seen += 1
        self._send_count += 1
        if (self._send_count - 1) % self.sample_every:
            return 0
        trace_id = int(self._ids.allocate(hint=source))
        record = TraceRecord(trace_id=trace_id, source=source, started=now)
        record.events.append(TraceEvent(now, source, "send"))
        self.records[trace_id] = record
        self.sampled += 1
        while len(self.records) > self.max_traces:
            self.records.popitem(last=False)
        return trace_id

    def _record_for(self, trace_id: int, node: str, now: float) -> TraceRecord:
        record = self.records.get(trace_id)
        if record is None:
            # A traced frame arriving from a node with its own tracer
            # (or after eviction): adopt the id mid-flight.
            record = TraceRecord(trace_id=trace_id, source=node, started=now)
            self.records[trace_id] = record
            while len(self.records) > self.max_traces:
                self.records.popitem(last=False)
        return record

    def event(self, trace_id: int, now: float, node: str, name: str,
              **attrs: Any) -> None:
        """Append one span event to the trace (no-op for id 0)."""
        if not trace_id:
            return
        record = self._record_for(trace_id, node, now)
        record.events.append(TraceEvent(now, node, name, attrs))

    def drop(self, trace_id: int, now: float, node: str, reason: str,
             **attrs: Any) -> None:
        """Terminate the trace with a drop reason at ``node``."""
        if not trace_id:
            return
        record = self._record_for(trace_id, node, now)
        record.events.append(
            TraceEvent(now, node, "drop", {"reason": reason, **attrs})
        )
        record.status = "dropped"
        record.drop_reason = reason

    def deliver(self, trace_id: int, now: float, node: str,
                **attrs: Any) -> None:
        """Record final delivery at ``node`` and close the trace."""
        if not trace_id:
            return
        record = self._record_for(trace_id, node, now)
        record.events.append(TraceEvent(now, node, "deliver", attrs))
        record.status = "delivered"

    # -- installation ------------------------------------------------------

    def install(self, *nodes: Any) -> "Tracer":
        """Attach this tracer to sim/live nodes (and their ports).

        Anything exposing ``set_tracer`` gets the call; anything with a
        plain ``tracer`` attribute gets it assigned.  Returns self so
        ``Tracer().install(*topology.nodes.values())`` reads naturally.
        """
        for node in nodes:
            setter = getattr(node, "set_tracer", None)
            if setter is not None:
                setter(self)
            elif hasattr(node, "tracer"):
                node.tracer = self
        return self

    # -- querying ----------------------------------------------------------

    def record(self, trace_id: int) -> Optional[TraceRecord]:
        """The record for ``trace_id`` (None when unsampled/evicted)."""
        return self.records.get(trace_id)

    def spans(self, trace_id: int) -> List[HopSpan]:
        """The trace decomposed into one span per hop (node visit)."""
        record = self.records.get(trace_id)
        if record is None:
            return []
        return spans_of(record)

    # -- export ------------------------------------------------------------

    def export_ndjson(self, path: str) -> int:
        """Write every record as NDJSON; returns the line count."""
        lines = 0
        with open(path, "w") as handle:
            for record in self.records.values():
                handle.write(json.dumps({
                    "type": "trace",
                    "trace_id": record.trace_id,
                    "source": record.source,
                    "started": record.started,
                    "status": record.status,
                    "drop_reason": record.drop_reason,
                }) + "\n")
                lines += 1
                for event in record.events:
                    payload = {
                        "type": "event",
                        "trace_id": record.trace_id,
                        "t": event.t,
                        "node": event.node,
                        "event": event.name,
                    }
                    if event.attrs:
                        payload["attrs"] = event.attrs
                    handle.write(json.dumps(payload) + "\n")
                    lines += 1
        return lines

    def export_chrome(self, path: str) -> int:
        """Write a Chrome ``trace_event`` JSON file; returns event count.

        Load it in ``about:tracing`` or https://ui.perfetto.dev — each
        trace is a process row, each hop a duration slice whose ``args``
        carry the phase timings, drops an instant event.
        """
        trace_events: List[Dict[str, Any]] = []
        t0 = min(
            (r.started for r in self.records.values()), default=0.0
        )
        for index, record in enumerate(self.records.values(), start=1):
            pid = index
            trace_events.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": (
                    f"trace {record.trace_id:#018x} from {record.source} "
                    f"[{record.status}]"
                )},
            })
            for tid, span in enumerate(spans_of(record), start=1):
                args: Dict[str, Any] = {}
                for event in span.events:
                    stamp = f"+{(event.t - span.start) * 1e6:.3f}us"
                    args[event.name] = (
                        {**event.attrs, "at": stamp} if event.attrs else stamp
                    )
                trace_events.append({
                    "name": span.node,
                    "cat": "hop",
                    "ph": "X",
                    "ts": (span.start - t0) * 1e6,
                    "dur": max((span.end - span.start) * 1e6, 0.001),
                    "pid": pid,
                    "tid": tid,
                    "args": args,
                })
            if record.status == "dropped":
                trace_events.append({
                    "name": f"drop:{record.drop_reason}",
                    "cat": "drop",
                    "ph": "i",
                    "s": "p",
                    "ts": (record.finished - t0) * 1e6,
                    "pid": pid,
                    "tid": 0,
                })
        with open(path, "w") as handle:
            json.dump(
                {"traceEvents": trace_events, "displayTimeUnit": "ms"},
                handle,
            )
        return len(trace_events)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Tracer 1/{self.sample_every} sampled={self.sampled} "
            f"records={len(self.records)}>"
        )


def spans_of(record: TraceRecord) -> List[HopSpan]:
    """Group a record's events into maximal same-node runs (hop spans)."""
    spans: List[HopSpan] = []
    for event in record.events:
        if spans and spans[-1].node == event.node:
            spans[-1].events.append(event)
            spans[-1].end = event.t
        else:
            spans.append(
                HopSpan(event.node, event.t, event.t, [event])
            )
    return spans


def tree_of(record: TraceRecord) -> Dict[str, Any]:
    """The trace's cross-layer node tree.

    Each node's parent is taken from the ``parent`` attr of its first
    event when one names another node in the trace (the cross-layer
    propagation protocol sets these: directory events are parented on
    the requesting host, cluster routing on the directory, shard
    replicas on the cluster).  Nodes without an explicit parent — hop
    spans of a forwarded packet — chain onto the previously seen node,
    which reproduces the source route's hop order.  Returns
    ``{"roots": [{"node", "start", "events", "children": [...]}, ...]}``.
    """
    first_seen: List[str] = []
    parents: Dict[str, str] = {}
    starts: Dict[str, float] = {}
    counts: Dict[str, int] = {}
    for event in record.events:
        node = event.node
        counts[node] = counts.get(node, 0) + 1
        if node in parents:
            continue
        explicit = str(event.attrs.get("parent", "")) if event.attrs else ""
        if explicit and explicit != node:
            parents[node] = explicit
        elif first_seen:
            parents[node] = first_seen[-1]
        else:
            parents[node] = ""
        starts[node] = event.t
        first_seen.append(node)
    known = set(first_seen)
    children: Dict[str, List[str]] = {node: [] for node in first_seen}
    roots: List[str] = []
    for node in first_seen:
        parent = parents[node]
        if parent in known and parent != node:
            children[parent].append(node)
        else:
            roots.append(node)

    def build(node: str, seen: frozenset) -> Dict[str, Any]:
        kids = [
            build(child, seen | {node})
            for child in children[node] if child not in seen
        ]
        return {
            "node": node,
            "start": starts[node],
            "events": counts[node],
            "children": kids,
        }

    return {
        "trace_id": record.trace_id,
        "status": record.status,
        "roots": [build(root, frozenset({root})) for root in roots],
    }
