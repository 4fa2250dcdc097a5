"""The flight recorder: an always-on, bounded ring of structured events.

Sirpent's §2.2 soft-state model makes the interesting failures
*transient*: a rebind storm, a failover promotion or a retry burst has
usually evaporated by the time a chaos invariant trips, taking the
state that explains it along.  The :class:`FlightRecorder` is the
forensic answer — a bounded ``deque`` of :class:`RecorderEvent` objects
that every instrumented component (live routers and hosts, the live
directory server, the cluster replicas, the chaos seam) appends to as
things happen, and that can be dumped as NDJSON covering the last N
seconds when something goes wrong.

**Call-site contract.**  Mirroring the tracer's discipline
(:mod:`repro.obs.trace`), instrumented code holds a ``recorder``
attribute that is ``None`` until a :class:`FlightRecorder` is
installed, and every hot-path touch is guarded::

    if self.recorder is not None:
        self.recorder.record("link_down", node=self.name, port=3)

so a component with no recorder installed pays one attribute load plus
one identity test per event site (``bench_o01`` prices this at well
under 1% of the per-packet budget).  Event **names are static
snake_case strings** — sirlint's SIR007 enforces both the naming
convention and that events are only emitted through this API.

**Causal order** is append order: one recorder is shared by every
component of a deployment (the overlay installs one on all its nodes),
so the ring's sequence numbers are a single total order consistent
with causality inside the process.  Timestamps come from the
recorder's own ``clock`` (``time.monotonic()`` live, virtual seconds in
the soaks); the one caller that passes ``t`` is the chaos fault
injector (:mod:`repro.chaos.seam`), which stamps a fault at its plan
time on that same time base.  Timestamps ride along for window
filtering and human reading; they never reorder events.

**Dumps** (:meth:`FlightRecorder.dump_ndjson`) happen on invariant
violation (:meth:`repro.chaos.invariants.InvariantChecker.assert_ok`
attaches one), on crash/soak teardown (the soak harnesses store one in
their :class:`~repro.chaos.invariants.SoakReport`), or on explicit
trigger (the obs HTTP server's ``GET /dump``).  :func:`load_dump`
parses a dump back; :func:`fault_timeline` reduces one to the
onset → detection → promotion → recovery story a post-mortem needs.
"""

from __future__ import annotations

import json
import time
from collections import deque
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Default ring capacity (events), bounding memory under long runs.
DEFAULT_CAPACITY = 8192

#: Default dump window (seconds of history a dump covers).
DEFAULT_WINDOW_S = 30.0

#: Event names marking the start of an injected fault (timeline onset).
ONSET_EVENTS = frozenset({"fault_applied"})

#: Event names marking failure *detection* by the membership machinery.
DETECTION_EVENTS = frozenset({"shard_leader_killed", "leader_killed"})

#: Event names marking a failover promotion.
PROMOTION_EVENTS = frozenset({"shard_promoted", "leader_promoted"})

#: Event names marking recovery (a crashed entity back in service).
RECOVERY_EVENTS = frozenset({
    "shard_replica_restarted", "replica_restarted", "router_restarted",
})


class RecorderEvent:
    """One structured happening: sequence number, time, node, name, fields."""

    __slots__ = ("seq", "t", "node", "name", "fields")

    def __init__(
        self, seq: int, t: float, node: str, name: str,
        fields: Dict[str, Any],
    ) -> None:
        self.seq = seq
        self.t = t
        self.node = node
        self.name = name
        self.fields = fields

    def to_json(self) -> Dict[str, Any]:
        """JSON-ready dict (``fields`` flattened in, reserved keys win)."""
        out: Dict[str, Any] = dict(self.fields)
        out.update({
            "type": "event", "seq": self.seq, "t": round(self.t, 9),
            "node": self.node, "event": self.name,
        })
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RecorderEvent #{self.seq} {self.node}:{self.name}@{self.t:.6f}>"


class FlightRecorder:
    """A bounded, always-on ring of structured events with NDJSON dumps.

    ``capacity`` bounds the ring (oldest events evicted); ``window_s``
    is the default dump window; ``clock`` stamps every event but the
    fault injector's (``time.monotonic`` live, a soak's virtual clock in
    deterministic runs).

    The ring keeps faults and units of work (drops, ``slick_reroute``,
    link down/up, router restarts, transport retries and route switches,
    ``command_served``, ``rebind_pardon``, ``fault_applied``), never a
    frame forwarded or delivered cleanly: counters count those and the
    sampled tracer follows them.  A clean live transaction takes no
    slot; at 2 % loss and full load (``live_lossy``, about 480 events a
    second) the default 8,192 events cover about 17 s.
    """

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        window_s: float = DEFAULT_WINDOW_S,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self.window_s = window_s
        self.clock = clock
        self._ring: "deque[RecorderEvent]" = deque(maxlen=capacity)
        self._seq = 0
        #: Total events ever recorded (evictions included).
        self.recorded = 0
        #: Dumps taken (forensic bookkeeping).
        self.dumps = 0

    # -- recording ---------------------------------------------------------

    def record(self, name: str, node: str = "", t: Optional[float] = None,
               **fields: Any) -> None:
        """Append one event to the ring.

        ``name`` must be a static snake_case string (SIR007); ``t``
        defaults to this recorder's clock (only the fault injector
        passes one: a fault's plan time).  Append order is the causal
        order of the dump.
        """
        self._seq += 1
        self.recorded += 1
        self._ring.append(RecorderEvent(
            self._seq, self.clock() if t is None else t, node, name, fields,
        ))

    # -- querying ----------------------------------------------------------

    def events(self, last_s: Optional[float] = None,
               now: Optional[float] = None) -> List[RecorderEvent]:
        """Ring contents in causal (append) order, optionally windowed.

        ``last_s`` keeps only events with ``t >= now - last_s``; ``now``
        defaults to the recorder's clock.
        """
        out = list(self._ring)
        if last_s is None:
            return out
        horizon = (self.clock() if now is None else now) - last_s
        return [e for e in out if e.t >= horizon]

    # -- dumping -----------------------------------------------------------

    def dump_ndjson(self, path: Optional[str] = None,
                    last_s: Optional[float] = None,
                    now: Optional[float] = None,
                    reason: str = "") -> str:
        """The last ``last_s`` seconds (default: the dump window) as
        NDJSON — one canonical header line plus one line per event, in
        causal order.  Writes to ``path`` when given; returns the text
        either way."""
        window = self.window_s if last_s is None else last_s
        events = self.events(last_s=window, now=now)
        header = {
            "type": "flight_dump",
            "reason": reason,
            "window_s": window,
            "events": len(events),
            "recorded_total": self.recorded,
        }
        lines = [_canonical(header)]
        lines.extend(_canonical(e.to_json()) for e in events)
        text = "\n".join(lines) + "\n"
        if path is not None:
            with open(path, "w") as handle:
                handle.write(text)
        self.dumps += 1
        return text

    # -- installation ------------------------------------------------------

    def install(self, *components: Any) -> "FlightRecorder":
        """Attach this recorder to components (the tracer's pattern).

        Anything exposing ``set_recorder`` gets the call; anything with
        a plain ``recorder`` attribute gets it assigned.  Returns self.
        """
        for component in components:
            setter = getattr(component, "set_recorder", None)
            if setter is not None:
                setter(self)
            elif hasattr(component, "recorder"):
                component.recorder = self
        return self

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlightRecorder {len(self._ring)}/{self.capacity} "
            f"recorded={self.recorded}>"
        )


def _canonical(obj: Dict[str, Any]) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


# -- dump forensics -----------------------------------------------------------


def load_dump(text: str) -> Tuple[Dict[str, Any], List[Dict[str, Any]]]:
    """Parse a :meth:`FlightRecorder.dump_ndjson` text back.

    Returns ``(header, events)`` with events in causal order; raises
    :class:`ValueError` on anything that is not a flight dump.
    """
    header: Optional[Dict[str, Any]] = None
    events: List[Dict[str, Any]] = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        obj = json.loads(line)
        kind = obj.get("type")
        if kind == "flight_dump":
            if header is not None:
                raise ValueError("dump has two header lines")
            header = obj
        elif kind == "event":
            events.append(obj)
        else:
            raise ValueError(f"unexpected line type {kind!r} in dump")
    if header is None:
        raise ValueError("not a flight dump (no header line)")
    events.sort(key=lambda e: e.get("seq", 0))
    return header, events


def fault_timeline(events: List[Dict[str, Any]]) -> Dict[str, List[Dict[str, Any]]]:
    """Reduce dump events to the post-mortem's four phases.

    Returns ``{"onset": [...], "detection": [...], "promotion": [...],
    "recovery": [...]}`` — each a causally-ordered sub-list of the
    input.  ``fault_applied`` STOP actions count as recovery for entity
    faults that restart on STOP (router crashes), matching the chaos
    plan's start/stop semantics.
    """
    timeline: Dict[str, List[Dict[str, Any]]] = {
        "onset": [], "detection": [], "promotion": [], "recovery": [],
    }
    for event in events:
        name = event.get("event", "")
        if name in ONSET_EVENTS:
            if event.get("action") == "stop":
                timeline["recovery"].append(event)
            else:
                timeline["onset"].append(event)
        elif name in DETECTION_EVENTS:
            timeline["detection"].append(event)
        elif name in PROMOTION_EVENTS:
            timeline["promotion"].append(event)
        elif name in RECOVERY_EVENTS:
            timeline["recovery"].append(event)
    return timeline
