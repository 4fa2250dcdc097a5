"""Deterministic discrete-event scheduler.

The :class:`Simulator` keeps a binary heap of ``[time, sequence, fn,
args]`` entries.  The sequence number makes simultaneous events fire in
the order they were scheduled, which keeps every run bit-for-bit
reproducible — a property the benchmarks rely on when they compare
Sirpent against the IP and CVC baselines on identical arrival sequences.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable, List, Optional

from repro.sim.ids import PacketIdAllocator


class SimulationError(Exception):
    """Raised for scheduling misuse (e.g. scheduling into the past)."""


class EventHandle(list):
    """A scheduled callback: the heap entry ``[time, seq, fn, args]``
    itself, handed back as the cancellable reference.  ``seq`` is
    unique, so ordering never compares ``fn``.

    Cancellation is lazy: ``cancel`` clears ``fn`` and the entry is
    discarded when popped — O(1), which matters because preemptive
    routers cancel packet-completion events frequently.  A cancelled or
    fired entry drops ``args``: a far-off timer does not pin its packet,
    and a transmission and its delivery events (each holds the other)
    are freed by reference count, not by the collector.

    Treat a handle as opaque: :meth:`cancel` is its API, the list
    mutators are not.  ``==`` stays ``list``'s (entries differ by
    ``seq``) — overriding it would route the heap's ``<`` through
    Python-level dispatch at twice the cost.
    """

    __slots__ = ()

    def cancel(self) -> None:
        """Mark the event so it is skipped when its time arrives."""
        self[2] = None
        self[3] = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self[2] is None else "pending"
        name = getattr(self[2], "__qualname__", repr(self[2]))
        return f"<EventHandle t={self[0]:.9f} {name} {state}>"


class Simulator:
    """A discrete-event simulator with deterministic event ordering.

    Typical use::

        sim = Simulator()
        sim.after(1.5, printer, "fires at t=1.5")
        sim.run(until=10.0)

    All model components hold a reference to the one simulator instance
    and schedule work through :meth:`at` / :meth:`after`.
    """

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: List[EventHandle] = []
        self._seq: int = 0
        self.events_executed: int = 0
        #: Seed-stable id source for every packet this engine creates
        #: (hosts, router clones, baselines) — ids are a function of
        #: this run's traffic alone, not of import/test order.
        self.packet_ids = PacketIdAllocator()

    def new_packet_id(self) -> int:
        """Allocate the next reproducible packet id for this engine."""
        return self.packet_ids.allocate()

    # -- scheduling ------------------------------------------------------

    def at(  # sirlint: hot
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulation ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        entry = EventHandle((time, seq, fn, args))
        heappush(self._heap, entry)
        return entry

    def after(  # sirlint: hot
        self, delay: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Schedule ``fn(*args)`` ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay}")
        self._seq = seq = self._seq + 1
        entry = EventHandle((self.now + delay, seq, fn, args))
        heappush(self._heap, entry)
        return entry

    def reserve(  # sirlint: hot
        self, time: float, fn: Callable[..., Any], *args: Any
    ) -> EventHandle:
        """Number ``fn(*args)`` at ``time`` as :meth:`at` would, without
        scheduling it: :meth:`push` it before any event that sorts after
        it fires and it fires where :meth:`at` would have put it (events
        sort on ``(time, seq)``); cancel it, or never push it,
        and it never fires.  For an event that an earlier one may make
        moot (a frame's completion, which its receiver may take at the
        header)."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time} before now={self.now}"
            )
        self._seq = seq = self._seq + 1
        return EventHandle((time, seq, fn, args))

    def push(self, entry: EventHandle) -> None:  # sirlint: hot
        """Schedule an event :meth:`reserve` numbered."""
        if entry[0] < self.now:
            raise SimulationError(
                f"cannot schedule at t={entry[0]} before now={self.now}"
            )
        heappush(self._heap, entry)

    # -- execution -------------------------------------------------------

    def run(self, until: Optional[float] = None) -> None:  # sirlint: hot
        """Run until the event heap drains or ``until`` is reached.

        When ``until`` is given the clock is advanced to exactly ``until``
        even if the last event fired earlier, so post-run measurements
        (utilization, time-weighted means) cover the full interval.
        """
        heap = self._heap
        horizon = float("inf") if until is None else until
        # Counted in a local, written back when the loop ends: an event
        # reads a count as of the run's start.
        executed = self.events_executed
        try:
            while heap:
                entry = heappop(heap)
                time, _seq, fn, args = entry
                if fn is None:
                    continue
                if time > horizon:
                    heappush(heap, entry)  # same (time, seq): same place
                    break
                self.now = time
                executed += 1
                entry[3] = ()
                fn(*args)
        finally:
            self.events_executed = executed
        if until is not None and self.now < until:
            self.now = until

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator now={self.now:.9f} pending={len(self._heap)}>"
