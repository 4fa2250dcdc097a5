"""Deterministic packet-id allocation.

The seed repo drew packet ids from module-global ``itertools.count``
instances (one in ``viper.packet``, one per baseline), so an id depended
on how many packets *any* previously-imported test or engine had built —
run the suite in a different order and every id moved.  Ids now come
from a :class:`PacketIdAllocator` owned by the engine that creates the
packet (one per :class:`~repro.sim.engine.Simulator`, one per live
host), so a run's ids are a pure function of that run's own traffic.
The baselines' bare packet construction (unit tests) still draws from
a module-global default allocator — those ids only need to be unique
within a process, not reproducible.
"""

from __future__ import annotations


class PacketIdAllocator:
    """A monotonically increasing id source, one per engine/overlay."""

    __slots__ = ("_next",)

    def __init__(self, start: int = 1) -> None:
        if start < 1:
            raise ValueError("packet ids start at 1 (0 means 'unset')")
        self._next = start

    def allocate(self) -> int:
        """Return the next id (1, 2, 3, ... in allocation order)."""
        pid = self._next
        self._next += 1
        return pid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<PacketIdAllocator next={self._next}>"
