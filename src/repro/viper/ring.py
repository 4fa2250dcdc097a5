"""Preallocated buffer ring: the fastpath's answer to per-packet bytes.

The zero-allocation hot loop (ROADMAP item 2) touches a datagram as a
:class:`~repro.viper.wire.PacketView` over a **slot** of this ring: the
receive syscall fills the slot in place (``recvmsg_into``), the router
strips/reverses/appends by moving offsets and writing into the slot's
head- and tail-room, and the send syscall reads straight out of it.  No
``bytes`` object for the datagram is ever constructed on the warm path.

Ownership is explicit and single-holder:

* ``acquire`` hands out a free slot; the caller (and whoever it hands
  the slot to — a batch consumer, a send that frees it after its syscall)
  must ``release`` it exactly once.
* ``release`` bumps the slot's **generation** counter.  A
  :class:`~repro.viper.wire.PacketView` snapshots the generation at
  creation, so a view that outlives its slot is detectable (the
  generations differ; ``tests/live/oracle.py::alive`` reads them)
  instead of silently reading recycled bytes — the invariant the
  ring-recycling test pins.
* When the ring is exhausted, ``acquire`` falls back to a fresh
  unpooled slot (counted in :attr:`RingStats.exhaustions`) so the
  caller's code path stays uniform; releasing an unpooled slot simply
  lets it go to the garbage collector.

The module is pure (sirlint SIR001): no sockets, no clocks — it only
owns memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

#: Default slot count per ring.
DEFAULT_SLOTS = 128

#: Default slot size: VIPER's 1500-byte MTU plus overlay preamble and
#: generous trailer growth head/tail-room, rounded to a page.
DEFAULT_SLOT_BYTES = 4096


@dataclass
class RingStats:
    """Counters the benchmarks and the recycling test consume."""

    acquires: int = 0
    releases: int = 0
    #: Acquires served by a fresh unpooled allocation (ring was empty).
    exhaustions: int = 0


class RingSlot:
    """One reusable packet buffer.

    ``buffer`` is the mutable backing store, ``view`` a memoryview over
    all of it (created once, so per-packet slicing never re-exports the
    buffer).  ``generation`` increments on every release; ``pooled`` is
    False for overflow slots that bypass the free list.
    """

    __slots__ = ("buffer", "view", "index", "generation", "free", "pooled",
                 "ring")

    def __init__(self, ring: "BufferRing", index: int, size: int,
                 pooled: bool = True) -> None:
        self.ring = ring
        self.index = index
        self.buffer = bytearray(size)
        self.view = memoryview(self.buffer)
        self.generation = 0
        self.free = True
        self.pooled = pooled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "free" if self.free else "held"
        return (
            f"<RingSlot #{self.index} {len(self.buffer)}B "
            f"gen={self.generation} {state}>"
        )


class BufferRing:
    """A fixed pool of :class:`RingSlot` buffers with LIFO reuse.

    LIFO (a stack of free slots) keeps the most recently touched
    buffer — the one still warm in cache — the next to be reused.
    """

    __slots__ = ("slot_bytes", "stats", "_free", "_slots")

    def __init__(
        self,
        slots: int = DEFAULT_SLOTS,
        slot_bytes: int = DEFAULT_SLOT_BYTES,
    ) -> None:
        if slots <= 0:
            raise ValueError(f"ring needs at least one slot, got {slots}")
        if slot_bytes <= 0:
            raise ValueError(f"slot size must be positive, got {slot_bytes}")
        self.slot_bytes = slot_bytes
        self.stats = RingStats()
        self._slots: List[RingSlot] = [
            RingSlot(self, i, slot_bytes) for i in range(slots)
        ]
        self._free: List[RingSlot] = list(self._slots)

    def acquire(self) -> RingSlot:
        """Take a slot; never returns None — overflows allocate fresh.

        The overflow slot keeps the caller's code path uniform (same
        view/offset discipline) at the cost of one allocation, which is
        what the ring exists to avoid — :attr:`RingStats.exhaustions`
        counts how often sizing was wrong.
        """
        self.stats.acquires += 1
        if self._free:
            slot = self._free.pop()
            slot.free = False
            return slot
        self.stats.exhaustions += 1
        slot = RingSlot(self, -1, self.slot_bytes, pooled=False)
        slot.free = False
        return slot

    def release(self, slot: RingSlot) -> None:
        """Return a slot; invalidates every view created over it."""
        if slot.free:
            raise ValueError(f"double release of {slot!r}")
        slot.generation += 1
        slot.free = True
        self.stats.releases += 1
        if slot.pooled:
            self._free.append(slot)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<BufferRing {len(self._free)}/{len(self._slots)} free, "
            f"{self.slot_bytes}B slots>"
        )
