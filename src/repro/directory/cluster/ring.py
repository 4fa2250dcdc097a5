"""Consistent hashing over hierarchical name prefixes.

§3's directory is one logical service; ROADMAP item 1 demands it be
*horizontal*.  The namespace is sharded on the name's **region prefix**
(``venus.cs.stanford.edu`` hashes as ``cs.stanford.edu``), so an entire
region's bindings co-locate on one shard — lookups that walk a region
(service instances, advisory fan-out) stay single-shard, which is the
hierarchical locality the paper's region servers already exploit.

The ring is classic consistent hashing: each shard owns ``vnodes``
points on a 64-bit circle (SHA-256 of ``"shard#replica-point"``), a key
is owned by the first shard point clockwise of its hash.  Adding or
removing a shard therefore moves only the keys in the arcs the change
touches — ~``K/n`` of them — and **every** moved key moves to/from the
changed shard, never between two bystanders.  The ring's property
tests assert exactly that.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Tuple

from repro.directory.names import HierarchicalName

#: Default virtual nodes per shard — enough to keep ownership within a
#: few percent of uniform at 32 shards without bloating lookups.
DEFAULT_VNODES = 64


def _point(text: str) -> int:
    """A stable 64-bit position on the hash circle."""
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def shard_key(name: str) -> str:
    """The sharding key for one hierarchical name: its region prefix.

    Root-level names (no region) shard on themselves.
    """
    parsed = HierarchicalName.parse(name)
    region = parsed.region()
    return str(region) if region is not None else str(parsed)


class RingError(ValueError):
    """An impossible ring operation (empty ring, duplicate shard …)."""


class ConsistentHashRing:
    """The shard-ownership circle, shared by cluster and clients.

    Deterministic: two rings built from the same shard ids (in any
    insertion order) answer :meth:`owner` identically, which is how a
    client computes ownership without asking anybody.
    """

    def __init__(self, vnodes: int = DEFAULT_VNODES) -> None:
        if vnodes < 1:
            raise RingError(f"vnodes must be >= 1, got {vnodes}")
        self.vnodes = vnodes
        self._points: List[int] = []        # sorted hash positions
        self._owners: Dict[int, str] = {}   # position -> shard id
        self._shards: Dict[str, Tuple[int, ...]] = {}  # shard -> points

    # -- membership --------------------------------------------------------

    def add(self, shard_id: str) -> None:
        if not shard_id:
            raise RingError("empty shard id")
        if shard_id in self._shards:
            raise RingError(f"shard {shard_id!r} already on the ring")
        points = []
        for replica_point in range(self.vnodes):
            position = _point(f"{shard_id}#{replica_point}")
            # SHA-256 collisions on 64 bits across a few thousand points
            # are effectively impossible; refuse loudly if one appears.
            if position in self._owners:
                raise RingError(
                    f"hash collision at {position} adding {shard_id!r}"
                )
            self._owners[position] = shard_id
            bisect.insort(self._points, position)
            points.append(position)
        self._shards[shard_id] = tuple(points)

    def shards(self) -> Tuple[str, ...]:
        return tuple(sorted(self._shards))

    # -- lookups -----------------------------------------------------------

    def owner_of_key(self, key: str) -> str:
        """The shard owning a raw sharding key."""
        if not self._points:
            raise RingError("ring has no shards")
        position = _point(key)
        index = bisect.bisect_right(self._points, position)
        if index == len(self._points):
            index = 0  # wrap: first point clockwise of the top
        return self._owners[self._points[index]]

    def owner(self, name: str) -> str:
        """The shard owning a hierarchical name (prefix-sharded)."""
        return self.owner_of_key(shard_key(name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ConsistentHashRing shards={len(self._shards)} "
            f"vnodes={self.vnodes}>"
        )
