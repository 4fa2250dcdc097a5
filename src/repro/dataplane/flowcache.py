"""Per-port flow cache: the paper's §2.2 soft state, made concrete.

"Routers cache tokens and flow information as *soft state*" — the
first packet of a flow pays the full per-hop decision (token HMAC
verification, logical-port resolution, portInfo decode); every repeat
packet of the same flow should be a single lookup.  This module
memoizes exactly that:

    (arrival port, leading segment's wire bytes)
        -> the decision to repeat + the token entry it keeps charging

The key is the *encoding*, not a choice of parsed fields: every bit of
the leading segment the decision could read — port, flags nibble,
priority, token, portInfo — is in it by construction, so no field can be
left out of it, and a repeat packet is recognised without being parsed.
What the decision reads from *outside* those bytes is listed, with its
handling, in :class:`~repro.dataplane.pipeline.HopInput`.

Packets of a flow arrive back to back (a §4 packet group), so the cache
remembers, per arrival port, the entry that port answered with last and
tries it first: one compare against the arriving bytes — no copy, no
hash.  Remembering it per port is what lets one transaction at a time
keep the shortcut: its request and its reply cross a router in turn,
on two arrival ports.  The router core makes that compare on the frame,
before walking it, and hands the entry's own ``lead`` on: the compare
here is then one of identity.  An answer from that memo moves in the
LRU order exactly as a dict hit does — not at all when it already is
the most recent entry, to the end otherwise.

Being soft state, entries evaporate:

* **TTL** — every entry dies ``ttl_ms`` after installation;
* **token expiry** — an entry carrying an expiring token dies no later
  than the token does;
* **LRU** — the cache holds at most ``capacity`` entries;
* **invalidation** — topology changes (`attach`/`connect_port`),
  logical-map changes and congestion rebinds flush affected entries,
  because the cached physical port may no longer be the right answer.

Per-packet *load-adaptive* choices are deliberately NOT cached:
least-loaded / round-robin / random trunk selection is the paper's
late binding ("routed to whichever of the channels was free") and
freezing it per flow would defeat it — the pipeline only installs
entries for deterministic resolutions (plain ports, flow-hash trunks,
transit splices).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.dataplane.effects import Decision


@dataclass(slots=True)
class FlowEntry:
    """One memoized per-hop decision."""

    #: What the entry answers to: the arrival port and the leading
    #: segment's encoding (immutable bytes — never a view of a packet
    #: buffer; the first packet's parse and this key share one copy).
    in_port: int
    lead: bytes
    #: The port and token that encoding names, for invalidation.
    port: int
    token: bytes
    #: The flow's decision, built by its first packet and handed to
    #: every packet the entry answers that leaves whole and with the
    #: memoized return hop.
    decision: Decision
    #: The token cache's entry backing this flow (None for tokenless
    #: flows) — byte-budget accounting still flows through it.
    token_entry: Optional[Any]
    #: Post-hop wire-size change of the strip/reverse/append move
    #: (splice tail + trailer element − stripped segment), so the warm
    #: truncation check is one add + compare.
    post_size_delta: int
    #: Absolute expiry in the driver's now_ms clock (TTL and/or token
    #: expiry, whichever is sooner); 0 = no expiry.
    expires_at_ms: int = 0
    hits: int = 0


@dataclass
class FlowCacheStats:
    """Counters the flow-cache benchmark and tests consume."""

    hits: int = 0
    misses: int = 0
    installs: int = 0
    evictions: int = 0
    expirations: int = 0
    invalidations: int = 0

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass
class FlowCache:
    """TTL + LRU map from (arrival port, leading bytes) to :class:`FlowEntry`."""

    capacity: int = 1024
    ttl_ms: int = 10_000
    enabled: bool = True
    stats: FlowCacheStats = field(default_factory=FlowCacheStats)

    def __post_init__(self) -> None:
        self._entries: "OrderedDict[Tuple[int, bytes], FlowEntry]" = OrderedDict()
        #: Arrival port -> the entry answered with (or installed) last
        #: for a frame from that port, while it is still in
        #: ``_entries``.  Read-only outside the cache (the router core
        #: finds a frame's leading segment by comparing the frame with
        #: its port's entry's ``lead``).
        self.last: Dict[int, FlowEntry] = {}
        #: The most recently used entry, when known: a memo answer that
        #: is this entry needs no LRU move.
        self._newest: Optional[FlowEntry] = None

    # -- the fast path -----------------------------------------------------

    def lookup(self, in_port: int, lead, now_ms: int) -> Optional[FlowEntry]:  # sirlint: hot
        """The live entry for a packet that arrived on ``in_port`` with
        leading-segment bytes ``lead`` (any bytes-like, exactly the
        segment), expiring it if stale."""
        last = self.last
        entry = last[in_port] if in_port in last else None
        if entry is None or lead != entry.lead:
            if not self.enabled:
                return None
            key = (in_port, bytes(lead))  # sirlint: disable=SIR008 -- a dict needs a hashable key: a copy when ``lead`` is a view of a frame (the simulator's), none when it is bytes
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return None
            self._entries.move_to_end(key)
            last[in_port] = self._newest = entry
        elif entry is not self._newest:
            self._entries.move_to_end((in_port, entry.lead))
            self._newest = entry
        if entry.expires_at_ms and now_ms > entry.expires_at_ms:
            self._drop((entry,))
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        entry.hits += 1
        self.stats.hits += 1
        return entry

    def install(self, entry: FlowEntry, now_ms: int) -> None:
        """Memoize a decision; evicts LRU entries past capacity."""
        if not self.enabled:
            return
        if self.ttl_ms:
            ttl_expiry = now_ms + self.ttl_ms
            entry.expires_at_ms = (
                min(entry.expires_at_ms, ttl_expiry)
                if entry.expires_at_ms else ttl_expiry
            )
        entries = self._entries
        key = (entry.in_port, entry.lead)
        if key in entries:
            del entries[key]
        entries[key] = entry
        self.stats.installs += 1
        if len(entries) > self.capacity:
            last = self.last
            while len(entries) > self.capacity:
                _, old = entries.popitem(last=False)
                if last.get(old.in_port) is old:
                    del last[old.in_port]
                self.stats.evictions += 1
            if key not in entries:
                return
        self.last[entry.in_port] = self._newest = entry

    # -- invalidation ------------------------------------------------------

    def _drop(self, stale) -> int:
        """Forget the ``stale`` entries — and the memo of each, which
        must never outlive the entry it points at."""
        last = self.last
        for entry in stale:
            del self._entries[(entry.in_port, entry.lead)]
            if last.get(entry.in_port) is entry:
                del last[entry.in_port]
        self._newest = None
        return len(stale)

    def flush(self) -> int:
        """Drop everything (topology change, congestion rebind, restart)."""
        n = len(self._entries)
        self._entries.clear()
        self.last.clear()
        self._newest = None
        self.stats.invalidations += n
        return n

    def invalidate_port(self, port_id: int) -> int:
        """Drop entries that name ``port_id`` as ingress, egress or key."""
        dropped = self._drop([
            entry for entry in self._entries.values()
            if entry.in_port == port_id or entry.port == port_id
            or entry.decision.out_port == port_id
        ])
        self.stats.invalidations += dropped
        return dropped

    def invalidate_token(self, token: bytes) -> int:
        """Drop entries admitted under ``token`` (revocation/expiry)."""
        dropped = self._drop([
            entry for entry in self._entries.values() if entry.token == token
        ])
        self.stats.invalidations += dropped
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowCache {len(self._entries)}/{self.capacity} "
            f"hit_rate={self.stats.hit_rate():.2f}>"
        )
