"""Per-port flow cache: the paper's §2.2 soft state, made concrete.

"Routers cache tokens and flow information as *soft state*" — the
first packet of a flow pays the full per-hop decision (token HMAC
verification, logical-port resolution, portInfo decode); every repeat
packet of the same flow should be a single dictionary hit.  This module
memoizes exactly that:

    (token, in-port, segment port, priority, rpf, portInfo, slick)
        -> admitted verdict + resolved physical port + dst MAC
           + transit splice tail + reverse-authorized token

The key covers every field of the leading segment the decision reads.
The portInfo bytes are part of it because the destination MAC (and the
trunk flow hint) ride in them — two "flows" that differ only in
portInfo are different flows on an Ethernet egress.  The slick flag is
part of it because only a slick packet may take (and memoize) a local
reroute: a packet without the flag must never be handed one from the
cache.  It comes last, so ``invalidate_port`` / ``invalidate_token``
keep their key positions.

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
from typing import Any, List, Optional, Tuple

from repro.viper.wire import HeaderSegment

#: Lookup key of one flow (see module docstring).
FlowKey = Tuple[bytes, int, int, int, bool, bytes, bool]


def flow_key(  # sirlint: hot
    token: bytes, in_port: int, port: int, priority: int,
    rpf: bool, portinfo: bytes, slick: bool,
) -> FlowKey:
    """Build the cache key for one hop's leading segment."""
    return (token, in_port, port, priority, rpf, portinfo, slick)


@dataclass
class FlowEntry:
    """One memoized per-hop decision."""

    out_port: int
    dst_mac: Optional[Any]
    #: Transit expansion (already resolved): ``splice[0]`` is the hop
    #: being taken now, ``splice[1:]`` get inserted after the strip.
    splice: Optional[List[HeaderSegment]]
    #: Extra post-strip header bytes the splice tail adds (for the
    #: sans-IO truncation computation).
    splice_extra_bytes: int
    #: Token to stamp on the return segment (b"" unless reverse_ok).
    return_token: bytes
    #: The token cache's entry backing this flow (None for tokenless
    #: flows) — byte-budget accounting still flows through it.
    token_entry: Optional[Any]
    #: Absolute expiry in the driver's now_ms clock (TTL and/or token
    #: expiry, whichever is sooner); 0 = no expiry.
    expires_at_ms: int = 0
    hits: int = 0
    #: Memoized return hop: every field the return segment reads —
    #: arrival port, priority, reverse token, portInfo — is pinned by
    #: the flow key, so repeat packets reuse the object instead of
    #: re-constructing it (segments are immutable by convention; the
    #: receiver's ``build_return_route`` copies).
    return_segment: Optional[HeaderSegment] = None
    #: The return hop's *wire span* (encoded segment ++ 2-byte
    #: back-length), encoded once at install — the warm path hands it
    #: to the driver (``Decision.return_tail``) for a zero-encode
    #: in-place append.
    return_tail: Optional[bytes] = None
    #: Post-hop wire-size change of the strip/reverse/append move
    #: (splice tail + trailer element − stripped segment), so the warm
    #: truncation check is one add + compare.
    post_size_delta: int = 0
    #: True when this entry memoizes a Slick-Packets local reroute
    #: (ARCHITECTURE §16): ``splice`` is the *entire* replacement route
    #: and the driver discards every alternate block instead of doing
    #: the normal strip.
    slick_reroute: bool = False


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
    """TTL + LRU map from :func:`flow_key` to :class:`FlowEntry`."""

    capacity: int = 1024
    ttl_ms: int = 10_000
    enabled: bool = True
    stats: FlowCacheStats = field(default_factory=FlowCacheStats)

    def __post_init__(self) -> None:
        self._entries: "OrderedDict[FlowKey, FlowEntry]" = OrderedDict()

    def __len__(self) -> int:
        return len(self._entries)

    # -- the fast path -----------------------------------------------------

    def lookup(self, key: FlowKey, now_ms: int) -> Optional[FlowEntry]:  # sirlint: hot
        """Return the live entry for ``key``, expiring it if stale."""
        if not self.enabled:
            return None
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.expires_at_ms and now_ms > entry.expires_at_ms:
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)
        entry.hits += 1
        self.stats.hits += 1
        return entry

    def install(self, key: FlowKey, entry: FlowEntry, now_ms: int) -> None:
        """Memoize a decision; evicts LRU entries past capacity."""
        if not self.enabled:
            return
        if self.ttl_ms:
            ttl_expiry = now_ms + self.ttl_ms
            entry.expires_at_ms = (
                min(entry.expires_at_ms, ttl_expiry)
                if entry.expires_at_ms else ttl_expiry
            )
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self.stats.installs += 1
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    # -- invalidation ------------------------------------------------------

    def flush(self) -> int:
        """Drop everything (topology change, congestion rebind, restart)."""
        n = len(self._entries)
        self._entries.clear()
        self.stats.invalidations += n
        return n

    def invalidate_port(self, port_id: int) -> int:
        """Drop entries that name ``port_id`` as ingress, egress or key."""
        stale = [
            key for key, entry in self._entries.items()
            if key[1] == port_id or key[2] == port_id
            or entry.out_port == port_id
        ]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def invalidate_token(self, token: bytes) -> int:
        """Drop entries admitted under ``token`` (revocation/expiry)."""
        stale = [key for key in self._entries if key[0] == token]
        for key in stale:
            del self._entries[key]
        self.stats.invalidations += len(stale)
        return len(stale)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FlowCache {len(self._entries)}/{self.capacity} "
            f"hit_rate={self.stats.hit_rate():.2f}>"
        )
