"""The router-side token cache with optimistic authorization (§2.2).

"Because the token is an encrypted capability that may be difficult to
fully decrypt and check in real time before the packet is forwarded, the
router retains a cached version of the token such that it can check and
authorize packet forwarding in real time from the cached version."

Three policies for a token value seen for the first time:

* ``OPTIMISTIC`` — let the packet through now, verify in the background;
  "in the worst case, one or a small number of unauthorized packets can
  be allowed through without significant problems".
* ``BLOCKING`` — treat the packet as blocked while the token is checked,
  "just as the blocking normally allows some time for the port to
  become free".
* ``DROP`` — discard the packet (only sensible where blocked packets
  are dropped anyway).

The cache also implements the paper's defence against malicious floods
of distinct invalid tokens: after ``INVALID_SWITCH_THRESHOLD`` failed
verifications the cache switches itself to blocking authentication.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional, Tuple

from repro.tokens.accounting import AccountLedger
from repro.tokens.capability import (
    ClaimChecks,
    InvalidTokenError,
    TokenClaims,
    TokenMint,
    UNLIMITED,
)

#: Failed verifications after which an optimistic cache blocks instead
#: (the paper's footnote 7: a flood of distinct invalid tokens).
INVALID_SWITCH_THRESHOLD = 16


class CachePolicy(enum.Enum):
    """How to treat a packet whose token is not yet cached."""

    OPTIMISTIC = "optimistic"
    BLOCKING = "blocking"
    DROP = "drop"


class Verdict(enum.Enum):
    """Real-time admission decision for one packet."""

    FORWARD = "forward"       # authorized (or optimistically admitted)
    BLOCK = "block"           # hold until verification completes
    REJECT = "reject"         # token known-invalid or policy says drop


#: Stands in for the claims of a token that failed verification.
_NO_CLAIMS = TokenClaims(port=0, max_priority=0, account=0)


class TokenCacheEntry(ClaimChecks):
    """Cached verification result for one token value.

    The claims the slow check read are kept flat beside what has been
    charged under them: a token is one object, holding nothing the
    cyclic collector would follow, however many a router has seen.
    """

    __slots__ = (
        "valid", "packets", "bytes",
        "port", "max_priority", "account", "byte_limit", "reverse_ok",
        "expiry_ms",
    )

    def __init__(self, claims: Optional[TokenClaims], valid: bool) -> None:
        #: There are claims and nothing known against them (the slow
        #: check passed; the token has not been seen past its expiry).
        self.valid = valid and claims is not None
        self.packets = 0
        self.bytes = 0
        if claims is None:
            claims = _NO_CLAIMS
        self.port = claims.port
        self.max_priority = claims.max_priority
        self.account = claims.account
        self.byte_limit = claims.byte_limit
        self.reverse_ok = claims.reverse_ok
        self.expiry_ms = claims.expiry_ms

    def remaining_budget(self) -> Optional[int]:
        if not self.valid or self.byte_limit == UNLIMITED:
            return None
        return max(0, self.byte_limit - self.bytes)


class TokenCache:
    """Per-router token cache, keyed by the raw (sealed) token value."""

    def __init__(
        self,
        mint: TokenMint,
        policy: CachePolicy = CachePolicy.OPTIMISTIC,
        verify_cost: float = 200e-6,
        require_tokens: bool = False,
    ) -> None:
        self.mint = mint
        self.policy = policy
        self.verify_cost = verify_cost
        self.ledger = AccountLedger(mint.issuer)
        self.require_tokens = require_tokens
        self._entries: Dict[bytes, TokenCacheEntry] = {}
        self.invalid_seen = 0
        self.hits = 0
        self.misses = 0
        #: Invoked after :meth:`flush` — the dataplane flow cache hooks
        #: this to drop flow verdicts derived from the flushed entries.
        self.on_flush: Optional[callable] = None

    # -- admission (the fast path) -------------------------------------------

    def admit(
        self,
        token: bytes,
        port: int,
        priority: int,
        size: int,
        now_ms: int = 0,
        rpf: bool = False,
    ) -> Tuple[Verdict, float, Optional[TokenCacheEntry]]:
        """Real-time decision for one packet; returns ``(verdict,
        extra_delay, entry)``.

        ``extra_delay`` is the verification latency the packet itself
        must absorb — zero on a cache hit or under optimistic admission,
        ``verify_cost`` when the policy blocks on the slow check.
        ``entry`` is the cache entry the verdict was read from — found
        or just made; None for a packet without a token — so a caller
        installing a flow under it need not look the token up again.
        ``rpf`` marks a reverse-path packet: a reverse-authorized token
        ("the token can be used for the return route as well", §2.2)
        then authorizes the return port even though it names the forward
        one.
        """
        if not token:
            if self.require_tokens:
                return Verdict.REJECT, 0.0, None
            return Verdict.FORWARD, 0.0, None

        entry = self._entries.get(token)
        if entry is not None:
            self.hits += 1
            verdict = self._admit_cached(entry, port, priority, size, now_ms, rpf)
            return verdict, 0.0, entry

        self.misses += 1
        effective_policy = self.policy
        if (
            effective_policy is CachePolicy.OPTIMISTIC
            and self.invalid_seen >= INVALID_SWITCH_THRESHOLD
        ):
            # Under attack by many distinct invalid tokens: stop being
            # optimistic (paper's footnote 7).
            effective_policy = CachePolicy.BLOCKING

        # Every policy installs the entry from the slow check, so later
        # packets (a dropped source's retry too) are answered from cache.
        entry = self._verify_and_install(token, now_ms)
        if effective_policy is CachePolicy.OPTIMISTIC:
            # Admit now, whatever the check said.
            if entry.valid:
                self._account(entry, size, priority)
            return Verdict.FORWARD, 0.0, entry
        if effective_policy is CachePolicy.BLOCKING:
            verdict = self._admit_cached(entry, port, priority, size, now_ms, rpf)
            return verdict, self.verify_cost, entry
        return Verdict.REJECT, 0.0, entry

    def _admit_cached(
        self, entry: TokenCacheEntry, port: int, priority: int, size: int,
        now_ms: int, rpf: bool,
    ) -> Verdict:
        if entry.expired(now_ms):
            # The claims are cached, so reading their expiry needs no
            # re-verification.  The entry stays, as the slow check would
            # leave it now — invalid: deleting it would hand the token's
            # next packet to the optimistic policy.
            entry.valid = False
        if not self.authorizes(entry, port, priority, rpf):
            return Verdict.REJECT
        budget = entry.remaining_budget()
        if budget is not None and size > budget:
            return Verdict.REJECT
        self._account(entry, size, priority)
        return Verdict.FORWARD

    @staticmethod
    def authorizes(
        entry: TokenCacheEntry, port: int, priority: int, rpf: bool = False
    ) -> bool:
        """Whether the cached claims admit a packet for ``port`` at
        ``priority`` — all of admission but the clock and the byte
        budget, i.e. the part a flow's every packet shares."""
        if not entry.valid:
            return False
        if not entry.authorizes_port(port) and not (rpf and entry.reverse_ok):
            return False
        return entry.authorizes_priority(priority)

    def _account(self, entry: TokenCacheEntry, size: int, priority: int) -> None:
        """Charge one packet admitted under a valid ``entry``."""
        entry.packets += 1
        entry.bytes += size
        self.ledger.charge(entry.account, size, priority)

    def account_flow_hit(
        self, entry: TokenCacheEntry, size: int, priority: int
    ) -> bool:
        """Account one packet admitted via the dataplane flow cache.

        The flow cache memoizes the *verdict* but byte budgets and the
        accounting ledger are per-packet state that must keep flowing
        through the token cache.  Returns False when the entry's byte
        budget can no longer cover ``size`` (the caller must fall back
        to the slow path, which will REJECT); otherwise charges the
        ledger, counts the packet, and records a cache hit so the
        token-cache hit rate reflects flow-cache-served packets too.
        """
        if not entry.valid:
            return False
        budget = entry.remaining_budget()
        if budget is not None and size > budget:
            return False
        self.hits += 1
        self._account(entry, size, priority)
        return True

    # -- the slow path -----------------------------------------------------------

    def _verify_and_install(self, token: bytes, now_ms: int) -> TokenCacheEntry:
        try:
            claims = self.mint.verify(token, now_ms=now_ms)
            entry = TokenCacheEntry(claims, valid=True)
        except InvalidTokenError:
            self.invalid_seen += 1
            entry = TokenCacheEntry(None, valid=False)
        self._entries[token] = entry
        return entry

    # -- management ---------------------------------------------------------------

    def entry(self, token: bytes) -> Optional[TokenCacheEntry]:
        return self._entries.get(token)

    def flush(self) -> None:
        """Discard all cached entries (router restart — tokens are soft state)."""
        self._entries.clear()
        if self.on_flush is not None:
            self.on_flush()

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<TokenCache entries={len(self._entries)} policy={self.policy.value} "
            f"hit_rate={self.hit_rate():.2f}>"
        )
