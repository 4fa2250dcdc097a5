"""Per-account usage ledgers.

§2.2: "Cache entries are also used to maintain accounting information
such as packet or byte counts to be charged to the account designated by
the token."  The ledger is where routers (or their administrative
domain) settle those counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class UsageRecord:
    """Accumulated usage for one account at one router."""

    packets: int = 0
    bytes: int = 0
    by_priority: Dict[int, int] = field(default_factory=dict)

    def charge(self, size: int, priority: int) -> None:
        self.packets += 1
        self.bytes += size
        self.by_priority[priority] = self.by_priority.get(priority, 0) + 1


class AccountLedger:
    """All accounts charged at one router.

    The books are two columns of integers — bytes per account, packets
    per (account, priority) — so an account seen for the first time adds
    dict slots and no object of its own: a router charging a million
    accounts keeps nothing for the cyclic collector to visit.
    :meth:`usage` and :attr:`records` hand out :class:`UsageRecord`
    *views*, built when asked.  Two callers write the columns:
    :meth:`charge`, and the token cache's warm-packet charge
    (:meth:`repro.tokens.cache.TokenCache.account_flow_hit`), which
    makes the same two updates inline.

    Pricing is deliberately simple: a per-byte price with a per-priority
    multiplier, matching the paper's observation that "use of high
    priorities may be limited by simply charging more for higher
    priority packets".
    """

    #: Multipliers over the base per-byte price for wire priorities 0..15.
    DEFAULT_PRICE_MULTIPLIERS: Tuple[float, ...] = (
        1.0, 1.2, 1.4, 1.7, 2.0, 2.5, 4.0, 8.0,   # 0..7 (preemptive costly)
        0.9, 0.8, 0.7, 0.6, 0.5, 0.4, 0.3, 0.2,   # 8..15 (background cheap)
    )

    def __init__(self, router: str = "", price_per_byte: float = 1e-9) -> None:
        self.router = router
        self.price_per_byte = price_per_byte
        self._bytes: Dict[int, int] = {}
        #: ``account << 4 | priority`` (a 4-bit wire priority) -> packets.
        self._packets: Dict[int, int] = {}

    def charge(self, account: int, size: int, priority: int) -> None:
        charged = self._bytes
        charged[account] = charged.get(account, 0) + size
        packets = self._packets
        key = account << 4 | priority
        packets[key] = packets.get(key, 0) + 1

    def usage(self, account: int) -> UsageRecord:
        base = account << 4
        packets = self._packets
        by_priority = {
            key - base: packets[key]
            for key in range(base, base + 16) if key in packets
        }
        return UsageRecord(
            packets=sum(by_priority.values()),
            bytes=self._bytes.get(account, 0),
            by_priority=by_priority,
        )

    @property
    def records(self) -> Dict[int, UsageRecord]:
        """Every charged account's usage, as views."""
        return {account: self.usage(account) for account in self._bytes}

    def bill(self, account: int) -> float:
        """Monetary charge for an account under the default price table."""
        record = self.usage(account)
        total_packets = max(record.packets, 1)
        mean_size = record.bytes / total_packets
        cost = 0.0
        for priority, packets in record.by_priority.items():
            multiplier = self.DEFAULT_PRICE_MULTIPLIERS[priority]
            cost += packets * mean_size * self.price_per_byte * multiplier
        return cost

    def accounts(self) -> List[int]:
        return sorted(self._bytes)

    def total_bytes(self) -> int:
        return sum(self._bytes.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AccountLedger {self.router!r} accounts={len(self._bytes)}>"
