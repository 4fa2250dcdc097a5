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
        self.records: Dict[int, UsageRecord] = {}

    def charge(self, account: int, size: int, priority: int) -> None:
        record = self.records.get(account)
        if record is None:
            record = UsageRecord()
            self.records[account] = record
        record.charge(size, priority)

    def usage(self, account: int) -> UsageRecord:
        return self.records.get(account, UsageRecord())

    def bill(self, account: int) -> float:
        """Monetary charge for an account under the default price table."""
        record = self.records.get(account)
        if record is None:
            return 0.0
        total_packets = max(record.packets, 1)
        mean_size = record.bytes / total_packets
        cost = 0.0
        for priority, packets in record.by_priority.items():
            multiplier = self.DEFAULT_PRICE_MULTIPLIERS[priority & 0xF]
            cost += packets * mean_size * self.price_per_byte * multiplier
        return cost

    def accounts(self) -> List[int]:
        return sorted(self.records)

    def total_bytes(self) -> int:
        return sum(r.bytes for r in self.records.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<AccountLedger {self.router!r} accounts={len(self.records)}>"
