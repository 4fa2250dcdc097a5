"""The reference the accounting ledger is tested against.

:class:`ReferenceLedger` is ``repro.tokens.accounting.AccountLedger`` as
it stood at ``e5e3653`` — one :class:`UsageRecord`, with its own
``by_priority`` dict, per account, charged through the record.  It is the
plain statement of what the ledger means;
``tests/tokens/test_ledger_differential.py`` holds the production ledger
to it over generated charge sequences.
"""

from typing import Dict, List

from repro.tokens.accounting import AccountLedger, UsageRecord


class ReferenceLedger:
    """All accounts charged at one router, one record per account."""

    DEFAULT_PRICE_MULTIPLIERS = AccountLedger.DEFAULT_PRICE_MULTIPLIERS

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
