"""Unit tests for the accounting ledger (§2.2)."""


from repro.tokens.accounting import AccountLedger, UsageRecord


def test_charges_accumulate():
    ledger = AccountLedger("r1")
    ledger.charge(account=1, size=100, priority=0)
    ledger.charge(account=1, size=200, priority=3)
    ledger.charge(account=2, size=50, priority=0)
    assert ledger.usage(1).packets == 2
    assert ledger.usage(1).bytes == 300
    assert ledger.usage(2).bytes == 50
    assert ledger.total_bytes() == 350
    assert ledger.accounts() == [1, 2]


def test_unknown_account_is_empty():
    ledger = AccountLedger()
    usage = ledger.usage(99)
    assert usage.packets == 0 and usage.bytes == 0


def test_per_priority_breakdown():
    ledger = AccountLedger()
    for _ in range(3):
        ledger.charge(1, 10, priority=0)
    ledger.charge(1, 10, priority=7)
    record = ledger.usage(1)
    assert record.by_priority == {0: 3, 7: 1}


def test_high_priority_costs_more():
    """§5: 'use of high priorities may be limited by simply charging
    more for higher priority packets'."""
    ledger = AccountLedger(price_per_byte=1.0)
    ledger.charge(1, 100, priority=0)
    ledger.charge(2, 100, priority=7)
    assert ledger.bill(2) > ledger.bill(1)


def test_background_priority_costs_less():
    ledger = AccountLedger(price_per_byte=1.0)
    ledger.charge(1, 100, priority=0)
    ledger.charge(2, 100, priority=0xF)
    assert ledger.bill(2) < ledger.bill(1)


def test_bill_for_unknown_account_is_zero():
    assert AccountLedger().bill(5) == 0.0


def test_usage_record_charge():
    record = UsageRecord()
    record.charge(500, priority=2)
    assert record.packets == 1 and record.bytes == 500
    assert record.by_priority == {2: 1}
