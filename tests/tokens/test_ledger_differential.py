"""The accounting ledger against the record-per-account reference.

``tests/tokens/oracle.py::ReferenceLedger`` keeps one ``UsageRecord`` per
account and charges through it; the production ``AccountLedger`` may
keep its counts however it likes.  Both take the same generated sequence
of charges, interleaved with every read the ledger offers, and must
answer every read alike — for charged accounts and for accounts never
seen.  Counts are integers and compare exactly; ``bill`` is a float sum
over at most sixteen priorities, whose order the ledger does not
promise, so it compares to a relative 1e-12 (sixteen additions lose at
most ~2e-15).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.tokens.accounting import AccountLedger
from tests.tokens.oracle import ReferenceLedger

MAX_ACCOUNT = (1 << 32) - 1

accounts = st.one_of(
    st.sampled_from([0, 1, 15, 16, MAX_ACCOUNT - 1, MAX_ACCOUNT]),
    st.integers(0, MAX_ACCOUNT),
)
charges = st.tuples(
    st.just("charge"),
    st.integers(0, 5),                       # which known account
    st.integers(0, 65_535),                  # size
    st.integers(0, 15),                      # priority, background half too
)
reads = st.tuples(
    st.sampled_from(
        ["usage", "bill", "accounts", "total_bytes", "records", "unknown"]
    ),
    st.integers(0, 5), st.just(0), st.just(0),
)


def read(ledger, what, account):
    if what == "usage":
        return ledger.usage(account)
    if what == "accounts":
        return ledger.accounts()
    if what == "total_bytes":
        return ledger.total_bytes()
    return dict(ledger.records)


def assert_alike(ledger, reference, pool):
    assert ledger.accounts() == reference.accounts()
    assert ledger.total_bytes() == reference.total_bytes()
    assert dict(ledger.records) == reference.records
    for account in pool:
        assert ledger.usage(account) == reference.usage(account)
        assert ledger.bill(account) == pytest.approx(
            reference.bill(account), rel=1e-12, abs=0.0
        )


@settings(max_examples=300, deadline=None)
@given(
    pool=st.lists(accounts, min_size=6, max_size=6, unique=True),
    stranger=accounts,
    price=st.sampled_from([1e-9, 1.0, 3.5]),
    script=st.lists(st.one_of(charges, charges, reads), max_size=60),
)
def test_the_ledger_answers_as_the_reference_does(pool, stranger, price, script):
    ledger = AccountLedger("r", price_per_byte=price)
    reference = ReferenceLedger("r", price_per_byte=price)
    known = set()
    for what, which, size, priority in script:
        account = pool[which]
        if what == "charge":
            ledger.charge(account, size, priority)
            reference.charge(account, size, priority)
            known.add(account)
        elif what == "bill":
            assert ledger.bill(account) == pytest.approx(
                reference.bill(account), rel=1e-12, abs=0.0
            )
        elif what == "unknown":
            if stranger not in known:
                assert ledger.usage(stranger) == reference.usage(stranger)
                assert ledger.usage(stranger).by_priority == {}
                assert ledger.bill(stranger) == 0.0
                # Asking about an account does not open one.
                assert stranger not in ledger.accounts()
        else:
            assert read(ledger, what, account) == read(reference, what, account)
    assert_alike(ledger, reference, pool)
