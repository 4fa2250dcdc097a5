"""A transaction leaves nothing behind in the transport once it is done.

The client machine and its route manager see every transaction; a
per-transaction record either keeps (an RTT histogram holding each
sample did) grows a long live run's memory with its length.  Driven
through the socket-free f03 pair past the response cache's fill — the
one table a server keeps per transaction, bounded at
``RESPONSE_CACHE_ENTRIES`` — two equal blocks of transactions must leave
the same bytes allocated from ``repro/transport``.  The ledger's pair
itself keeps nothing either: it logged every frame it sent once, which
held a whole ledger pass's frames.
"""

import asyncio
import gc
import tracemalloc

from benchmarks.bench_f03_transactor_pair import _Pair
from repro.transport.machine import RESPONSE_CACHE_ENTRIES

#: Transactions per measured block.
BLOCK = 600

#: Bytes per transaction that count as retention (the RTT histograms
#: kept about 40, the pair's frame log about 400).
RETAINED_PER_TX = 4


def _retained_per_tx(*filters) -> float:
    """Bytes per transaction that a block of transactions, run past the
    response cache's fill, leaves live beyond the block before it, over
    the allocations ``filters`` keep."""
    pair = _Pair()
    manager = pair.manager()
    pair.manager = lambda: manager  # one client route manager throughout
    loop = asyncio.new_event_loop()
    live = []
    try:
        loop.run_until_complete(
            pair.run(b"x" * 64, RESPONSE_CACHE_ENTRIES + 100)
        )
        tracemalloc.start(4)
        try:
            # The first count also holds the patterns the filters
            # compile on first use; the last two are compared.
            for _ in range(3):
                loop.run_until_complete(pair.run(b"x" * 64, BLOCK))
                gc.collect()
                snapshot = tracemalloc.take_snapshot().filter_traces(filters)
                live.append(sum(
                    stat.size for stat in snapshot.statistics("filename")
                ))
        finally:
            tracemalloc.stop()
    finally:
        loop.close()
    assert manager.switches.count == 0
    return (live[2] - live[1]) / BLOCK


def test_transactions_past_the_response_cache_fill_retain_nothing():
    retained = _retained_per_tx(
        tracemalloc.Filter(True, "*/repro/transport/*", all_frames=True)
    )
    assert retained < RETAINED_PER_TX, (
        f"{retained:.1f} B per transaction retained in repro.transport"
    )


def test_the_ledger_pair_retains_no_frame_it_sent():
    retained = _retained_per_tx(
        tracemalloc.Filter(False, tracemalloc.__file__, all_frames=True)
    )
    assert retained < RETAINED_PER_TX, (
        f"{retained:.1f} B per transaction retained by the pair"
    )
