"""A transaction leaves nothing behind in the transport once it is done.

The client machine and its route manager see every transaction; a
per-transaction record either keeps (an RTT histogram holding each
sample did) grows a long live run's memory with its length.  Driven
through the socket-free f03 pair past the response cache's fill — the
one table a server keeps per transaction, bounded at
``RESPONSE_CACHE_ENTRIES`` — two equal blocks of transactions must leave
the same bytes allocated from ``repro/transport``.
"""

import asyncio
import gc
import tracemalloc

from benchmarks.bench_f03_transactor_pair import _Pair
from repro.transport.machine import RESPONSE_CACHE_ENTRIES

#: Transactions per measured block.
BLOCK = 600

#: Bytes per transaction that count as retention (the RTT histograms
#: kept about 40).
RETAINED_PER_TX = 4


def _transport_bytes(pair) -> int:
    """Bytes allocated from the transport and still live, with the
    pair's own log of sent frames emptied first."""
    for log in pair.sent.values():
        log.clear()
    gc.collect()
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(True, "*/repro/transport/*", all_frames=True)]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_transactions_past_the_response_cache_fill_retain_nothing():
    pair = _Pair()
    manager = pair.manager()
    pair.manager = lambda: manager  # one client route manager throughout
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(
            pair.run(b"x" * 64, RESPONSE_CACHE_ENTRIES + 100)
        )
        tracemalloc.start(4)
        try:
            loop.run_until_complete(pair.run(b"x" * 64, BLOCK))
            first = _transport_bytes(pair)
            loop.run_until_complete(pair.run(b"x" * 64, BLOCK))
            second = _transport_bytes(pair)
        finally:
            tracemalloc.stop()
    finally:
        loop.close()
    assert manager.switches.count == 0
    retained = (second - first) / BLOCK
    assert retained < RETAINED_PER_TX, (
        f"{retained:.1f} B per transaction retained in repro.transport"
    )
