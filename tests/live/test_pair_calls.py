"""The transactor pair's per-transaction work, held by exact call counts.

``bench_f03_transactor_pair`` times the socket-free pair of a real
:class:`~repro.live.host.LiveHost` + :class:`~repro.live.host.
LiveTransactor` client and server, which on a shared box moves with the
load.  Its ``calls/tx`` row does not: cProfile's count of Python and
built-in calls per transaction, with the stand-in wire paused, is the
same on every run of the same code.  So the counts are held here, at or
below what they were once the transport stopped keeping a histogram of
every RTT: a change that brings per-transaction work back fails this
test deterministically instead of hiding in the benchmark's noise.  A change that removes work lowers the ceilings.
"""

import pytest

from benchmarks.bench_f03_transactor_pair import BLOCK_TX, _calls_per_tx

#: Calls per transaction, by request/response size, over the count of
#: transactions the benchmark profiles (ten blocks).  They were 259.7
#: and 2,056.8 before the trailer memo and the one-member path,
#: 214.688 and 1,679.8 before the transport stopped keeping every RTT,
#: 210.686 and 1,675.78 before the host copied and released a slot
#: in place and a launch read the clock once, and 202.686 and 1,637.78
#: before the host core's open compared a repeated trailer without
#: measuring it (one ``len`` call less per delivered frame).
CEILINGS = {64: 200.687, 16 * 1024: 1605.79}


@pytest.mark.parametrize("size", sorted(CEILINGS))
def test_the_pairs_calls_per_transaction_do_not_grow(size):
    calls = _calls_per_tx(bytes(size), 10 * BLOCK_TX[size])
    assert calls <= CEILINGS[size], (
        f"{size} B: {calls:.1f} calls per transaction, more than the "
        f"{CEILINGS[size]} this pair made; if the new work is meant, "
        "say why where the ceiling is raised"
    )
