"""A frame from an address no port of the host is wired to.

Such a frame has no arrival port, so it has no return hop: the host
drops it as ``unknown_peer`` (a router's reason for the same frame)
before any handler sees it.  Handed up with arrival port 0 instead, a
request made the server's reply raise ``KeyError`` out of the host's
batch step, and every later frame of that wakeup was never delivered
and never gave its ring slot back.
"""

import asyncio

from benchmarks.bench_f03_transactor_pair import HostPair
from repro.live.host import LiveTransactor
from tests.live.oracle import free_slots, slot_view

STRANGER = ("10.9.9.9", 9001)


async def _wakeup_with_a_stranger_first():
    """A request from the stranger, then the client's good one, in one
    wakeup of the server; returns the pair and the client's result."""
    pair = HostPair()
    client_tx = LiveTransactor(pair.client)
    LiveTransactor(pair.server).serve(lambda request: b"echo:" + request)
    task = asyncio.ensure_future(client_tx.transact(pair.manager(), b"ping"))
    await asyncio.sleep(0)
    queue = pair.queued["server"]
    ((view, _source, preamble),) = queue
    stranger = slot_view(pair.server.endpoint.ring, view.tobytes())
    queue.insert(0, (stranger, STRANGER, preamble))
    pair.pump()
    return pair, await task


def test_a_frame_from_an_unwired_peer_is_dropped_and_the_wakeup_goes_on():
    pair, result = asyncio.run(_wakeup_with_a_stranger_first())
    assert result.ok and result.payload == b"echo:ping"
    server = pair.server
    assert server.metrics.drops == {"unknown_peer": 1}
    assert server.metrics.delivered_local == 1
    for host in (pair.client, pair.server):
        ring = host.endpoint.ring
        assert free_slots(ring) == len(ring._slots)
        assert ring.stats.acquires == ring.stats.releases
