"""A retained-object budget for a new flow.

What a router keeps for a flow is soft state (§2.2), but what Python
keeps for it is objects, and every object the cyclic collector tracks is
walked again on each collection for as long as it lives: a table that
adds a record per key shows up as collector time on ``live_cold_flows``
long before it shows up as memory.  This test states the budget in
``gc.get_objects()`` — socket-free, one router, real frames through
``_on_batch`` — so the next cache keyed on a tuple, or record kept per
account, fails here and not in a benchmark:

* while a flow sits in the flow cache it holds at most
  :data:`PER_CACHED_FLOW` tracked objects (its entry, the memoised
  decision, the parsed leading segment, the return hop, its token);
* once the flow cache has turned over, a flow leaves behind **one**
  object per new token (the token-cache entry) and **none** per new
  account.

The same frames hold the work of a new flow's hop to a ceiling of calls
(:data:`CALLS_PER_NEW_FLOW_HOP`), counted under cProfile.
"""

import cProfile
import gc

from repro.live.frames import decode_preamble, encode_live_frame
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment
from tests.live.oracle import capture_router, slot_view

PEER = ("127.0.0.1", 9001)   # arrives on port 1
OUT = 2
FLOWS = 500

#: FlowEntry, Decision, SegmentView, return HeaderSegment, TokenCacheEntry.
PER_CACHED_FLOW = 5

#: Calls (Python and built-in) per new-flow hop through ``_on_batch``,
#: the flow cache full so that every install evicts.  Before a new
#: flow's first packet took the flow's own decision — one ``Decision``,
#: a return hop built and encoded once, one copy of the lead, the
#: claims unpacked once — the same harness counted 106.
CALLS_PER_NEW_FLOW_HOP = 85


def frames(mint, claims):
    """One 64-byte frame per ``(account, byte_limit)``, each under the
    token minted for exactly those claims."""
    for account, byte_limit in claims:
        token = mint.mint(
            port=OUT, account=account, byte_limit=byte_limit, reverse_ok=True
        )
        packet = SirpentPacket(
            segments=[HeaderSegment(port=OUT, token=token), HeaderSegment(port=0)],
            payload_size=64, payload=b"x" * 64,
        )
        yield encode_live_frame(packet, b"x" * 64)


def new_accounts(first, count=FLOWS):
    return [(account, 0) for account in range(first, first + count)]


def tracked_after(router, datagrams):
    """Tracked objects alive after ``datagrams`` went through ``router``,
    each as its own rx batch (the generator is drained first: what is
    counted is what the router keeps)."""
    ring = router.endpoint.ring
    for datagram in list(datagrams):
        router._on_batch([
            (slot_view(ring, datagram), PEER, decode_preamble(datagram))
        ])
    gc.collect()
    return len(gc.get_objects())


def test_a_new_flow_keeps_few_objects_and_leaves_one_behind():
    router, _ = capture_router("r", ports=(1, OUT))
    router.endpoint.send_view = lambda view, addr: view.release()
    mint, capacity = router.mint, router.flow_cache.capacity
    cache, ledger = router.token_cache, router.token_cache.ledger
    assert FLOWS < capacity
    start = tracked_after(router, frames(mint, new_accounts(1, 10)))  # warm up

    cached = tracked_after(router, frames(mint, new_accounts(1_000)))
    assert router.flow_cache.stats.evictions == 0
    assert (cached - start) / FLOWS <= PER_CACHED_FLOW

    # Past capacity every install evicts: what still grows is forever.
    full = tracked_after(router, frames(mint, new_accounts(5_000, capacity)))
    assert len(router.flow_cache._entries) == capacity
    tokens, accounts = len(cache), len(ledger.accounts())
    turned_over = tracked_after(router, frames(mint, new_accounts(9_000)))
    assert len(cache) - tokens == len(ledger.accounts()) - accounts == FLOWS
    assert turned_over - full == FLOWS  # one per token

    # New tokens on one account: still one each — so none per account.
    one_account = tracked_after(
        router, frames(mint, [(9_000, 1_000_000 + n) for n in range(FLOWS)])
    )
    assert len(ledger.accounts()) - accounts == FLOWS
    assert one_account - turned_over == FLOWS
    assert router.metrics.forwarded == 10 + 3 * FLOWS + capacity


def test_a_new_flow_hop_makes_few_calls():
    """A ceiling on the work of a new flow's hop, counted rather than
    timed: cProfile around ``_on_batch`` alone, one fresh account (so
    one token to verify and one flow to install) per frame."""
    router, _ = capture_router("r", ports=(1, OUT))
    router.endpoint.send_view = lambda view, addr: view.release()
    capacity = router.flow_cache.capacity
    tracked_after(router, frames(router.mint, new_accounts(1, capacity)))
    ring, on_batch = router.endpoint.ring, router._on_batch
    batches = [
        [(slot_view(ring, datagram), PEER, decode_preamble(datagram))]
        for datagram in frames(router.mint, new_accounts(10_000, 6))
    ]
    profile = cProfile.Profile()
    profile.enable()
    for batch in batches:
        on_batch(batch)
    profile.disable()
    calls = sum(entry.callcount for entry in profile.getstats())
    assert router.flow_cache.stats.evictions == len(batches)
    assert router.metrics.forwarded == capacity + len(batches)
    # The profiler's own ``disable`` call is one of them.
    assert (calls - 1) / len(batches) <= CALLS_PER_NEW_FLOW_HOP
