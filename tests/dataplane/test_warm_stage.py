"""The per-packet stage, and the shortcut in front of it.

A warm decision is what the *flow* fixes (egress, return hop, encoded
tail — one memoized ``Decision`` per flow-cache entry, the very object
the flow's first packet was handed) plus what a *packet* changes (its
size: token budget, ledger, MTU test, hit counts; its arrival frame).  The first half of this file pins the second half of
that sentence: every packet is charged and counted, a packet that is
refused has charged nothing, and a packet that needs a decision of its
own — truncated, re-framed — gets one without disturbing the flow's.

The flow cache tries the entry each arrival port answered with last
before its dict.  The second half pins that this shortcut never
outlives the entry: after
every way an entry can go — ``flush``, ``invalidate_port`` (ingress,
keyed and egress match), ``invalidate_token``, LRU eviction by an
interleaved flow on the same or another arrival port, TTL expiry, token expiry, a token-cache flush — the
next byte-identical packet is decided cold: the miss is counted and the
token re-admitted.  (``tests/live/test_run_forwarding.py`` repeats this
through ``LiveRouter._on_batch`` for the driver's own invalidations.)
"""

import copy

import pytest

from repro.dataplane import Action, FlowCache, PortProfile
from repro.dataplane.logical import LogicalPortMap, SelectionPolicy
from repro.viper.wire import HeaderSegment
from tests.dataplane.answers import answered, decide
from tests.dataplane.test_pipeline_stages import hop, make_pipeline

MTU = 104  # a 100-byte packet leaves at 100 - 4 + 4 + 2 = 102 bytes


def build(profiles=None, logical=None, capacity=8, ttl_ms=10_000):
    return make_pipeline(
        profiles or {1: PortProfile(mtu=MTU), 2: PortProfile()},
        logical=logical,
        flow_cache=FlowCache(capacity=capacity, ttl_ms=ttl_ms),
    )


def warm(pipeline, segment, **kwargs):
    """Install the flow, then take its first answer from the cache: the
    decision the first packet was handed."""
    first, cached = decide(pipeline, hop(segment, **kwargs))
    assert not cached
    decision, cached = decide(pipeline, hop(segment, **kwargs))
    assert cached and decision is first
    return decision


def charged(pipeline):
    """Everything a packet is charged to, deep-copied."""
    token_cache = pipeline.token_cache
    return copy.deepcopy((
        {t: (e.packets, e.bytes) for t, e in token_cache._entries.items()},
        token_cache.ledger.records,
    ))


class TestEveryPacketIsChargedAndCounted:
    def test_a_tokened_flow(self):
        pipeline, mint = build()
        token = mint.mint(port=1, account=7, byte_limit=10_000)
        segment = HeaderSegment(port=1, token=token, priority=3)
        first = warm(pipeline, segment)
        sizes = [100, 40, 40, 0, 90, 100]
        for size in sizes:
            decision, cached = decide(pipeline, hop(segment, wire_size=size))
            assert cached and not decision.truncate_to
            assert (decision.out_port, decision.return_tail) == (
                first.out_port, first.return_tail
            )
        usage = pipeline.token_cache.ledger.usage(7)
        assert (usage.packets, usage.bytes) == (8, 200 + sum(sizes))
        assert usage.by_priority == {3: 8}
        assert pipeline.flow_cache.stats.hits == 7
        (entry,) = pipeline.flow_cache._entries.values()
        assert entry.hits == 7

    def test_a_tokenless_flow_counts_the_flow_hit_only(self):
        pipeline, _ = build()
        warm(pipeline, HeaderSegment(port=2))
        pipeline.decide(hop(HeaderSegment(port=2), wire_size=5000))
        assert pipeline.flow_cache.stats.hits == 2
        assert pipeline.token_cache.hits == 0


class TestAPacketOfItsOwn:
    """What one packet needed never leaks into the flow's decision."""

    def test_a_truncated_packet_between_two_that_fit(self):
        pipeline, mint = build()
        token = mint.mint(port=1, account=7)
        segment = HeaderSegment(port=1, token=token)
        fits = warm(pipeline, segment)
        # The tokened segment goes, a 6-byte trailer element comes.
        limit = MTU + segment.wire_size() - 6
        assert limit > MTU
        whole = pipeline.decide(hop(segment, wire_size=limit))
        cut, cut_cached = decide(pipeline, hop(segment, wire_size=limit + 1))
        after = pipeline.decide(hop(segment, wire_size=limit))
        assert (whole.truncate_to, cut.truncate_to, after.truncate_to) == (
            0, MTU, 0
        )
        assert cut_cached and cut.return_tail == fits.return_tail
        assert whole is after is fits
        # Charged like every other packet of the flow.
        assert pipeline.token_cache.ledger.usage(7).packets == 5

    def test_a_reframed_arrival_between_two_that_match(self):
        """The upstream link re-framed under the flow: that packet's
        return hop is not the memoized one, so neither is its tail."""
        pipeline, _ = build()
        hops = [hop(HeaderSegment(port=2)) for _ in range(4)]
        for each, arrival in zip(hops, (b"old-mac", b"old-mac", b"new-mac", b"old-mac")):
            each.reverse_portinfo = lambda arrival=arrival: arrival
        (cold, _), (same, same_cached), (rebuilt, rebuilt_cached), (after, _) = (
            decide(pipeline, each) for each in hops
        )
        assert same_cached and rebuilt_cached and same is cold
        assert same.return_tail == cold.return_tail is not None
        assert rebuilt.return_tail is None
        assert rebuilt.return_segment.portinfo == b"new-mac"
        assert after.return_segment.portinfo == b"old-mac"
        assert after.return_tail == cold.return_tail

    def test_a_transit_splice_is_answered_whole(self):
        logical = LogicalPortMap()
        logical.add_transit(9, [HeaderSegment(port=1), HeaderSegment(port=2)])
        pipeline, _ = build(logical=logical)
        decision = warm(pipeline, HeaderSegment(port=9, priority=5), wire_size=50)
        assert decision.out_port == 1 and decision.effective.priority == 5
        assert [(s.port, s.priority) for s in decision.splice_tail] == [(2, 5)]


class TestARefusalHasChargedNothing:
    def test_a_budget_that_cannot_cover_the_packet(self):
        pipeline, mint = build()
        token = mint.mint(port=1, account=7, byte_limit=250)
        segment = HeaderSegment(port=1, token=token)
        warm(pipeline, segment)  # 200 of 250 bytes gone
        assert answered(pipeline, hop(segment, wire_size=50))
        before = charged(pipeline)
        rejected = pipeline.decide(hop(segment, wire_size=1))
        assert (rejected.action, rejected.reason) == (
            Action.DROP, "token_reject"
        )
        assert charged(pipeline) == before
        assert len(pipeline.flow_cache._entries) == 0
        assert pipeline.flow_cache.stats.invalidations == 1

    @pytest.mark.parametrize("fate", ["down", "gone"])
    def test_an_egress_that_went_away(self, fate):
        pipeline, _ = build()
        warm(pipeline, HeaderSegment(port=1))
        if fate == "down":
            pipeline.ports.profiles[1] = PortProfile(mtu=MTU, up=False)
        else:
            del pipeline.ports.profiles[1]
        # The full decision purges the entry, as it always did.
        assert not answered(pipeline, hop(HeaderSegment(port=1)))
        assert pipeline.flow_cache.stats.invalidations == 1


# -- the last-answer shortcut never outlives an invalidation ------------------


TRUNK, MEMBER, OTHER = 20, 1, 2


def shortcut_world(**flow_cache):
    """A pipeline whose flow under test arrives on port 7, names logical
    port ``TRUNK`` and leaves by ``MEMBER`` — three different ids, so
    ``invalidate_port`` can be aimed at each — plus a bystander flow."""
    logical = LogicalPortMap()
    logical.add_trunk(TRUNK, [MEMBER], SelectionPolicy.FLOW_HASH)
    pipeline, mint = build(
        {MEMBER: PortProfile(), OTHER: PortProfile()}, logical=logical,
        **flow_cache,
    )
    token = mint.mint(port=TRUNK, account=7, expiry_ms=5_000)
    return pipeline, HeaderSegment(port=TRUNK, token=token), token


MUTATIONS = {
    "flush": lambda p, token: p.flow_cache.flush(),
    "invalidate_port(ingress)": lambda p, token: p.flow_cache.invalidate_port(7),
    "invalidate_port(keyed)": lambda p, token: p.flow_cache.invalidate_port(TRUNK),
    "invalidate_port(egress)": lambda p, token: p.flow_cache.invalidate_port(MEMBER),
    "invalidate_token": lambda p, token: p.flow_cache.invalidate_token(token),
    "topology change": lambda p, token: p.on_topology_change(MEMBER),
    "congestion rebind": lambda p, token: p.on_congestion_rebind(),
    "token-cache flush": lambda p, token: p.token_cache.flush(),
}


@pytest.mark.parametrize("name", list(MUTATIONS))
def test_the_shortcut_dies_with_the_entry(name):
    pipeline, segment, token = shortcut_world()
    warm(pipeline, segment)
    assert answered(pipeline, hop(segment))  # by the shortcut
    misses = pipeline.flow_cache.stats.misses
    admitted = pipeline.token_cache.hits + pipeline.token_cache.misses
    MUTATIONS[name](pipeline, token)
    assert len(pipeline.flow_cache._entries) == 0
    again, cached = decide(pipeline, hop(segment))
    assert again.action is Action.FORWARD and not cached
    assert pipeline.flow_cache.stats.misses == misses + 1
    # Re-admitted by the token cache (a flushed one verifies afresh).
    assert pipeline.token_cache.hits + pipeline.token_cache.misses == admitted + 1
    assert pipeline.token_cache.misses == (2 if name == "token-cache flush" else 1)
    assert answered(pipeline, hop(segment))


def test_an_invalidation_that_spares_the_entry_spares_the_flow():
    pipeline, segment, _ = shortcut_world()
    warm(pipeline, segment)
    bystander = HeaderSegment(port=OTHER)
    pipeline.decide(hop(bystander, in_port=8))
    assert pipeline.flow_cache.invalidate_port(OTHER) == 1
    assert answered(pipeline, hop(segment))
    assert not answered(pipeline, hop(bystander, in_port=8))


@pytest.mark.parametrize("in_port", [7, 8])
def test_the_shortcut_dies_with_an_lru_eviction(in_port):
    """The evicting flow arrives on the flow's own port (its memo is
    replaced) or on another one (its memo must go with the entry)."""
    pipeline, segment, _ = shortcut_world(capacity=1)
    bystander = hop(HeaderSegment(port=OTHER), in_port=in_port)
    warm(pipeline, segment)
    pipeline.decide(bystander)  # evicts the flow
    assert pipeline.flow_cache.stats.evictions == 1
    assert not answered(pipeline, hop(segment))  # …and back
    assert answered(pipeline, hop(segment))
    assert not answered(pipeline, bystander)
    assert pipeline.flow_cache.stats.evictions == 3


@pytest.mark.parametrize("what, ttl_ms, later", [
    ("ttl", 1_000, 1_001), ("token", 60_000, 5_001),
])
def test_the_shortcut_checks_the_clock(what, ttl_ms, later):
    pipeline, segment, _ = shortcut_world(ttl_ms=ttl_ms)
    warm(pipeline, segment)
    assert answered(pipeline, hop(segment, now_ms=later - 1))
    stale, cached = decide(pipeline, hop(segment, now_ms=later))
    # Past the TTL the flow is decided afresh; past the token's expiry
    # the cached claims say so too, and the packet is refused.
    assert not cached
    assert (stale.action, stale.reason) == (
        (Action.FORWARD, "") if what == "ttl" else (Action.DROP, "token_reject")
    )
    assert pipeline.flow_cache.stats.expirations == 1
    # An expired token installs no flow; an expired TTL starts a new one.
    assert len(pipeline.flow_cache._entries) == (1 if what == "ttl" else 0)


def test_the_shortcut_answers_only_its_own_arrival_and_bytes():
    pipeline, segment, _ = shortcut_world()
    warm(pipeline, segment)
    for other in (
        hop(segment, in_port=8),                       # another arrival port
        hop(segment.copy(dib=True)),                   # one flag bit away
        hop(segment.copy(token=segment.token[:-1])),   # a prefix of the key
        hop(segment.copy(portinfo=b"\0")),             # the key is a prefix
    ):
        assert not answered(pipeline, other)
        assert answered(pipeline, hop(segment))
