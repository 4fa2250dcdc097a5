"""The per-packet stage on its own: ``ForwardingPipeline.decide_same``.

A warm decision is what the *flow* fixes (egress, return hop, encoded
tail) plus what a *packet* changes (its size: token budget, ledger, MTU
test, hit counts).  ``decide_same(previous, wire_size)`` runs only the
second half and hands ``previous`` back — for a hop whose every other
input equals the one ``previous`` was decided from.  Which decisions may
be repeated is the pipeline's call: only the plain warm forward carries
the ``flow_entry`` handle.  None means "decide in full", and must have
charged and counted nothing.
"""

import copy

import pytest

from repro.dataplane import Action, FlowCache, PortProfile, UNKNOWN_IN_PORT
from repro.dataplane.logical import LogicalPortMap
from repro.viper.wire import HeaderSegment
from tests.dataplane.test_pipeline_stages import hop, make_pipeline

MTU = 104  # a 100-byte packet leaves at 100 - 4 + 4 + 2 = 102 bytes


def build(profiles=None, logical=None):
    flow_cache = FlowCache(capacity=8, ttl_ms=10_000)
    pipeline, mint = make_pipeline(
        profiles or {1: PortProfile(mtu=MTU), 2: PortProfile()},
        logical=logical, flow_cache=flow_cache,
    )
    return pipeline, mint


def warm(pipeline, segment, **kwargs):
    """The flow's first repeatable decision: install, then hit."""
    assert not pipeline.decide(hop(segment, **kwargs)).flow_cache_hit
    decision = pipeline.decide(hop(segment, **kwargs))
    assert decision.flow_cache_hit
    return decision


def soft_state(pipeline):
    """Everything a packet can change, deep-copied."""
    token_cache = pipeline.token_cache
    return copy.deepcopy((
        pipeline.flow_cache.stats,
        [(key, entry.hits) for key, entry in pipeline.flow_cache._entries.items()],
        (token_cache.hits, token_cache.misses),
        {t: (e.packets, e.bytes) for t, e in token_cache._entries.items()},
        token_cache.ledger.records,
    ))


class TestEligibility:
    """Non-repeatable decisions carry no handle."""

    def test_only_a_flow_cache_hit_carries_the_entry(self):
        pipeline, _ = build()
        cold = pipeline.decide(hop(HeaderSegment(port=1)))
        assert cold.action is Action.FORWARD and cold.flow_entry is None
        hit = pipeline.decide(hop(HeaderSegment(port=1)))
        (entry,) = pipeline.flow_cache._entries.values()
        assert hit.flow_entry is entry

    def test_drops_and_local_delivery_carry_none(self):
        pipeline, _ = build()
        for segment in (HeaderSegment(port=9), HeaderSegment(port=0)):
            for _ in range(2):
                decision = pipeline.decide(hop(segment))
                assert decision.action is not Action.FORWARD
                assert decision.flow_entry is None
                assert pipeline.decide_same(decision, 100) is None

    def test_an_uncached_flow_never_becomes_repeatable(self):
        pipeline, _ = build()
        for _ in range(3):
            decision = pipeline.decide(
                hop(HeaderSegment(port=1), in_port=UNKNOWN_IN_PORT)
            )
            assert decision.action is Action.FORWARD
            assert decision.flow_entry is None

    def test_a_transit_splice_carries_none(self):
        logical = LogicalPortMap()
        logical.add_transit(9, [HeaderSegment(port=1), HeaderSegment(port=2)])
        pipeline, _ = build(logical=logical)
        decision = warm(pipeline, HeaderSegment(port=9), wire_size=50)
        assert decision.splice_tail and decision.flow_entry is None

    def test_a_memoized_slick_reroute_carries_none(self):
        pipeline, _ = build({1: PortProfile(up=False), 2: PortProfile()})
        segment = HeaderSegment(port=1, slick=True)
        alternate = [HeaderSegment(port=2), HeaderSegment(port=0)]
        hops = [hop(segment), hop(segment)]
        for each in hops:
            each.alternate = lambda: alternate
        assert pipeline.decide(hops[0]).slick_reroute
        again = pipeline.decide(hops[1])
        assert again.flow_cache_hit and again.slick_reroute
        assert again.flow_entry is None

    def test_a_truncated_packet_carries_none(self):
        pipeline, _ = build()
        pipeline.decide(hop(HeaderSegment(port=1)))
        cut = pipeline.decide(hop(HeaderSegment(port=1), wire_size=103))
        assert cut.flow_cache_hit and cut.truncate_to == MTU
        assert cut.flow_entry is None

    def test_a_rebuilt_return_hop_carries_none(self):
        """The upstream link re-framed under the flow: this packet's
        return hop is not the memoized one, so neither is its tail."""
        pipeline, _ = build()
        first, second = hop(HeaderSegment(port=2)), hop(HeaderSegment(port=2))
        first.reverse_portinfo = lambda: b"old-mac"
        second.reverse_portinfo = lambda: b"new-mac"
        pipeline.decide(first)
        rebuilt = pipeline.decide(second)
        assert rebuilt.flow_cache_hit and not rebuilt.truncate_to
        assert rebuilt.return_tail is None
        assert rebuilt.flow_entry is None


class TestRepeat:
    def test_a_repeat_is_previous_itself_with_the_effects_of_a_decide(self):
        sizes = [100, 40, 40, 0, 90, 100]
        outcomes = []
        for repeat in (False, True):
            pipeline, mint = build()
            token = mint.mint(port=1, account=7, byte_limit=10_000)
            segment = HeaderSegment(port=1, token=token, priority=3)
            previous = warm(pipeline, segment)
            for size in sizes:
                if repeat:
                    assert pipeline.decide_same(previous, size) is previous
                else:
                    decided = pipeline.decide(hop(segment, wire_size=size))
                    assert decided.flow_entry is previous.flow_entry
                    assert (decided.out_port, decided.return_tail) == (
                        previous.out_port, previous.return_tail
                    )
            outcomes.append(soft_state(pipeline))
            usage = pipeline.token_cache.ledger.usage(7)
            assert (usage.packets, usage.bytes) == (8, 200 + sum(sizes))
            assert usage.by_priority == {3: 8}
            assert pipeline.flow_cache.stats.hits == 7
        assert outcomes[0] == outcomes[1]

    def test_a_tokenless_repeat_counts_the_flow_hit_only(self):
        pipeline, _ = build()
        previous = warm(pipeline, HeaderSegment(port=2))
        assert pipeline.decide_same(previous, 5000) is previous
        assert pipeline.flow_cache.stats.hits == 2
        assert previous.flow_entry.hits == 2
        assert pipeline.token_cache.hits == 0


class TestNoneHasChargedNothing:
    def refused(self, pipeline, previous, wire_size):
        before = soft_state(pipeline)
        assert pipeline.decide_same(previous, wire_size) is None
        assert soft_state(pipeline) == before

    def test_a_packet_that_would_truncate(self):
        pipeline, mint = build()
        token = mint.mint(port=1, account=7)
        segment = HeaderSegment(port=1, token=token)
        previous = warm(pipeline, segment)
        # The tokened segment goes, a 6-byte trailer element comes.
        fits = MTU - previous.flow_entry.post_size_delta
        assert fits > MTU
        assert pipeline.decide_same(previous, fits) is previous
        self.refused(pipeline, previous, fits + 1)
        # The full decision is the authority: charged, and cut.
        cut = pipeline.decide(hop(segment, wire_size=fits + 1))
        assert cut.truncate_to == MTU
        assert pipeline.token_cache.ledger.usage(7).packets == 4

    def test_a_budget_that_cannot_cover_the_packet(self):
        pipeline, mint = build()
        token = mint.mint(port=1, account=7, byte_limit=250)
        segment = HeaderSegment(port=1, token=token)
        previous = warm(pipeline, segment)  # 200 of 250 bytes gone
        self.refused(pipeline, previous, 51)
        assert pipeline.decide_same(previous, 50) is previous
        self.refused(pipeline, previous, 1)
        rejected = pipeline.decide(hop(segment, wire_size=1))
        assert (rejected.action, rejected.reason) == (
            Action.DROP, "token_reject"
        )
        assert len(pipeline.flow_cache) == 0
        assert pipeline.flow_cache.stats.invalidations == 1

    @pytest.mark.parametrize("fate", ["down", "gone"])
    def test_an_egress_that_went_away(self, fate):
        pipeline, _ = build()
        previous = warm(pipeline, HeaderSegment(port=1))
        if fate == "down":
            pipeline.ports.profiles[1] = PortProfile(mtu=MTU, up=False)
        else:
            del pipeline.ports.profiles[1]
        self.refused(pipeline, previous, 100)
        # …and the full decision purges the entry, as it always did.
        pipeline.decide(hop(HeaderSegment(port=1)))
        assert pipeline.flow_cache.stats.invalidations == 1
