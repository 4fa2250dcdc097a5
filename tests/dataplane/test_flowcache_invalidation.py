"""Flow-cache lifecycle: §2.2 soft state must actually be soft.

Every path by which a cached flow verdict can go stale is exercised:
TTL, token expiry, topology change (sim ``attach`` / live
``connect_port``), congestion rebind, and token-cache flush — plus the
accounting contract (flow hits keep charging the token's byte budget
and the ledger).
"""

from repro.dataplane import (
    Action,
    FlowCache,
    ForwardingPipeline,
    HopInput,
    PortMap,
    PortProfile,
)
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.wire import HeaderSegment
from tests.dataplane.answers import answered, decide


def make_pipeline(ttl_ms=10_000, capacity=8, profiles=None):
    mint = TokenMint(b"secret:test", issuer="r1")
    token_cache = TokenCache(mint, policy=CachePolicy.OPTIMISTIC)
    flow_cache = FlowCache(capacity=capacity, ttl_ms=ttl_ms)
    pipeline = ForwardingPipeline(
        "r1",
        token_cache=token_cache,
        ports=PortMap(
            profiles if profiles is not None
            else {1: PortProfile(), 2: PortProfile()}
        ),
        flow_cache=flow_cache,
    )
    return pipeline, mint, token_cache, flow_cache


def hop(segment, now_ms=0, wire_size=100, in_port=7):
    return HopInput(
        segment=segment, seg_count=3, wire_size=wire_size,
        in_port=in_port, now_ms=now_ms,
    )


class TestWarmPath:
    def test_second_packet_of_a_flow_hits(self):
        pipeline, mint, token_cache, flow_cache = make_pipeline()
        seg = HeaderSegment(port=1, token=mint.mint(port=1, account=9))
        cold, cold_answered = decide(pipeline, hop(seg, now_ms=0))
        warm, warm_answered = decide(pipeline, hop(seg, now_ms=1))
        assert cold.action is warm.action is Action.FORWARD
        assert not cold_answered
        assert warm_answered
        assert flow_cache.stats.hits == 1
        # The first packet was handed the flow's decision itself.
        assert warm is cold

    def test_flow_hit_matches_slow_path_decision(self):
        pipeline, mint, _, _ = make_pipeline()
        seg = HeaderSegment(
            port=1, priority=3,
            token=mint.mint(port=1, account=9, reverse_ok=True),
        )
        cold = pipeline.decide(hop(seg, now_ms=0))
        warm = pipeline.decide(hop(seg, now_ms=1))
        assert warm.out_port == cold.out_port
        assert warm.return_segment == cold.return_segment
        assert warm.dst_mac == cold.dst_mac
        assert warm.token_delay == 0.0

    def test_flow_hits_keep_charging_the_byte_budget(self):
        pipeline, mint, token_cache, _ = make_pipeline()
        token = mint.mint(port=1, account=9, byte_limit=250)
        seg = HeaderSegment(port=1, token=token)
        assert pipeline.decide(hop(seg, wire_size=100)).action is Action.FORWARD
        assert answered(pipeline, hop(seg, wire_size=100))
        # 200/250 spent via one cold + one flow-hit packet; a third
        # 100-byte packet must overrun the budget and be rejected even
        # though the flow was cached.
        third = pipeline.decide(hop(seg, wire_size=100))
        assert third.action is Action.DROP
        assert third.reason == "token_reject"
        assert token_cache.entry(token).bytes == 200

    def test_flow_hits_count_as_token_cache_hits(self):
        pipeline, mint, token_cache, _ = make_pipeline()
        seg = HeaderSegment(port=1, token=mint.mint(port=1, account=9))
        pipeline.decide(hop(seg))
        pipeline.decide(hop(seg))
        pipeline.decide(hop(seg))
        assert token_cache.hits >= 2  # bench_e09's hit-rate contract


class TestOnlyAnAuthorizedFlowIsInstalled:
    """Regression: an optimistic first packet is let through before its
    token's claims are read; the flow it installed then kept admitting
    packets the token cache rejects — until the entry's TTL."""

    def flow(self, mint, **claims):
        return HeaderSegment(
            port=1, priority=5, token=mint.mint(account=9, **claims)
        )

    def test_a_token_for_another_port(self):
        pipeline, mint, _, flow_cache = make_pipeline()
        seg = self.flow(mint, port=2)
        assert pipeline.decide(hop(seg)).action is Action.FORWARD  # optimism
        assert len(flow_cache._entries) == 0
        second = pipeline.decide(hop(seg))
        assert (second.action, second.reason) == (Action.DROP, "token_reject")

    def test_a_token_for_a_lower_priority(self):
        pipeline, mint, _, flow_cache = make_pipeline()
        seg = self.flow(mint, port=1, max_priority=2)
        assert pipeline.decide(hop(seg)).action is Action.FORWARD  # optimism
        assert len(flow_cache._entries) == 0
        second = pipeline.decide(hop(seg))
        assert (second.action, second.reason) == (Action.DROP, "token_reject")

    def test_a_reverse_ok_token_on_the_return_path_is(self):
        pipeline, mint, _, flow_cache = make_pipeline()
        token = mint.mint(port=2, account=9, reverse_ok=True)
        seg = HeaderSegment(port=1, rpf=True, token=token)
        pipeline.decide(hop(seg))
        assert answered(pipeline, hop(seg))


class TestExpiry:
    def test_ttl_expires_an_idle_flow(self):
        pipeline, mint, _, flow_cache = make_pipeline(ttl_ms=1_000)
        seg = HeaderSegment(port=1, token=mint.mint(port=1, account=9))
        pipeline.decide(hop(seg, now_ms=0))
        assert answered(pipeline, hop(seg, now_ms=900))
        assert not answered(pipeline, hop(seg, now_ms=2_500))
        assert flow_cache.stats.expirations == 1

    def test_flow_entry_dies_no_later_than_its_token(self):
        pipeline, mint, _, flow_cache = make_pipeline(ttl_ms=60_000)
        token = mint.mint(port=1, account=9, expiry_ms=1_000)
        seg = HeaderSegment(port=1, token=token)
        pipeline.decide(hop(seg, now_ms=0))
        assert answered(pipeline, hop(seg, now_ms=500))
        # TTL (60s) has not elapsed, but the token has expired: the
        # entry must not serve the flow any more.
        assert not answered(pipeline, hop(seg, now_ms=1_500))
        assert flow_cache.stats.expirations == 1

    def test_expired_token_never_installs_a_flow(self):
        pipeline, mint, _, flow_cache = make_pipeline()
        token = mint.mint(port=1, account=9, expiry_ms=1_000)
        seg = HeaderSegment(port=1, token=token)
        pipeline.decide(hop(seg, now_ms=2_000))  # already past expiry
        assert len(flow_cache._entries) == 0


class TestInvalidation:
    def test_topology_change_invalidates_flows_through_the_port(self):
        pipeline, mint, _, flow_cache = make_pipeline()
        seg1 = HeaderSegment(port=1, token=mint.mint(port=1, account=9))
        seg2 = HeaderSegment(port=2, token=mint.mint(port=2, account=9))
        pipeline.decide(hop(seg1))
        pipeline.decide(hop(seg2))
        assert len(flow_cache._entries) == 2
        pipeline.on_topology_change(1)
        assert len(flow_cache._entries) == 1  # port-2 flow survives
        assert not answered(pipeline, hop(seg1))
        assert answered(pipeline, hop(seg2))

    def test_full_flush_on_unscoped_topology_change(self):
        pipeline, mint, _, flow_cache = make_pipeline()
        pipeline.decide(hop(HeaderSegment(port=1)))
        pipeline.on_topology_change()
        assert len(flow_cache._entries) == 0

    def test_congestion_rebind_flushes_cached_routes(self):
        pipeline, mint, _, flow_cache = make_pipeline()
        pipeline.decide(hop(HeaderSegment(port=1)))
        assert len(flow_cache._entries) == 1
        pipeline.on_congestion_rebind()
        assert len(flow_cache._entries) == 0
        assert not answered(pipeline, hop(HeaderSegment(port=1)))

    def test_token_cache_flush_takes_the_flow_cache_with_it(self):
        pipeline, mint, token_cache, flow_cache = make_pipeline()
        seg = HeaderSegment(port=1, token=mint.mint(port=1, account=9))
        pipeline.decide(hop(seg))
        assert len(flow_cache._entries) == 1
        token_cache.flush()  # router restart: soft state dies together
        assert len(flow_cache._entries) == 0
        assert not answered(pipeline, hop(seg))
        assert len(token_cache) == 1  # token re-verified from scratch

    def test_vanished_egress_falls_back_and_invalidates(self):
        profiles = {1: PortProfile(), 2: PortProfile()}
        pipeline, mint, _, flow_cache = make_pipeline(profiles=profiles)
        seg = HeaderSegment(port=1)
        pipeline.decide(hop(seg))
        del profiles[1]  # the port map is live driver state
        decision = pipeline.decide(hop(seg))
        assert decision.action is Action.DROP
        assert decision.reason == "no_route"
        assert len(flow_cache._entries) == 0


class TestCapacity:
    def test_lru_eviction_keeps_the_hot_flows(self):
        pipeline, mint, _, flow_cache = make_pipeline(
            capacity=2,
            profiles={1: PortProfile(), 2: PortProfile(), 3: PortProfile()},
        )
        a, b, c = (HeaderSegment(port=p) for p in (1, 2, 3))
        pipeline.decide(hop(a))
        pipeline.decide(hop(b))
        pipeline.decide(hop(a))  # refresh a -> b is now LRU
        pipeline.decide(hop(c))  # evicts b
        assert flow_cache.stats.evictions == 1
        assert answered(pipeline, hop(a))
        assert not answered(pipeline, hop(b))

    def test_a_per_port_memo_answer_refreshes_its_lru_place(self):
        """Each arrival port remembers the entry it answered with last;
        an answer from that memo that is not the most recent entry moves
        it to the end, as a dict hit does — so eviction takes the flow
        it took when the cache remembered one entry."""
        pipeline, mint, _, flow_cache = make_pipeline(
            capacity=2,
            profiles={1: PortProfile(), 2: PortProfile(), 3: PortProfile()},
        )
        a, b, c = (HeaderSegment(port=p) for p in (1, 2, 3))
        pipeline.decide(hop(a, in_port=7))
        pipeline.decide(hop(b, in_port=8))
        assert answered(pipeline, hop(a, in_port=7))  # b was the newest
        pipeline.decide(hop(c, in_port=9))  # evicts b, least recently used
        assert flow_cache.stats.evictions == 1
        assert answered(pipeline, hop(a, in_port=7))
        assert not answered(pipeline, hop(b, in_port=8))


class TestDriverWiring:
    """The invalidation hooks are actually connected in both drivers."""

    def test_sim_router_wires_congestion_rebind_and_attach(self):
        from repro.core.congestion import ControlPlane
        from repro.core.router import SirpentRouter
        from repro.sim.engine import Simulator

        sim = Simulator()
        router = SirpentRouter(sim, "r1", control_plane=ControlPlane(sim, None))
        # A restart rebuilds the pipeline: the hooks follow the new one.
        router.core.forget()
        assert router.token_cache.on_flush == router.pipeline.flow_cache.flush
        flushes = []
        router.pipeline.on_congestion_rebind = lambda: flushes.append(1)
        router.congestion.on_rebind()
        assert flushes == [1]

    def test_live_connect_port_invalidates_rewired_flows(self):
        from repro.live.router import LiveRouter

        router = LiveRouter("lr1")
        router.connect_port(1, ("127.0.0.1", 40_001))
        router.connect_port(2, ("127.0.0.1", 40_002))
        pipeline = router.pipeline
        pipeline.decide(hop(HeaderSegment(port=1), in_port=2))
        pipeline.decide(hop(HeaderSegment(port=2), in_port=1))
        assert len(pipeline.flow_cache._entries) == 2
        router.connect_port(1, ("127.0.0.1", 40_003))  # re-wired
        assert len(pipeline.flow_cache._entries) == 0  # port 1 keyed both flows
