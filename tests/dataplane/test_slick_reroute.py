"""Slick-Packets local reroute in the sans-IO pipeline (ARCHITECTURE §16).

A slick segment whose egress is dead gets its in-band alternate spliced
over the remaining route — one hop-local decision, no end-to-end
timeout.  These tests pin the stage-3b semantics:

* the reroute FORWARD carries the alternate's head as ``effective``,
  its tail as ``splice_tail`` and ``slick_reroute=True``;
* every way the alternate can be unusable (absent, dead, local,
  logical, multicast, token-rejected) falls back to a clean
  ``slick_fallback_exhausted`` drop — rebind recovery takes over;
* non-slick packets see exactly the pre-slick behavior on the same
  dead port;
* the reroute is memoized: warm packets of the flow take the alternate
  from stage 2a, and the stale pre-failover entry — including its
  memoized return tail — can never be served again.
"""

import pytest

from repro.dataplane.logical import LogicalPortMap
from repro.dataplane.multicast import GroupPortMap
from repro.dataplane import (
    Action,
    Capabilities,
    FlowCache,
    ForwardingPipeline,
    HopInput,
    PortMap,
    PortProfile,
    UNKNOWN_IN_PORT,
)
from repro.live.frames import (
    PREAMBLE_BYTES,
    decode_preamble,
    encode_live_frame,
    forward_into,
)
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment, PacketView, segment_span
from tests.dataplane.answers import answered, decide

DEAD = 1      # the primary egress, down in most tests
ALT = 3       # the alternate egress
ARRIVAL = 7


def make_pipeline(
    profiles,
    logical=None,
    groups=None,
    require_tokens=False,
    flow_cache=None,
):
    mint = TokenMint(b"secret:test", issuer="r1")
    token_cache = TokenCache(
        mint, policy=CachePolicy.OPTIMISTIC, require_tokens=require_tokens
    )
    pipeline = ForwardingPipeline(
        "r1",
        token_cache=token_cache,
        ports=PortMap(dict(profiles)),
        logical=logical,
        groups=groups,
        flow_cache=flow_cache,
        capabilities=Capabilities(),
    )
    return pipeline, mint


def hop(segment, alternate=None, wire_size=100, seg_count=3,
        in_port=ARRIVAL, now_ms=0):
    kwargs = {}
    if alternate is not None:
        kwargs["alternate"] = lambda: alternate
    return HopInput(
        segment=segment, seg_count=seg_count, wire_size=wire_size,
        in_port=in_port, now_ms=now_ms, **kwargs,
    )


class TestLocalReroute:
    """Dead egress + usable alternate -> in-band splice, same hop."""

    def build(self):
        return make_pipeline({
            DEAD: PortProfile(up=False),
            ALT: PortProfile(),
        })

    def test_dead_egress_splices_the_alternate(self):
        pipeline, _ = self.build()
        alternate = [HeaderSegment(port=ALT), HeaderSegment(port=0)]
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD, slick=True), alternate)
        )
        assert decision.action is Action.FORWARD
        assert decision.slick_reroute
        assert decision.out_port == ALT
        assert decision.effective.port == ALT
        assert [s.port for s in decision.splice_tail] == [0]
        # The alternate REPLACES the remaining route: what is left is
        # the alternate minus the hop taken now, not the original route.
        assert len(decision.splice_tail) == len(alternate) - 1

    def test_missing_profile_counts_as_dead(self):
        pipeline, _ = make_pipeline({ALT: PortProfile()})
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD, slick=True),
                [HeaderSegment(port=ALT)])
        )
        assert decision.action is Action.FORWARD
        assert decision.slick_reroute

    def test_reroute_inherits_priority_and_builds_return_hop(self):
        pipeline, _ = self.build()
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD, slick=True, priority=5),
                [HeaderSegment(port=ALT), HeaderSegment(port=0)])
        )
        assert decision.effective.priority == 5
        assert all(s.priority == 5 for s in decision.splice_tail)
        assert decision.return_segment is not None
        assert decision.return_segment.port == ARRIVAL

    def test_truncation_is_skipped_on_the_reroute_hop(self):
        pipeline, _ = make_pipeline({
            DEAD: PortProfile(up=False),
            ALT: PortProfile(mtu=64),
        })
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD, slick=True),
                [HeaderSegment(port=ALT)], wire_size=1000)
        )
        assert decision.action is Action.FORWARD
        assert decision.truncate_to == 0


class TestExhaustionFallsBackToRebind:
    """Unusable alternates drop with slick_fallback_exhausted (§16)."""

    def expect_exhausted(self, pipeline, segment, alternate):
        decision = pipeline.decide(hop(segment, alternate))
        assert decision.action is Action.DROP
        assert decision.reason == "slick_fallback_exhausted"
        assert decision.drop_fields == {"port": DEAD}

    def test_no_alternate_carried(self):
        pipeline, _ = make_pipeline({DEAD: PortProfile(up=False)})
        # Default thunk: the packet carries no block (or it failed to
        # decode — the driver maps both to a None alternate).
        self.expect_exhausted(
            pipeline, HeaderSegment(port=DEAD, slick=True), None
        )
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD, slick=True), [])
        )
        assert decision.reason == "slick_fallback_exhausted"

    def test_alternate_egress_also_dead(self):
        pipeline, _ = make_pipeline({
            DEAD: PortProfile(up=False),
            ALT: PortProfile(up=False),
        })
        self.expect_exhausted(
            pipeline, HeaderSegment(port=DEAD, slick=True),
            [HeaderSegment(port=ALT)],
        )

    def test_alternate_naming_local_delivery_is_rejected(self):
        pipeline, _ = make_pipeline({DEAD: PortProfile(up=False)})
        self.expect_exhausted(
            pipeline, HeaderSegment(port=DEAD, slick=True),
            [HeaderSegment(port=0)],
        )

    def test_alternate_naming_logical_port_is_rejected(self):
        logical = LogicalPortMap()
        logical.add_transit(9, [HeaderSegment(port=ALT)])
        pipeline, _ = make_pipeline(
            {DEAD: PortProfile(up=False), ALT: PortProfile()},
            logical=logical,
        )
        self.expect_exhausted(
            pipeline, HeaderSegment(port=DEAD, slick=True),
            [HeaderSegment(port=9)],
        )

    def test_alternate_naming_multicast_group_is_rejected(self):
        groups = GroupPortMap()
        groups.add_group(240, [ALT])
        pipeline, _ = make_pipeline(
            {DEAD: PortProfile(up=False), ALT: PortProfile()},
            groups=groups,
        )
        self.expect_exhausted(
            pipeline, HeaderSegment(port=DEAD, slick=True),
            [HeaderSegment(port=240)],
        )

    def test_alternate_with_rejected_token_is_exhausted(self):
        pipeline, mint = make_pipeline(
            {DEAD: PortProfile(up=False), ALT: PortProfile()},
            require_tokens=True,
        )
        token = mint.mint(port=DEAD, account=7)
        # The primary is admitted (its token names the dead port), but
        # the tokenless alternate fails closed under require_tokens.
        self.expect_exhausted(
            pipeline, HeaderSegment(port=DEAD, slick=True, token=token),
            [HeaderSegment(port=ALT)],
        )


class TestNonSlickUnchanged:
    """The flag gate: packets without the slick bit never reroute."""

    def test_non_slick_packet_ignores_its_thunk_and_forwards(self):
        # Pre-slick pipelines forwarded onto a down egress (the driver
        # owns link state); that behavior is pinned for non-slick
        # packets so rebind timing is untouched by this feature.
        pipeline, _ = make_pipeline({
            DEAD: PortProfile(up=False),
            ALT: PortProfile(),
        })
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD), [HeaderSegment(port=ALT)])
        )
        assert decision.action is Action.FORWARD
        assert decision.out_port == DEAD
        assert not decision.slick_reroute

    def test_non_slick_missing_port_still_drops_no_route(self):
        pipeline, _ = make_pipeline({ALT: PortProfile()})
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD), [HeaderSegment(port=ALT)])
        )
        assert decision.action is Action.DROP
        assert decision.reason == "no_route"


class TestARerouteIsDecidedPerPacket:
    """A reroute reads the packet's alternate block, which the flow-cache
    key (arrival port, leading-segment bytes) does not cover, and must
    stop when the egress is back — so it is never memoized."""

    def build(self, profiles=None):
        flow_cache = FlowCache(capacity=8, ttl_ms=10_000)
        pipeline, mint = make_pipeline(
            profiles or {DEAD: PortProfile(up=False), ALT: PortProfile()},
            flow_cache=flow_cache,
        )
        return pipeline, mint, flow_cache

    def test_second_packet_takes_its_alternate_cold_again(self):
        pipeline, _, flow_cache = self.build()
        alternate = [HeaderSegment(port=ALT), HeaderSegment(port=0)]
        for _ in range(2):
            decision, cached = decide(
                pipeline, hop(HeaderSegment(port=DEAD, slick=True), alternate)
            )
            assert decision.action is Action.FORWARD
            assert decision.slick_reroute and not cached
            assert decision.out_port == ALT
            assert decision.effective.port == ALT
            assert [s.port for s in decision.splice_tail] == [0]
        assert len(flow_cache._entries) == 0
        assert flow_cache.stats.hits == 0

    def test_two_packets_one_leading_segment_two_alternates(self):
        """Regression: the reroute was memoized under the leading segment
        alone, so the second packet — same slick segment, same arrival,
        another alternate block — was answered ``out_port=2,
        splice_tail=[5, 0]`` from the flow cache: the sim delivered it
        down the first packet's backup route, the live router sent its
        own spliced route out of the first packet's port."""
        pipeline, _, _ = self.build({
            1: PortProfile(up=False), 2: PortProfile(), 3: PortProfile(),
        })
        leading = HeaderSegment(port=1, slick=True)
        first = pipeline.decide(hop(
            leading, [HeaderSegment(port=p) for p in (2, 5, 0)]
        ))
        second, cached = decide(pipeline, hop(
            leading, [HeaderSegment(port=p) for p in (3, 6, 0)]
        ))
        assert (first.out_port, [s.port for s in first.splice_tail]) == (
            2, [5, 0]
        )
        assert (second.out_port, [s.port for s in second.splice_tail]) == (
            3, [6, 0]
        )
        assert not cached

    def test_a_reroute_is_never_served_to_a_non_slick_packet(self):
        """Warm == cold for the twin one flag bit away: cold,
        ``TestNonSlickUnchanged`` pins that it forwards onto the port it
        names; after a slick packet's reroute it must still."""
        pipeline, _, _ = self.build()
        alternate = [HeaderSegment(port=ALT), HeaderSegment(port=0)]
        rerouted = pipeline.decide(
            hop(HeaderSegment(port=DEAD, slick=True), alternate)
        )
        assert rerouted.slick_reroute
        plain, cached = decide(pipeline, hop(HeaderSegment(port=DEAD)))
        assert plain.action is Action.FORWARD
        assert plain.out_port == DEAD
        assert not plain.slick_reroute
        assert not cached

    def test_the_flow_returns_to_its_egress_when_it_is_back(self):
        pipeline, _, flow_cache = self.build()
        segment = HeaderSegment(port=DEAD, slick=True)
        alternate = [HeaderSegment(port=ALT), HeaderSegment(port=0)]
        assert pipeline.decide(hop(segment, alternate)).out_port == ALT
        pipeline.ports.profiles[DEAD] = PortProfile()
        back = pipeline.decide(hop(segment, alternate))
        assert (back.out_port, back.slick_reroute) == (DEAD, False)
        assert answered(pipeline, hop(segment, alternate))

    def test_every_rerouted_packet_is_admitted_under_its_own_token(self):
        """Regression: a memoized reroute charged the alternate's token
        only, so a flow kept flowing past its primary token's budget."""
        pipeline, mint, _ = self.build()
        token = mint.mint(port=DEAD, account=7, byte_limit=250)
        segment = HeaderSegment(port=DEAD, slick=True, token=token)
        alternate = [HeaderSegment(port=ALT), HeaderSegment(port=0)]
        fates = [
            pipeline.decide(hop(segment, alternate, wire_size=100))
            for _ in range(3)
        ]
        assert [fate.action for fate in fates] == [
            Action.FORWARD, Action.FORWARD, Action.DROP
        ]
        assert fates[2].reason == "token_reject"
        assert pipeline.token_cache.ledger.usage(7).bytes == 200

    def test_unknown_arrival_port_builds_no_return_hop(self):
        pipeline, _, flow_cache = self.build()
        decision = pipeline.decide(
            hop(HeaderSegment(port=DEAD, slick=True),
                [HeaderSegment(port=ALT)], in_port=UNKNOWN_IN_PORT)
        )
        assert decision.slick_reroute
        assert decision.return_segment is None
        assert len(flow_cache._entries) == 0


class TestStaleReturnTailRegression:
    """A reroute must never serve pre-failover memoized state.

    Regression for the satellite-3 hazard: a flow cached while the
    primary egress was healthy memoizes the return tail (with the
    reverse-authorized token) for the OLD path.  When the egress dies
    mid-flow that entry must go before the packet is rerouted —
    otherwise rerouted packets keep the stale return route.
    """

    def test_failover_invalidates_and_replaces_the_warm_entry(self):
        profiles = {DEAD: PortProfile(), ALT: PortProfile()}
        flow_cache = FlowCache(capacity=8, ttl_ms=10_000)
        pipeline, mint = make_pipeline(profiles, flow_cache=flow_cache)
        token = mint.mint(port=DEAD, account=7, reverse_ok=True)
        segment = HeaderSegment(port=DEAD, slick=True, token=token)
        alternate = [HeaderSegment(port=ALT), HeaderSegment(port=0)]

        # Pre-failover: healthy forward, memoized with the token on the
        # return hop (reverse_ok) — the tail we must never see again.
        before = pipeline.decide(hop(segment, alternate))
        assert before.action is Action.FORWARD
        assert not before.slick_reroute
        assert before.out_port == DEAD
        assert before.return_segment.token == token
        stale_tail = before.return_tail
        assert stale_tail is not None and token in stale_tail
        warm, cached = decide(pipeline, hop(segment, alternate))
        assert cached and warm.out_port == DEAD

        # The egress dies under the warm flow.
        pipeline.ports.profiles[DEAD] = PortProfile(up=False)

        rerouted = pipeline.decide(hop(segment, alternate))
        assert rerouted.action is Action.FORWARD
        assert rerouted.slick_reroute
        assert rerouted.out_port == ALT
        # The return hop is rebuilt from the ALTERNATE's segment: the
        # old token (minted for the dead path) is gone.
        assert rerouted.return_segment.token == b""
        assert rerouted.return_tail != stale_tail
        assert flow_cache.stats.invalidations >= 1

        # Packets after failover are rerouted afresh, never served the
        # stale entry.
        after, cached = decide(pipeline, hop(segment, alternate))
        assert not cached
        assert after.slick_reroute
        assert after.out_port == ALT
        assert after.return_tail != stale_tail
        assert after.return_segment.token == b""

    def test_cached_entry_racing_the_death_falls_to_slow_path_reroute(self):
        # The port dies BETWEEN install and the next packet without any
        # invalidation callback firing: the warm arm must detect the
        # dead egress, purge, and let stage 3b reroute the same packet.
        profiles = {DEAD: PortProfile(), ALT: PortProfile()}
        flow_cache = FlowCache(capacity=8, ttl_ms=10_000)
        pipeline, _ = make_pipeline(profiles, flow_cache=flow_cache)
        segment = HeaderSegment(port=DEAD, slick=True)
        alternate = [HeaderSegment(port=ALT)]
        assert pipeline.decide(hop(segment, alternate)).out_port == DEAD
        pipeline.ports.profiles[DEAD] = PortProfile(up=False)
        decision = pipeline.decide(hop(segment, alternate))
        assert decision.action is Action.FORWARD
        assert decision.slick_reroute
        assert decision.out_port == ALT


class TestTheStrippedBlockLeavesWithItsSegment:
    """Regression: the post-hop size a slick segment's strip leaves is
    less by its alternate block, which the MTU test left out — so a
    packet that fits the egress exactly was marked for truncation."""

    SEGMENTS = [
        HeaderSegment(port=ALT, slick=True),
        HeaderSegment(port=5, token=b"t" * 8),
        HeaderSegment(port=0),
    ]
    BLOCK = [HeaderSegment(port=4), HeaderSegment(port=6), HeaderSegment(port=0)]

    def post_hop_size(self):
        """The frame's VIPER body after the hop, moved by the bytes."""
        pipeline, _ = make_pipeline({ALT: PortProfile()})
        packet = SirpentPacket(
            segments=list(self.SEGMENTS), payload_size=900,
            alternates=[list(self.BLOCK)],
        )
        datagram = encode_live_frame(packet, bytes(900))
        decision = pipeline.decide(self.hop(len(datagram) - PREAMBLE_BYTES))
        view = PacketView(bytearray(2 * len(datagram)), 0, len(datagram))
        view.buffer[:len(datagram)] = datagram
        assert forward_into(
            view, decision, decode_preamble(datagram),
            segment_span(datagram, PREAMBLE_BYTES),
        )
        return len(datagram) - PREAMBLE_BYTES, len(view.mem) - PREAMBLE_BYTES

    def hop(self, wire_size):
        return hop(self.SEGMENTS[0], alternate=self.BLOCK, wire_size=wire_size)

    @pytest.mark.parametrize("slack, truncated", [(0, False), (-1, True)])
    def test_cold_and_warm_size_the_block_out(self, slack, truncated):
        arriving, leaving = self.post_hop_size()
        assert leaving < arriving  # the block outweighs the return hop
        pipeline, _ = make_pipeline(
            {ALT: PortProfile(mtu=leaving + slack)}, flow_cache=FlowCache()
        )
        cold, cold_cached = decide(pipeline, self.hop(arriving))
        warm, warm_cached = decide(pipeline, self.hop(arriving))
        assert not cold_cached and warm_cached
        for decision in (cold, warm):
            assert decision.action is Action.FORWARD
            assert bool(decision.truncate_to) is truncated
