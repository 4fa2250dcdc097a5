"""Stage-interaction tests for the sans-IO forwarding pipeline.

The pipeline's stages are individually simple; the bugs live where
they meet.  These tests pin the interactions the ISSUE calls out:

* logical **splice × truncation** ordering — the transit tail's header
  bytes must count against the egress MTU *before* the truncation
  decision is made;
* **multicast fan-out × token admission** — each fanned-out copy is
  admitted against the port it actually takes, so one unauthorized
  member drops without affecting its siblings.
"""

import pytest

from repro.dataplane.logical import LogicalPortMap, SelectionPolicy
from repro.dataplane.multicast import GroupPortMap, TREE_PORT, TreeBranch, encode_tree_info
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
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.wire import HeaderSegment
from tests.dataplane.answers import answered


def make_pipeline(
    profiles,
    logical=None,
    groups=None,
    require_tokens=False,
    multicast=True,
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
        capabilities=Capabilities(multicast=multicast),
    )
    return pipeline, mint


def hop(segment, wire_size=100, seg_count=3, in_port=7, now_ms=0):
    return HopInput(
        segment=segment, seg_count=seg_count, wire_size=wire_size,
        in_port=in_port, now_ms=now_ms,
    )


class TestSpliceTruncationOrdering:
    """Transit splice bytes are charged before the MTU check (§2.2 + §2)."""

    MTU = 104

    def build(self):
        logical = LogicalPortMap()
        # Logical port 9 -> splice [1, 2]: exit via physical port 1 now,
        # leave segment(port=2) in the route (4 extra header bytes).
        logical.add_transit(9, [HeaderSegment(port=1), HeaderSegment(port=2)])
        return make_pipeline(
            {1: PortProfile(mtu=self.MTU), 2: PortProfile(mtu=self.MTU)},
            logical=logical,
        )

    def test_plain_hop_fits_without_truncation(self):
        pipeline, _ = self.build()
        # wire 100 - stripped 4 + return 4 + back-length 2 = 102 <= 104.
        decision = pipeline.decide(hop(HeaderSegment(port=1), wire_size=100))
        assert decision.action is Action.FORWARD
        assert decision.truncate_to == 0

    def test_splice_tail_bytes_tip_the_same_packet_over_the_mtu(self):
        pipeline, _ = self.build()
        # Same 100-byte packet through the transit hop: the spliced
        # tail adds 4 header bytes -> 106 > 104, so the pipeline orders
        # a truncation the plain hop did not need.
        decision = pipeline.decide(hop(HeaderSegment(port=9), wire_size=100))
        assert decision.action is Action.FORWARD
        assert decision.out_port == 1
        assert [s.port for s in decision.splice_tail] == [2]
        assert decision.truncate_to == self.MTU

    def test_splice_tail_inherits_the_segment_priority(self):
        pipeline, _ = self.build()
        decision = pipeline.decide(
            hop(HeaderSegment(port=9, priority=5), wire_size=100)
        )
        assert decision.effective.priority == 5
        assert all(s.priority == 5 for s in decision.splice_tail)

    def test_unknown_arrival_port_charges_no_return_element(self):
        pipeline, _ = self.build()
        # No return segment (+4+2 bytes) when the arrival port is
        # unknown: 100 - 4 + 4 = 100 <= 104, no truncation.
        decision = pipeline.decide(
            hop(HeaderSegment(port=9), wire_size=100, in_port=UNKNOWN_IN_PORT)
        )
        assert decision.action is Action.FORWARD
        assert decision.return_segment is None
        assert decision.truncate_to == 0

    def test_mtu_zero_means_no_truncation_ever(self):
        logical = LogicalPortMap()
        logical.add_transit(9, [HeaderSegment(port=1), HeaderSegment(port=2)])
        pipeline, _ = make_pipeline(
            {1: PortProfile(mtu=0), 2: PortProfile(mtu=0)}, logical=logical
        )
        decision = pipeline.decide(
            hop(HeaderSegment(port=9), wire_size=1_000_000)
        )
        assert decision.truncate_to == 0


class TestMulticastTokenInteraction:
    """Fan-out happens before admission; each copy is admitted alone."""

    def build(self, members=(1, 2)):
        groups = GroupPortMap()
        groups.add_group(240, list(members))
        profiles = {m: PortProfile() for m in members}
        profiles[7] = PortProfile()  # the arrival port
        return make_pipeline(profiles, groups=groups, require_tokens=True)

    def test_one_unauthorized_member_drops_without_hurting_siblings(self):
        pipeline, mint = self.build()
        token = mint.mint(port=1, account=7)  # authorizes port 1 only
        group_seg = HeaderSegment(port=240, token=token)
        fanout = pipeline.decide(hop(group_seg, seg_count=2))
        assert fanout.action is Action.FANOUT
        assert not fanout.fanout_replaces_route
        assert sorted(b[0].port for b in fanout.branches) == [1, 2]
        # The driver re-runs each branch through the pipeline; the
        # admission verdicts must differ per member.
        verdicts = {}
        for branch in fanout.branches:
            decision = pipeline.decide(hop(branch[0], seg_count=2))
            verdicts[branch[0].port] = decision
        assert verdicts[1].action is Action.FORWARD
        assert verdicts[2].action is Action.DROP
        assert verdicts[2].reason == "token_reject"
        assert verdicts[2].drop_fields == {"port": 2}

    def test_group_expansion_skips_the_arrival_port(self):
        pipeline, _ = self.build(members=(1, 2, 7))
        fanout = pipeline.decide(
            hop(HeaderSegment(port=240), seg_count=2, in_port=7)
        )
        assert sorted(b[0].port for b in fanout.branches) == [1, 2]

    def test_tree_branches_replace_the_whole_route(self):
        pipeline, _ = make_pipeline({1: PortProfile(), 2: PortProfile()})
        info = encode_tree_info([
            TreeBranch([HeaderSegment(port=1), HeaderSegment(port=0)]),
            TreeBranch([HeaderSegment(port=2), HeaderSegment(port=0)]),
        ])
        decision = pipeline.decide(
            hop(HeaderSegment(port=TREE_PORT, portinfo=info), seg_count=2)
        )
        assert decision.action is Action.FANOUT
        assert decision.fanout_replaces_route
        assert len(decision.branches) == 2

    def test_multicast_off_capability_drops_instead_of_crashing(self):
        pipeline, _ = make_pipeline(
            {1: PortProfile()}, multicast=False,
            groups=None,
        )
        info = encode_tree_info([TreeBranch([HeaderSegment(port=1)])])
        tree = pipeline.decide(
            hop(HeaderSegment(port=TREE_PORT, portinfo=info))
        )
        assert tree.action is Action.DROP
        assert tree.reason == "multicast_unsupported"


class TestLateBindingNotCached:
    """Load-adaptive trunk picks are never frozen into the flow cache."""

    @pytest.mark.parametrize("policy,cacheable", [
        (SelectionPolicy.ROUND_ROBIN, False),
        (SelectionPolicy.FLOW_HASH, True),
    ])
    def test_only_deterministic_resolutions_install_flows(
        self, policy, cacheable
    ):
        logical = LogicalPortMap()
        logical.add_trunk(9, [1, 2], policy=policy)
        flow_cache = FlowCache(capacity=8, ttl_ms=10_000)
        pipeline, _ = make_pipeline(
            {1: PortProfile(), 2: PortProfile()},
            logical=logical, flow_cache=flow_cache,
        )
        first = pipeline.decide(hop(HeaderSegment(port=9)))
        assert first.action is Action.FORWARD
        assert answered(pipeline, hop(HeaderSegment(port=9))) is cacheable
        assert (len(flow_cache._entries) > 0) is cacheable
