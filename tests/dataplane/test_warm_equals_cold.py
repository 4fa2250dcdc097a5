"""Warm ≡ cold: the flow cache changes nothing but speed.

The per-hop decision is a pure function of the leading segment, the
arrival and the router's state (§2); the §2.2 flow cache memoises it.
So a pipeline with a :class:`FlowCache` and one with the cache disabled
— the cold oracle: every packet pays the full decision — fed the same
``HopInput`` sequence must make the same decisions, move the same frame
to the same bytes, and leave the same token-cache counters, per-token
packet / byte counts and ledger charges.  Only who answered differs (the
flow cache's own counters say it) and how the return tail was had: the
memoized ``return_tail`` or the one the move encodes, which the moved
bytes compare.

The generated cases (hypothesis, derandomised: a red run reproduces from
the log) interleave a few flows that collide on purpose — the same
port / token / portInfo under every flag-nibble (VNT / DIB / RPF /
slick) and priority — over plain, Ethernet, MTU-limited, dying and
unwired ports, flow-hash and least-loaded trunks, a transit splice and
the multicast ports; tokenless, valid, reverse-ok, expiring,
budget-limited, priority-limited, wrong-port and never-valid tokens
under each :class:`CachePolicy`; unknown arrival ports; re-framed
arrivals; sizes either side of the MTU; a small cache with a short TTL so
LRU eviction and expiry happen mid-sequence; and egress ports dying and
coming back between packets.  The directed case walks every flag nibble ×
priority × token kind through one pair of pipelines.

This is the test that would have caught the flow key omitting the slick
flag (``d499d96``): deleting ``slick`` from the key makes
``test_every_flag_nibble_and_priority`` fail on the first non-slick twin
of a rerouted slick flow (checked once by hand, at ``adb6ee9``).
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.dataplane import (
    Action,
    BROADCAST_PORT,
    FlowCache,
    ForwardingPipeline,
    GroupPortMap,
    HopInput,
    LogicalPortMap,
    PortMap,
    SelectionPolicy,
    TREE_PORT,
    TreeBranch,
    UNKNOWN_IN_PORT,
    encode_tree_info,
)
from repro.live.frames import (
    decode_preamble,
    encode_live_frame,
    forward_into,
    truncate_into,
)
from repro.net.addresses import MacAddress
from repro.tokens.cache import CachePolicy, TokenCache
from repro.tokens.capability import TokenMint
from repro.viper.portinfo import (
    CompressedEthernetInfo,
    EthernetInfo,
    LogicalInfo,
)
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment, PacketView, segment_span
from tests.dataplane.answers import decide

PLAIN, NARROW, ETHER, DIES, ALT, MEMBER_A, MEMBER_B = 1, 2, 3, 4, 5, 6, 7
UNWIRED = 9
FLOW_HASH, LEAST_LOADED, TRANSIT = 20, 21, 22
GROUP = 241
MTU = 120

PORTS = (
    PLAIN, PLAIN, PLAIN, NARROW, NARROW, ETHER, DIES, DIES, ALT,
    FLOW_HASH, TRANSIT, TRANSIT, LEAST_LOADED,
    UNWIRED, 0, GROUP, BROADCAST_PORT, TREE_PORT,
)
#: Ports a step may kill and revive (trunk members included, so a
#: flow-hash trunk's memoised member can die under it).
MORTAL = (DIES, DIES, ALT, MEMBER_A, NARROW)

MAC_A, MAC_B, MAC_C = (MacAddress(0x020000000000 + n) for n in (1, 2, 3))
PORTINFOS = (
    b"",
    b"",
    EthernetInfo(dst=MAC_A, src=MAC_B).to_bytes(),
    CompressedEthernetInfo(dst=MAC_C).to_bytes(),
    LogicalInfo(label=7, flow_hint=0).to_bytes(),
    LogicalInfo(label=7, flow_hint=1).to_bytes(),
    b"\x01\x02\x03",
    encode_tree_info([TreeBranch([HeaderSegment(port=PLAIN)])]),
)
#: What the arrival frame says the return hop's portInfo is (the sim
#: reverses the arrival MACs; a re-framed upstream changes it mid-flow).
ARRIVALS = (
    b"",
    EthernetInfo(dst=MAC_B, src=MAC_A, ethertype=0).to_bytes(),
    EthernetInfo(dst=MAC_C, src=MAC_A, ethertype=0).to_bytes(),
)
TOKEN_KINDS = (
    "none", "none", "valid", "valid", "reverse_ok", "expiring", "budget",
    "low_priority", "wrong_port", "never_valid",
)
SECRET = b"secret:warm-equals-cold"


def token_of(kind, port):
    mint = TokenMint(SECRET, issuer="r")
    if kind == "none":
        return b""
    if kind == "never_valid":
        return bytes([port]) * 28
    claims = {
        "valid": dict(account=1),
        "reverse_ok": dict(account=2, reverse_ok=True),
        "expiring": dict(account=3, expiry_ms=60),
        "budget": dict(account=4, byte_limit=700),
        "low_priority": dict(account=5, max_priority=2),
        "wrong_port": dict(account=6),
    }[kind]
    return mint.mint(port=port ^ 1 if kind == "wrong_port" else port, **claims)


def segment_of(port, token_kind, portinfo, flags, priority):
    return HeaderSegment(
        port=port, priority=priority,
        vnt=bool(flags & 8), dib=bool(flags & 4), rpf=bool(flags & 2),
        slick=bool(flags & 1),
        token=token_of(token_kind, port), portinfo=portinfo,
    )


ALTERNATES = (
    None,
    (HeaderSegment(port=ALT), HeaderSegment(port=0)),
    (HeaderSegment(port=PLAIN), HeaderSegment(port=ALT), HeaderSegment(port=0)),
    (HeaderSegment(port=ALT, token=token_of("reverse_ok", ALT)),),
    (HeaderSegment(port=ETHER, portinfo=PORTINFOS[2]), HeaderSegment(port=0)),
    (HeaderSegment(port=TRANSIT),),   # logical: unusable
)


class Port:
    """A live port object: the ``PortMap.profile`` surface and the load
    surface least-loaded selection reads, in one."""

    rate_bps = 0.0
    busy = False

    def __init__(self, kind="p2p", mtu=0, queue_depth=0):
        self.kind = kind
        self.mtu = mtu
        self.up = True
        self.queue_depth = queue_depth

    @property
    def attachment(self):
        return self


class World:
    """One pipeline and everything a packet can change in it."""

    def __init__(self, policy, flow_cache):
        self.ports = {
            PLAIN: Port(), NARROW: Port(mtu=MTU), ETHER: Port("ethernet"),
            DIES: Port(), ALT: Port(),
            MEMBER_A: Port(queue_depth=1), MEMBER_B: Port(queue_depth=2),
        }
        logical = LogicalPortMap()
        logical.add_trunk(
            FLOW_HASH, [MEMBER_A, MEMBER_B], SelectionPolicy.FLOW_HASH
        )
        logical.add_trunk(
            LEAST_LOADED, [MEMBER_A, MEMBER_B], SelectionPolicy.LEAST_LOADED
        )
        logical.add_transit(
            TRANSIT, [HeaderSegment(port=NARROW), HeaderSegment(port=PLAIN)]
        )
        groups = GroupPortMap()
        groups.add_group(GROUP, [PLAIN, ALT])
        self.token_cache = TokenCache(
            TokenMint(SECRET, issuer="r"), policy=policy
        )
        self.pipeline = ForwardingPipeline(
            "r", token_cache=self.token_cache,
            ports=PortMap(self.ports, load_view=self.ports),
            logical=logical, groups=groups, flow_cache=flow_cache,
        )

    def decide(self, segment, alternate, in_port, wire_size, now_ms, arrival):
        """``(decision, answered)``: whether the flow cache answered."""
        return decide(self.pipeline, HopInput(
            segment=segment, seg_count=3, wire_size=wire_size,
            in_port=in_port, now_ms=now_ms,
            reverse_portinfo=lambda: arrival,
            alternate=lambda: list(alternate) if alternate else None,
        ))

    def token_state(self):
        cache = self.token_cache
        return (
            cache.hits, cache.misses, cache.invalid_seen,
            {
                token: (entry.valid, entry.packets, entry.bytes)
                for token, entry in cache._entries.items()
            },
            cache.ledger.records,
        )


def fields_of(segment):
    if segment is None:
        return None
    return (
        segment.port, segment.priority, segment.vnt, segment.dib,
        segment.rpf, segment.slick, segment.token, segment.portinfo,
    )


def outcome(decision):
    """Everything a driver applies — not who answered."""
    return dict(
        action=decision.action,
        reason=decision.reason,
        drop_fields=decision.drop_fields,
        out_port=decision.out_port,
        effective=fields_of(decision.effective),
        return_segment=decision.return_segment,
        splice_tail=decision.splice_tail,
        truncate_to=decision.truncate_to,
        dst_mac=decision.dst_mac,
        token_delay=decision.token_delay,
        slick_reroute=decision.slick_reroute,
        branches=decision.branches,
        fanout_replaces_route=decision.fanout_replaces_route,
    )


#: The rest of every frame's route, behind the segment under test.
REST = (HeaderSegment(port=PLAIN, token=b"n" * 8), HeaderSegment(port=0))
PAYLOAD = bytes(range(64))


def moved(decision, segment, alternate, in_port):
    """The bytes a FORWARD ``decision`` moves a frame to — the frame the
    hop described: ``segment`` leading, its alternate block behind the
    route when it is slick — through the one applier
    (:func:`~repro.live.frames.forward_into`, which appends the
    decision's memoized tail or encodes its return hop, then
    :func:`~repro.live.frames.truncate_into`).  None when there is no
    move to make: not a FORWARD, an unknown arrival port (dropped before
    the move), or a slick segment without a block (no such frame)."""
    if decision.action is not Action.FORWARD or in_port == UNKNOWN_IN_PORT:
        return None
    if segment.slick and not alternate:
        return None
    datagram = encode_live_frame(SirpentPacket(
        segments=[segment, *REST], payload_size=len(PAYLOAD), payload=PAYLOAD,
        alternates=[list(alternate)] if segment.slick else [],
    ), PAYLOAD)
    view = PacketView(bytearray(2 * len(datagram) + 256), 0, len(datagram))
    view.buffer[:len(datagram)] = datagram
    preamble = decode_preamble(datagram)
    assert forward_into(
        view, decision, preamble, segment_span(datagram, preamble.header_len)
    )
    if decision.truncate_to:
        try:
            assert truncate_into(view, decision.truncate_to)
        except ValueError:  # not even the headers fit: both refuse alike
            return "refused"
    return view.tobytes()


def assert_warm_equals_cold(policy, script, capacity=2, ttl_ms=100, seen=None):
    """Feed ``script`` to a caching and a cold pipeline in lockstep.

    A step is ``("hop", segment, alternate, in_port, wire_size, dt_ms,
    arrival)``, ``("kill", port)`` or ``("revive", port)``.  ``seen``
    collects what the caching pipeline did, for the coverage test.
    Returns the caching pipeline's flow-cache counters.
    """
    warm = World(policy, FlowCache(capacity=capacity, ttl_ms=ttl_ms))
    cold = World(policy, FlowCache(enabled=False))
    now_ms = 0
    for at, step in enumerate(script):
        if step[0] != "hop":
            for world in (warm, cold):
                world.ports[step[1]].up = step[0] == "revive"
            continue
        _, segment, alternate, in_port, wire_size, dt_ms, arrival = step
        now_ms += dt_ms
        (got, answered), (expected, oracle_answered) = (
            world.decide(segment, alternate, in_port, wire_size, now_ms, arrival)
            for world in (warm, cold)
        )
        assert not oracle_answered
        for part, value in outcome(expected).items():
            assert outcome(got)[part] == value, (at, part, step)
        assert moved(got, segment, alternate, in_port) == moved(
            expected, segment, alternate, in_port
        ), (at, step)
        assert warm.token_state() == cold.token_state(), (at, step)
        if seen is not None:
            seen.update(sightings(got, answered))
    return warm.pipeline.flow_cache.stats


def sightings(decision, answered):
    yield decision.reason or decision.action.value
    if decision.slick_reroute:
        yield "reroute"
    if answered:
        yield "hit"
        if decision.truncate_to:
            yield "hit+truncated"
        if decision.splice_tail:
            yield "hit+splice"
        if decision.return_segment is not None and decision.return_tail is None:
            yield "hit+rebuilt"


# One thing the generators keep off, by design: a flow-hash trunk member
# that died does not come back.  The flow stays on the surviving member
# until its entry expires (ordered delivery), where a cold decision would
# move it back at once.


# -- every flag nibble × priority × token kind, directed ----------------------


@pytest.mark.parametrize("policy", list(CachePolicy))
@pytest.mark.parametrize("port", [PLAIN, DIES, TRANSIT, FLOW_HASH])
def test_every_flag_nibble_and_priority(policy, port):
    """All 16 × 16 leading-byte variants of one flow, each packet sent
    twice (cold, then warm), two passes, every slick variant followed at
    once by its non-slick twin — its memo is still there to trip on;
    ``DIES`` is down, so its slick variants take a reroute each time."""
    script = [("kill", DIES)]
    for token_kind in ("none", "reverse_ok", "low_priority"):
        for _ in range(2):
            for priority in range(16):
                for flags in sorted(range(16), key=lambda f: (f >> 1, not f & 1)):
                    script += [(
                        "hop",
                        segment_of(port, token_kind, b"", flags, priority),
                        ALTERNATES[1] if flags & 1 else None,
                        7, 100, 0, ARRIVALS[0],
                    )] * 2
    stats = assert_warm_equals_cold(policy, script, capacity=1024, ttl_ms=0)
    # A flow into the dead port is purged by its own first hit.
    assert stats.hits > len(script) // (8 if port == DIES else 4)


# -- generated interleavings ---------------------------------------------------


@st.composite
def scripts(draw):
    pool = draw(st.lists(st.tuples(
        st.sampled_from(PORTS), st.sampled_from(TOKEN_KINDS),
        st.sampled_from(PORTINFOS), st.sampled_from(ALTERNATES),
    ), min_size=1, max_size=3))
    flows = []
    for which, flags, priority in draw(st.lists(st.tuples(
        st.integers(0, 2), st.integers(0, 15),
        st.sampled_from((0, 0, 1, 5, 9, 15)),
    ), min_size=1, max_size=4)):
        port, token_kind, portinfo, alternate = pool[which % len(pool)]
        flows.append((
            segment_of(port, token_kind, portinfo, flags, priority),
            alternate if flags & 1 else None,
        ))
    hop = st.tuples(
        st.just("hop"),
        st.integers(0, len(flows) - 1),
        st.sampled_from((7, 7, 7, 7, 7, 8, UNKNOWN_IN_PORT)),
        st.sampled_from((0, 64, 100, 100, MTU - 3, MTU + 40, 400)),
        st.sampled_from((0, 0, 0, 0, 0, 1, 30, 250)),
        st.sampled_from((0, 0, 0, 1, 2)),
    )
    mutation = st.tuples(
        st.sampled_from(("kill", "kill", "revive")), st.sampled_from(MORTAL)
    )
    script = []
    for step in draw(st.lists(
        st.one_of(hop, hop, hop, hop, hop, hop, mutation),
        min_size=12, max_size=60,
    )):
        if step[0] == "hop":
            _, flow, in_port, wire_size, dt_ms, arrival = step
            step = ("hop", *flows[flow], in_port, wire_size, dt_ms,
                    ARRIVALS[arrival])
        elif step == ("revive", MEMBER_A):
            continue
        script.append(step)
    return script


@pytest.mark.parametrize("policy", list(CachePolicy))
@settings(max_examples=300, deadline=None, derandomize=True, print_blob=True)
@given(script=scripts())
def test_generated_sequences(policy, script):
    assert_warm_equals_cold(policy, script)


def test_the_generator_reaches_what_it_claims():
    """The mix warms up, evicts, expires, reroutes, truncates, rebuilds
    return hops and meets every drop it names — or the differential
    above compares nothing."""
    seen, totals = set(), []

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(script=scripts())
    def collect(script):
        totals.append(assert_warm_equals_cold(
            CachePolicy.OPTIMISTIC, script, seen=seen
        ))

    collect()
    assert sum(stats.evictions for stats in totals)
    assert sum(stats.expirations for stats in totals)
    assert sum(stats.invalidations for stats in totals)
    for fate in (
        "forward", "local", "fanout", "hit", "hit+truncated", "hit+splice",
        "hit+rebuilt", "reroute", "no_route", "token_reject", "bad_portinfo",
        "slick_fallback_exhausted",
    ):
        assert fate in seen, (fate, sorted(seen))
