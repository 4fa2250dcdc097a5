"""Batch ≡ frames: how an rx batch falls changes nothing.

``LiveRouter._on_batch`` asks the pipeline for one decision per frame,
handing it the frame's leading-segment *bytes*; the §2.2 flow cache
answers a frame that repeats the one before it — the rest of a packet
group — by comparing them, and parses nothing it knows.  What a frame
meets must not depend on which frames shared its wakeup, so the
reference is **the same router fed one-frame batches**; there is no
second implementation to compare against, here or in ``src/``.

Every case below wires identical socket-free routers (frozen clock,
recording ``send_view``), feeds one each batch whole, one the same
frames as one-frame batches and one the same frames cut at random
points, and requires the same per-frame fate — bytes sent and
destination, or drop reason — and the same soft state afterwards:
``EndpointMetrics``, ``FlowCacheStats``, every ``FlowEntry.hits`` in
flow-cache LRU order, ``TokenCache`` hits / misses and per-entry packets
/ bytes, every ``UsageRecord``, the flight-recorder event sequence and
the hop tracer's — and one ``pipeline.decide`` per frame that has a
leading segment, however the batches fall (the benchmark's per-layer
rows divide by it).  The directed cases pin, frame by frame, the fates
the issues name and what the caches counted; the generated ones (2,500
batches) mix them.
"""

import random
from collections import Counter

import pytest

from repro.live.frames import (
    PREAMBLE_BYTES,
    decode_preamble,
    encode_live_frame,
    return_tail_of,
)
from repro.live.router import LiveRouter
from repro.obs.recorder import FlightRecorder
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment, decode_segment, encode_segment, segment_span
from tests.live.oracle import capture_router, free_slots, slot_view

SLOT_BYTES = 512

PEER_A = ("127.0.0.1", 9001)   # arrives on port 1
PEER_B = ("127.0.0.1", 9002)   # arrives on port 2
STRANGER = ("127.0.0.1", 9999)  # wired to nothing

LIVE, DEAD, ALT, UNWIRED = 3, 4, 5, 9
PEER_DEAD = ("127.0.0.1", 9000 + DEAD)

ALTERNATE = [HeaderSegment(port=ALT), HeaderSegment(port=0)]


class RecordingTracer:
    """A hop tracer that keeps what it is told, and reads no clock."""

    def __init__(self):
        self.log = []

    def event(self, trace_id, node, name, **attrs):
        self.log.append((trace_id, node, name, attrs))

    def drop(self, trace_id, node, reason, **attrs):
        self.log.append((trace_id, node, "drop:" + reason, attrs))


class Bench:
    """One socket-free router and everything a frame can do to it."""

    def __init__(self):
        router, _ = capture_router(
            "r", ports=(1, 2, LIVE, DEAD, ALT), slot_bytes=SLOT_BYTES
        )
        self.router = router
        self.now_ms = 0
        router._now_ms = lambda: self.now_ms
        #: One entry per frame, in arrival order.
        self.fates = []
        #: ``pipeline.decide`` calls, counted as the benchmark's probe
        #: does: by wrapping the attribute on the instance.
        self.decides = 0
        decide = router.pipeline.decide

        def counted(hop):
            self.decides += 1
            return decide(hop)

        router.pipeline.decide = counted
        drop = router.metrics.drop

        def recorded_drop(reason):
            self.fates.append(("drop", reason))
            drop(reason)

        router.metrics.drop = recorded_drop

        def send_view(view, addr):
            self.fates.append(("forward", view.tobytes(), addr))
            view.release()
            return 0

        router.endpoint.send_view = send_view
        router.local_handler = lambda datagram, source: self.fates.append(
            ("deliver", datagram, source)
        )
        router.set_recorder(FlightRecorder(clock=lambda: 0.0))
        router.set_tracer(RecordingTracer())
        router._on_peer_dead(PEER_DEAD)

    def feed(self, arrivals, cuts=()):
        """Hand ``arrivals`` (``(datagram, source)`` pairs) to the router
        as batches cut before each index in ``cuts``."""
        ring = self.router.endpoint.ring
        edges = [0, *cuts, len(arrivals)]
        for start, end in zip(edges, edges[1:]):
            if start == end:
                continue
            self.router._on_batch([
                (slot_view(ring, datagram), source, decode_preamble(datagram))
                for datagram, source in arrivals[start:end]
            ])
        assert free_slots(ring) == len(ring._slots)  # every slot came back

    def state(self):
        """Everything the issue requires to come out identical."""
        router = self.router
        return {
            "metrics": router.metrics,
            "flow_stats": router.flow_cache.stats,
            # An OrderedDict lists in LRU order.
            "flows": [
                (key, entry.hits, entry.decision.out_port,
                 entry.expires_at_ms)
                for key, entry in router.flow_cache._entries.items()
            ],
            "token_cache": (
                router.token_cache.hits, router.token_cache.misses,
                router.token_cache.invalid_seen,
            ),
            "tokens": {
                token: (entry.valid, entry.packets, entry.bytes)
                for token, entry in router.token_cache._entries.items()
            },
            "ledger": router.token_cache.ledger.records,
            "recorder": [
                (event.name, event.node, event.fields)
                for event in router.recorder.events()
            ],
            "tracer": router.tracer.log,
            "dead_ports": router.dead_ports,
        }


def assert_batch_equals_frames(script, rng=None):
    """Run ``script`` — a list of ``(now_ms, arrivals)`` batches — through
    a router fed whole batches, one fed single frames and one fed random
    cuts; returns the whole-batch bench for further asserts."""
    rng = rng or random.Random(0)
    whole, single, cut = Bench(), Bench(), Bench()
    for now_ms, arrivals in script:
        for bench in (whole, single, cut):
            bench.now_ms = now_ms
        whole.feed(arrivals)
        single.feed(arrivals, cuts=range(1, len(arrivals)))
        cut.feed(arrivals, cuts=sorted(
            rng.sample(range(1, len(arrivals)), rng.randrange(len(arrivals)))
        ) if len(arrivals) > 1 else ())
        assert len(whole.fates) == len(single.fates)  # one fate per frame
        for at, (got, expected) in enumerate(zip(whole.fates, single.fates)):
            assert got == expected, f"frame {at}"
        assert cut.fates == single.fates
        reference = single.state()
        for bench in (whole, cut):
            state = bench.state()
            for part, expected in reference.items():
                assert state[part] == expected, part
    assert single.decides == cut.decides == whole.decides
    return whole, single


def frame(leading, rest=(HeaderSegment(port=0),), payload=b"p" * 64,
          trace_id=0, fill=False, alternate=ALTERNATE):
    """One live data frame; ``fill`` pads the payload so the frame is
    exactly one ring slot long (its outgoing form then is not)."""
    segments = [leading, *rest]
    alternates = [list(alternate) for s in segments if s.slick]

    def encode(body):
        packet = SirpentPacket(
            segments=list(segments), payload_size=len(body), payload=body,
            alternates=alternates, trace_id=trace_id,
        )
        return encode_live_frame(packet, body, trace_id=trace_id)

    if fill:
        payload = b"f" * (SLOT_BYTES - len(encode(b"")))
    return encode(payload)


def block_offset(datagram):
    """Where the leading alternate block's count octet sits."""
    preamble = decode_preamble(datagram)
    offset = preamble.header_len
    for _ in range(preamble.seg_count):
        offset = segment_span(datagram, offset)
    return offset


def with_corrupt_block(datagram):
    """``datagram`` with its leading alternate block claiming no segments."""
    corrupt = bytearray(datagram)
    corrupt[block_offset(datagram)] = 0
    return bytes(corrupt)


def cut_inside_leading_segment(datagram):
    """``datagram`` cut two bytes into its leading segment."""
    return datagram[: decode_preamble(datagram).header_len + 2]


def kinds(fates):
    """``F`` forwarded, ``L`` delivered locally, else the drop reason."""
    return [
        {"forward": "F", "deliver": "L"}.get(fate[0]) or fate[1]
        for fate in fates
    ]


def token_for(port=LIVE, **claims):
    return LiveRouter("r").mint.mint(port=port, account=7, **claims)


def cache_counts(bench):
    """``(hits, misses)`` of the flow cache."""
    stats = bench.router.flow_cache.stats
    return stats.hits, stats.misses


# -- the fates the issues name, frame by frame --------------------------------


class TestDirectedRuns:
    def test_a_packet_group_is_decided_and_counted_per_frame(self):
        datagram = frame(HeaderSegment(port=LIVE, token=token_for()))
        whole, single = assert_batch_equals_frames(
            [(0, [(datagram, PEER_A)] * 12)]
        )
        assert kinds(whole.fates) == ["F"] * 12
        assert (whole.decides, single.decides) == (12, 12)
        # Cold install, then eleven answers from the cache.
        assert cache_counts(whole) == (11, 1)
        assert whole.router.token_cache.hits == 11
        assert whole.router.token_cache.ledger.usage(7).packets == 12

    def test_one_frame_batches_warm_a_flow_like_one_batch(self):
        datagram = frame(HeaderSegment(port=LIVE))
        whole, _ = assert_batch_equals_frames(
            [(now, [(datagram, PEER_A)]) for now in range(6)]
        )
        assert cache_counts(whole) == (5, 1)

    def test_interleaved_flows_and_peers_each_keep_their_entry(self):
        a = frame(HeaderSegment(port=LIVE, token=token_for()))
        b = frame(HeaderSegment(port=ALT))
        arrivals = [
            (a, PEER_A), (a, PEER_A), (a, PEER_B), (a, PEER_B), (a, PEER_A),
            (b, PEER_A), (b, PEER_A), (b, PEER_A), (a, PEER_A), (b, PEER_B),
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals), (1, arrivals)])
        assert kinds(whole.fates) == ["F"] * 20
        # a/A, a/B, b/A and b/B each miss once; a change of flow or peer
        # mid-batch finds its own entry, never its predecessor's.
        assert cache_counts(whole) == (16, 4)
        assert len(whole.router.flow_cache._entries) == 4

    def test_flag_bits_on_the_same_token_are_different_flows(self):
        token = token_for(max_priority=7)
        variants = [
            HeaderSegment(port=LIVE, token=token),
            HeaderSegment(port=LIVE, token=token, priority=5),
            HeaderSegment(port=LIVE, token=token, dib=True),
            HeaderSegment(port=LIVE, token=token, vnt=True),
            HeaderSegment(port=LIVE, token=token, slick=True),
        ]
        arrivals = [
            (frame(leading), PEER_A) for leading in variants for _ in range(3)
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals), (1, arrivals)])
        assert kinds(whole.fates) == ["F"] * 30
        ledger = whole.router.token_cache.ledger.usage(7)
        assert ledger.by_priority == {0: 24, 5: 6}
        # The key is the leading segment's bytes: every bit of the flags
        # nibble makes its own entry, DIB and VNT included.
        assert cache_counts(whole) == (25, 5)

    def test_a_traced_frame_among_untraced_ones_is_traced_alone(self):
        leading = HeaderSegment(port=LIVE)
        plain = frame(leading)
        traced = frame(leading, trace_id=0xABCDEF)
        arrivals = [(plain, PEER_A)] * 4 + [(traced, PEER_A)] * 2 + [
            (plain, PEER_A)
        ] * 3
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 9
        # One flow: the trace id sits before the leading segment, not in
        # it, so the traced frames are answered by the same entry.
        assert cache_counts(whole) == (8, 1)
        events = Counter(name for _, _, name, _ in whole.router.tracer.log)
        assert events == {"switch_decision": 2, "strip_reverse_append": 2}
        assert {t for t, _, _, _ in whole.router.tracer.log} == {0xABCDEF}

    def test_a_trace_id_cannot_pose_as_the_leading_segment(self):
        """A traced frame's leading segment starts eight bytes later
        than an untraced one's: here the trace id's leading bytes are
        the previous frame's leading segment."""
        leading = HeaderSegment(port=LIVE)
        plain = frame(leading)
        posing = frame(
            HeaderSegment(port=ALT), rest=(HeaderSegment(port=0),),
            trace_id=int.from_bytes(encode_segment(leading) + b"\0\0\0\1", "big"),
        )
        assert posing[PREAMBLE_BYTES:PREAMBLE_BYTES + 4] == (
            plain[PREAMBLE_BYTES:PREAMBLE_BYTES + 4]
        )
        arrivals = [(plain, PEER_A)] * 3 + [(posing, PEER_A)] + [
            (plain, PEER_A)
        ] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert [fate[2][1] - 9000 for fate in whole.fates] == [
            LIVE, LIVE, LIVE, ALT, LIVE, LIVE,
        ]

    def test_an_untraced_frame_cannot_pose_as_the_traced_one_before_it(self):
        """…and the other way round: an untraced frame whose leading
        segment begins with the previous frame's trace id."""
        leading = HeaderSegment(port=LIVE)
        # 00 08 05 00 ++ "tokn": an 8-byte-token segment for port ALT,
        # cut after four token bytes — its other four are ``leading``.
        trace_id = int.from_bytes(b"\x00\x08\x05\x00tokn", "big")
        traced = frame(leading, trace_id=trace_id)
        posing = frame(
            HeaderSegment(port=ALT, token=b"tokn" + encode_segment(leading))
        )
        assert posing[PREAMBLE_BYTES:PREAMBLE_BYTES + 12] == (
            traced[PREAMBLE_BYTES:PREAMBLE_BYTES + 12]
        )
        arrivals = [(traced, PEER_A)] * 2 + [(posing, PEER_A)] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert [fate[2][1] - 9000 for fate in whole.fates[:3]] == [
            LIVE, LIVE, ALT,
        ]

    def test_seg_count_differing_under_equal_leading_bytes(self):
        leading = HeaderSegment(port=LIVE)
        short = frame(leading)
        long = frame(leading, rest=(HeaderSegment(port=7), HeaderSegment(port=0)))
        arrivals = [(short, PEER_A)] * 3 + [(long, PEER_A)] * 3 + [
            (short, PEER_A)
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 7
        # One entry answers both lengths of route; what is left of each
        # is the frame's own.
        assert cache_counts(whole) == (6, 1)
        assert [decode_preamble(fate[1]).seg_count for fate in whole.fates] == [
            1, 1, 1, 2, 2, 2, 1,
        ]

    def test_the_byte_budget_runs_out_on_the_frame_the_reference_rejects(self):
        token = token_for(byte_limit=4 * 64 + 10)
        datagram = frame(HeaderSegment(port=LIVE, token=token))
        whole, _ = assert_batch_equals_frames(
            [(0, [(datagram, PEER_A)] * 7)]
        )
        assert kinds(whole.fates) == ["F"] * 4 + ["token_reject"] * 3
        assert whole.router.flow_cache.stats.invalidations == 1
        assert len(whole.router.flow_cache._entries) == 0
        entry = whole.router.token_cache.entry(token)
        # The fifth frame's refusal charged nothing.
        assert (entry.packets, entry.bytes) == (4, 256)
        assert whole.router.token_cache.ledger.usage(7).bytes == 256

    def test_a_block_corrupt_in_one_frame_of_a_slick_run(self):
        # Live egress: no reroute, but the stripped segment takes its
        # alternate block along, so the move walks the block per frame.
        good = frame(HeaderSegment(port=LIVE, slick=True))
        bad = with_corrupt_block(good)
        arrivals = [(good, PEER_A)] * 3 + [(bad, PEER_A)] + [(good, PEER_A)] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 3 + ["undecodable"] + ["F"] * 2
        assert whole.router.metrics.slick_reroutes == 0
        # The corrupt frame's leading segment is intact, so the cache
        # answers it, it is charged like the reference charges it, and
        # is refused by the move; the flow goes on behind it.
        assert cache_counts(whole) == (5, 1)

    def test_every_frame_of_a_rerouted_flow_is_rerouted_afresh(self):
        datagram = frame(HeaderSegment(port=DEAD, slick=True))
        whole, _ = assert_batch_equals_frames(
            [(0, [(datagram, PEER_A)] * 5)]
        )
        assert kinds(whole.fates) == ["F"] * 5
        assert {fate[2] for fate in whole.fates} == {("127.0.0.1", 9000 + ALT)}
        assert whole.router.metrics.slick_reroutes == 5
        assert cache_counts(whole) == (0, 5)
        assert len(whole.router.flow_cache._entries) == 0

    def test_two_frames_one_leading_segment_two_alternates(self):
        """Regression: both frames of one batch share the slick leading
        segment and the arrival port; each must leave on its *own*
        alternate's port.  The reroute used to be memoized under the
        leading segment alone, and the second frame's own spliced route
        went out of the first frame's port."""
        leading = HeaderSegment(port=DEAD, slick=True)
        via_alt = frame(leading)
        via_live = frame(
            leading, alternate=[HeaderSegment(port=LIVE), HeaderSegment(port=0)]
        )
        arrivals = [(via_alt, PEER_A), (via_live, PEER_A)] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert [fate[2][1] - 9000 for fate in whole.fates] == [
            ALT, LIVE, ALT, LIVE,
        ]

    def test_an_outgoing_oversize_frame_mid_run(self):
        leading = HeaderSegment(port=LIVE)  # 4 B stripped, 6 B appended
        fits, full = frame(leading), frame(leading, fill=True)
        assert len(full) == SLOT_BYTES
        arrivals = [(fits, PEER_A)] * 3 + [(full, PEER_A)] + [(fits, PEER_A)] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 3 + ["oversize"] + ["F"] * 2
        assert cache_counts(whole) == (5, 1)

    def test_a_frame_cut_inside_its_leading_segment_mid_run(self):
        datagram = frame(HeaderSegment(port=LIVE, token=token_for()))
        arrivals = [(datagram, PEER_A)] * 3 + [
            (cut_inside_leading_segment(datagram), PEER_A)
        ] + [(datagram, PEER_A)] * 3
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 3 + ["undecodable"] + ["F"] * 3
        # The short frame never reaches the pipeline, and the flow's
        # entry is there for the frame behind it.
        assert whole.decides == 6
        assert cache_counts(whole) == (5, 1)

    def test_an_unknown_peer_and_port_zero_mid_run(self):
        datagram = frame(HeaderSegment(port=LIVE))
        local = frame(HeaderSegment(port=0), rest=())
        arrivals = [
            (datagram, PEER_A), (datagram, PEER_A), (datagram, PEER_A),
            (datagram, STRANGER), (datagram, STRANGER),
            (datagram, PEER_A), (local, PEER_A), (local, PEER_A),
            (datagram, PEER_A), (datagram, PEER_A),
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == [
            "F", "F", "F", "unknown_peer", "unknown_peer",
            "F", "L", "L", "F", "F",
        ]
        # The stranger's frames are decided but never memoised; local
        # delivery does not consult the cache.
        assert cache_counts(whole) == (5, 3)

    def test_a_frame_from_the_dead_peer_revives_its_port_mid_batch(self):
        slick = frame(HeaderSegment(port=DEAD, slick=True))
        hello = frame(HeaderSegment(port=LIVE))
        arrivals = [(slick, PEER_A)] * 3 + [(hello, PEER_DEAD)] + [
            (slick, PEER_A)
        ] * 4
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert whole.router.dead_ports == set()
        # Rerouted until the peer is heard from, and not a frame longer.
        assert kinds(whole.fates) == ["F"] * 8
        assert [fate[2][1] - 9000 for fate in whole.fates] == (
            [ALT] * 3 + [LIVE] + [DEAD] * 4
        )
        assert whole.router.metrics.slick_reroutes == 3

    def test_the_clock_moves_between_batches_not_inside_one(self):
        token = token_for(expiry_ms=25)
        datagram = frame(HeaderSegment(port=LIVE, token=token))
        script = [
            (now, [(datagram, PEER_A)] * 4) for now in (0, 20, 30, 20_000)
        ]
        whole, _ = assert_batch_equals_frames(script)
        # Cached claims need no re-verify to be read: past the token's
        # expiry every frame is refused, however stale the cache entry.
        assert kinds(whole.fates) == ["F"] * 8 + ["token_reject"] * 8
        assert whole.router.token_cache.misses == 1
        assert whole.router.flow_cache.stats.expirations == 1


class TestTheLeadFoundOnce:
    """The core finds a frame's leading segment by comparing the frame
    with the lead the flow cache answered with last for the frame's
    arrival port, and walks it only when that compare fails.  Each frame
    below sits next to the remembered lead without being it; it meets
    the fate it meets alone and is decided once."""

    def lead_of(self, datagram):
        header_len = decode_preamble(datagram).header_len
        return datagram[header_len:segment_span(datagram, header_len)]

    def test_a_lead_differing_only_in_its_last_byte(self):
        token = token_for()
        remembered = frame(HeaderSegment(port=LIVE, token=token))
        flipped = frame(HeaderSegment(
            port=LIVE, token=token[:-1] + bytes((token[-1] ^ 1,)),
        ))
        ethernet = HeaderSegment(port=LIVE, portinfo=bytes(range(14)))
        last_info = frame(ethernet.copy(portinfo=bytes(range(13)) + b"\xff"))
        assert self.lead_of(flipped)[:-1] == self.lead_of(remembered)[:-1]
        assert self.lead_of(flipped) != self.lead_of(remembered)
        arrivals = [(remembered, PEER_A)] * 3 + [(flipped, PEER_A)] * 2 + [
            (remembered, PEER_A), (frame(ethernet), PEER_A),
            (last_info, PEER_A), (frame(ethernet), PEER_A),
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        # The flipped token was never minted: refused once its check ran.
        assert kinds(whole.fates) == (
            ["F"] * 3 + ["F", "token_reject", "F", "F", "F", "F"]
        )
        assert whole.decides == len(arrivals)
        # remembered: 1 miss + 3 hits; flipped: 2 misses (never
        # installed: its claims fail); each Ethernet variant its own.
        assert cache_counts(whole) == (4, 5)

    def test_the_remembered_lead_on_another_port(self):
        datagram = frame(HeaderSegment(port=LIVE, token=token_for()))
        arrivals = [(datagram, PEER_A)] * 3 + [(datagram, PEER_B)] * 3 + [
            (datagram, PEER_A), (datagram, STRANGER), (datagram, PEER_B),
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 7 + ["unknown_peer", "F"]
        assert whole.decides == len(arrivals)
        # One entry per arrival port; the stranger's frame is never
        # memoised, and the same bytes from it find no entry.
        assert cache_counts(whole) == (6, 3)
        assert len(whole.router.flow_cache._entries) == 2

    def test_frames_alternating_between_two_ports_are_never_walked(
        self, monkeypatch,
    ):
        """One transaction at a time: a request and its reply cross the
        router in turn, on two arrival ports.  Each port remembers its
        own flow's lead, so once both flows are warm no frame is walked;
        with one lead remembered for the whole cache, every frame was."""
        there = frame(HeaderSegment(port=2, token=token_for(port=2)))
        back = frame(HeaderSegment(port=1, token=token_for(port=1)))
        arrivals = [(there, PEER_A), (back, PEER_B)] * 6
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * len(arrivals)

        bench = Bench()
        bench.feed(arrivals[:2])  # each flow's first frame walks and installs
        walks = []
        monkeypatch.setattr(
            "repro.dataplane.router.segment_span",
            lambda *args: walks.append(args) or segment_span(*args),
        )
        bench.feed(arrivals, cuts=range(1, len(arrivals)))
        assert walks == []
        assert cache_counts(bench) == (len(arrivals), 2)
        assert bench.fates[2:] == whole.fates

    def test_a_frame_cut_inside_or_at_the_end_of_the_remembered_lead(self):
        datagram = frame(HeaderSegment(port=LIVE, token=token_for()))
        lead_end = decode_preamble(datagram).header_len + len(
            self.lead_of(datagram)
        )
        one_short, exact = datagram[:lead_end - 1], datagram[:lead_end]
        # The stranger's frame is refused unmoved, so a one-frame batch
        # after it lands in its slot over all of the lead's bytes: only
        # the frame's own end tells the cut frame from a whole one.
        arrivals = [(datagram, PEER_A)] * 2 + [
            (datagram, STRANGER), (one_short, PEER_A),
            (datagram, PEER_A), (exact, PEER_A), (datagram, PEER_A),
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        # One byte short of the lead is no segment; the whole lead with
        # nothing behind it is one, and moves as the reference moves it.
        assert kinds(whole.fates) == [
            "F", "F", "unknown_peer", "undecodable", "F", "F", "F",
        ]
        assert whole.decides == len(arrivals) - 1
        assert cache_counts(whole) == (4, 2)

    @pytest.mark.parametrize("escaped", [False, True])
    def test_a_longer_token_behind_the_remembered_leads_bytes(self, escaped):
        """The next frame's token is the remembered one's bytes and then
        more: its length octet differs (and under the 255 escape, its
        32-bit length), so it is a flow of its own, stripped whole."""
        token = bytes(range(256)) + b"t" * 44 if escaped else token_for()
        short = HeaderSegment(port=LIVE, token=token)
        longer = short.copy(token=token + b"more")
        at = 8 if escaped else 4  # where the token's bytes start
        assert encode_segment(longer)[at:at + len(token)] == token
        arrivals = [(frame(short), PEER_A)] * 3 + [(frame(longer), PEER_A)] * 2 + [
            (frame(short), PEER_A)
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert whole.decides == len(arrivals)
        # Each token is admitted on its first frame and checked then: the
        # minted one holds, the longer (and any unminted) one does not.
        assert kinds(whole.fates) == (
            ["F", "token_reject", "token_reject", "F", "token_reject",
             "token_reject"] if escaped
            else ["F", "F", "F", "F", "token_reject", "F"]
        )
        assert cache_counts(whole) == ((0, 6) if escaped else (3, 3))
        moved = len(frame(longer)) - len(whole.fates[3][1])
        assert moved == len(encode_segment(longer)) - len(
            return_tail_of(HeaderSegment(port=1))
        )

    def test_a_frames_parse_is_its_own(self):
        """``FrameHop.segment`` is memoised on the identity of
        ``hop.lead``, which is the flow cache's own bytes when a frame
        repeats the last entry's lead: whatever object the lead is, the
        segment the pipeline parses is the frame's own.  Checked on
        every cold decision of the generated batches, whose flows run
        out of budget, expire, lose their egress and reroute."""
        parsed = 0
        for world in range(40):
            rng = random.Random(0x1EAD0000 + world)
            bench = Bench()
            hop = bench.router.core.hop
            pipeline = bench.router.pipeline
            cold = pipeline._decide_cold

            def checked(hop_input, port, cold=cold, hop=hop):
                nonlocal parsed
                assert hop_input is hop
                own = bytes(hop.view.mem[hop.header_len:hop.next_rel])
                assert hop.segment.to_segment() == decode_segment(own)[0]
                parsed += 1
                return cold(hop_input, port)

            pipeline._decide_cold = checked
            for now_ms, arrivals in generated_script(rng):
                bench.now_ms = now_ms
                bench.feed(arrivals)
        assert parsed > 400


# -- the flow cache's per-port last-answer shortcut, through the driver -------


def between_frames(bench, mutation):
    """Run ``mutation`` right after the next frame is sent: between two
    frames of one batch."""
    endpoint = bench.router.endpoint
    send_view = endpoint.send_view

    def once(view, addr):
        endpoint.send_view = send_view
        send_view(view, addr)
        mutation()

    endpoint.send_view = once


PEER_LIVE = ("127.0.0.1", 9000 + LIVE)

INVALIDATIONS = {
    "connect_port(egress)": lambda router: router.connect_port(LIVE, PEER_LIVE),
    "connect_port(ingress)": lambda router: router.connect_port(1, PEER_A),
    "_on_peer_dead(egress)": lambda router: router._on_peer_dead(PEER_LIVE),
    "flow_cache.flush": lambda router: router.flow_cache.flush(),
    "token_cache.flush": lambda router: router.token_cache.flush(),
}


class TestTheShortcutNeverOutlivesAnInvalidation:
    """Two byte-identical frames with the entry's death between them:
    the second is decided cold — the miss counted, the token re-admitted
    (``tests/dataplane/test_warm_stage.py`` has the pipeline's own ways
    for an entry to go)."""

    def admits(self, bench):
        token_cache = bench.router.token_cache
        return token_cache.hits + token_cache.misses

    @pytest.mark.parametrize("one_batch", [True, False])
    @pytest.mark.parametrize("name", list(INVALIDATIONS))
    def test_a_driver_invalidation_between_two_frames(self, name, one_batch):
        bench = Bench()
        router = bench.router
        arrival = (frame(HeaderSegment(port=LIVE, token=token_for())), PEER_A)
        bench.feed([arrival] * 3)
        assert cache_counts(bench) == (2, 1)
        admits = self.admits(bench)
        if one_batch:
            between_frames(bench, lambda: INVALIDATIONS[name](router))
            bench.feed([arrival] * 2)
        else:
            bench.feed([arrival])
            INVALIDATIONS[name](router)
            bench.feed([arrival])
        assert kinds(bench.fates) == ["F"] * 5
        assert cache_counts(bench) == (3, 2)
        # One flow hit charged the token, then one cold admission did.
        assert self.admits(bench) == admits + 2
        assert router.token_cache.misses == (
            2 if name == "token_cache.flush" else 1
        )
        assert router.token_cache.ledger.usage(7).packets == 5

    @pytest.mark.live
    def test_a_restart_between_two_frames(self):
        import asyncio

        bench = Bench()
        router = bench.router
        arrival = (frame(HeaderSegment(port=LIVE, token=token_for())), PEER_A)

        async def scenario():
            await router.start()
            try:
                bench.feed([arrival] * 3)
                assert cache_counts(bench) == (2, 1)
                router.stop()
                await asyncio.sleep(0.01)
                await router.restart()
                bench.feed([arrival] * 2)
            finally:
                router.stop()

        asyncio.run(scenario())
        assert kinds(bench.fates) == ["F"] * 5
        assert cache_counts(bench) == (1, 1)  # the reborn router's cache
        assert (router.token_cache.hits, router.token_cache.misses) == (1, 1)

    def test_a_frame_cut_inside_the_remembered_bytes(self):
        """Shorter than the entry's key but longer than a segment's
        fixed fields: the span check refuses it before any compare."""
        datagram = frame(HeaderSegment(port=LIVE, token=token_for()))
        short = datagram[: decode_preamble(datagram).header_len + 12]
        arrivals = [(datagram, PEER_A)] * 2 + [(short, PEER_A)] + [
            (datagram, PEER_A)
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F", "F", "undecodable", "F"]
        assert cache_counts(whole) == (2, 1)


# -- generated batches ---------------------------------------------------------


def leading_pool(rng):
    """A few leading segments that collide on purpose: the same tokens
    under different flag bits, ports that forward, reroute, deliver,
    find no route, and tokens that run out or never were valid."""
    pool = []
    for _ in range(rng.randrange(1, 4)):
        port = rng.choice((LIVE,) * 8 + (ALT, ALT, DEAD, 0, UNWIRED))
        token = rng.choice((
            b"", b"",
            token_for(port), token_for(port, reverse_ok=True),
            token_for(port, byte_limit=rng.choice((700, 3000, 12000))),
            token_for(port, expiry_ms=rng.choice((5, 40))),
            token_for(port ^ 1),           # names another port: rejected
            bytes(rng.randrange(256) for _ in range(32)),  # never valid
        ))
        portinfo = rng.choice((b"", b"", bytes(range(14))))
        pool.append(HeaderSegment(port=port, token=token, portinfo=portinfo))
        if rng.random() < 0.5:  # a sibling one flag bit away
            pool.append(pool[-1].copy(**rng.choice((
                {"priority": 5}, {"dib": True}, {"vnt": True},
                {"slick": True}, {"rpf": True},
            ))))
    return pool


def generated_script(rng):
    pool = leading_pool(rng)
    rests = [
        (HeaderSegment(port=0),),
        (HeaderSegment(port=7, token=b"n" * 8), HeaderSegment(port=0)),
    ]
    script, now_ms = [], 0
    for _ in range(10):
        arrivals = []
        leading, rest, source = rng.choice(pool), rests[0], PEER_A
        for _ in range(rng.choice((1, 2, 3, 5, 8, 12, 16))):
            if rng.random() < 0.15:
                leading = rng.choice(pool)
            if rng.random() < 0.1:
                rest = rng.choice(rests)
            if rng.random() < 0.15:
                source = rng.choice((PEER_A, PEER_A, PEER_B))
            oddity = rng.random()
            datagram = frame(
                leading, rest if leading.port else (),
                payload=b"p" * rng.choice((0, 16, 64, 64, 64, 300)),
                trace_id=0x7000 + len(arrivals) if oddity < 0.03 else 0,
                fill=0.03 <= oddity < 0.06,
            )
            if 0.06 <= oddity < 0.09:
                datagram = cut_inside_leading_segment(datagram)
            elif 0.09 <= oddity < 0.15 and leading.slick:
                datagram = with_corrupt_block(datagram)
            arrivals.append((
                datagram,
                STRANGER if 0.15 <= oddity < 0.18
                else PEER_DEAD if 0.18 <= oddity < 0.19
                else source,
            ))
        script.append((now_ms, arrivals))
        now_ms += rng.choice((0, 1, 1, 7, 30, 11_000))
    return script


WORLDS = 250


@pytest.mark.parametrize("chunk", range(10))
def test_generated_batches_equal_their_frames(chunk):
    seen, frames, decides, reference_decides, hits = Counter(), 0, 0, 0, 0
    for world in range(chunk * WORLDS // 10, (chunk + 1) * WORLDS // 10):
        rng = random.Random(0x5EED0000 + world)
        whole, single = assert_batch_equals_frames(generated_script(rng), rng)
        seen.update(kinds(whole.fates))
        frames += len(whole.fates)
        decides += whole.decides
        reference_decides += single.decides
        hits += whole.router.flow_cache.stats.hits
    # The mix reaches every fate the issue names, in every chunk…
    for fate in ("F", "L", "undecodable", "oversize", "unknown_peer",
                 "token_reject", "no_route"):
        assert seen[fate], (fate, seen)
    # …every frame with a leading segment is decided, however the
    # batches fall, and the cache answers often enough for the
    # comparison to bite.
    assert frames - seen["undecodable"] <= reference_decides <= frames
    assert decides == reference_decides
    assert hits > 0.2 * frames, (hits, frames)
