"""Batch ≡ frames: forwarding an rx batch as runs changes nothing but speed.

``LiveRouter._on_batch`` asks the pipeline for a full decision once per
*run* — consecutive untraced frames of one batch from the same peer with
the same ``seg_count`` and a byte-identical leading segment — and for the
per-packet stage alone (``ForwardingPipeline.decide_same``) on the rest
of the run.  A one-frame batch builds no run state, so the
frame-at-a-time reference is **the same router fed one-frame batches**;
there is no second implementation to compare against, here or in
``src/``.

Every case below wires identical socket-free routers (frozen clock,
recording ``send_view``), feeds one each batch whole, one the same
frames as one-frame batches and one the same frames cut at random
points, and requires the same per-frame fate — bytes sent and
destination, or drop reason — and the same soft state afterwards:
``EndpointMetrics``, ``FlowCacheStats``, every ``FlowEntry.hits`` in
flow-cache LRU order, ``TokenCache`` hits / misses and per-entry packets
/ bytes, every ``UsageRecord``, the flight-recorder event sequence and
the hop tracer's.  The directed cases pin, frame by frame, the fates the
issue names; the generated ones (2,500 batches) mix them.
"""

import random
from collections import Counter

import pytest

from repro.live.frames import decode_preamble, encode_live_frame
from repro.live.router import LiveRouter
from repro.obs.recorder import FlightRecorder
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment, encode_segment, segment_span
from tests.live.oracle import capture_router, slot_view

SLOT_BYTES = 512

PEER_A = ("127.0.0.1", 9001)   # arrives on port 1
PEER_B = ("127.0.0.1", 9002)   # arrives on port 2
STRANGER = ("127.0.0.1", 9999)  # wired to nothing

LIVE, DEAD, ALT, UNWIRED = 3, 4, 5, 9
PEER_DEAD = ("127.0.0.1", 9000 + DEAD)

ALTERNATE = [HeaderSegment(port=ALT), HeaderSegment(port=0)]


class RecordingTracer:
    """A hop tracer that keeps what it is told, minus the wall clock."""

    enabled = True

    def __init__(self):
        self.log = []

    def event(self, trace_id, now, node, name, **attrs):
        self.log.append((trace_id, node, name, attrs))

    def drop(self, trace_id, now, node, reason, **attrs):
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

        def send_view(view, addr, reliable=False):
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
        assert ring.available() == len(ring)  # every slot came back

    def state(self):
        """Everything the issue requires to come out identical."""
        router = self.router
        return {
            "metrics": router.metrics,
            "flow_stats": router.flow_cache.stats,
            # An OrderedDict lists in LRU order.
            "flows": [
                (key, entry.hits, entry.out_port, entry.slick_reroute,
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
    assert single.decides >= cut.decides >= whole.decides
    return whole, single


def frame(leading, rest=(HeaderSegment(port=0),), payload=b"p" * 64,
          trace_id=0, seq=1, fill=False):
    """One live data frame; ``fill`` pads the payload so the frame is
    exactly one ring slot long (its outgoing form then is not)."""
    segments = [leading, *rest]
    alternates = [list(ALTERNATE) for s in segments if s.slick]

    def encode(body):
        packet = SirpentPacket(
            segments=list(segments), payload_size=len(body), payload=body,
            alternates=alternates, trace_id=trace_id,
        )
        return encode_live_frame(packet, body, seq=seq, trace_id=trace_id)

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


# -- the fates the issue names, frame by frame --------------------------------


class TestDirectedRuns:
    def test_a_run_is_decided_once_and_counted_per_frame(self):
        datagram = frame(HeaderSegment(port=LIVE, token=token_for()))
        whole, single = assert_batch_equals_frames(
            [(0, [(datagram, PEER_A)] * 12)]
        )
        assert kinds(whole.fates) == ["F"] * 12
        # Cold install, the first flow hit (now repeatable), ten repeats.
        assert (whole.decides, single.decides) == (2, 12)
        assert whole.router.flow_cache.stats.hits == 11
        assert whole.router.token_cache.hits == 11
        assert whole.router.token_cache.ledger.usage(7).packets == 12

    def test_a_one_frame_batch_builds_no_run(self):
        datagram = frame(HeaderSegment(port=LIVE))
        whole, _ = assert_batch_equals_frames(
            [(now, [(datagram, PEER_A)]) for now in range(6)]
        )
        assert whole.decides == 6

    def test_interleaved_flows_and_peers_decide_at_every_change(self):
        a = frame(HeaderSegment(port=LIVE, token=token_for()))
        b = frame(HeaderSegment(port=ALT))
        arrivals = [
            (a, PEER_A), (a, PEER_A), (a, PEER_B), (a, PEER_B), (a, PEER_A),
            (b, PEER_A), (b, PEER_A), (b, PEER_A), (a, PEER_A), (b, PEER_B),
        ]
        whole, _ = assert_batch_equals_frames([(0, arrivals), (1, arrivals)])
        assert kinds(whole.fates) == ["F"] * 20
        # Cold, a flow's first frame installs it and its second is the
        # first repeatable hit, so only the third b/A is not decided;
        # warm, every change of flow or peer decides and the four frames
        # that follow their like do not.
        assert whole.decides == 9 + 6

    def test_flag_bits_on_the_same_token_are_different_runs(self):
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
        # DIB and VNT are not in the flow key, so their frames hit the
        # plain frame's entry — but never join its run: the run compares
        # the whole leading segment.  Cold, the plain, priority-5 and
        # slick flows each decide twice (install, first hit) and the DIB
        # and VNT variants once; warm, each of the five changes decides
        # once.  The other frames repeat.
        assert whole.decides == (3 * 2 + 2) + 5

    def test_a_traced_frame_mid_run_is_decided_and_traced_alone(self):
        leading = HeaderSegment(port=LIVE)
        plain = frame(leading)
        traced = frame(leading, trace_id=0xABCDEF)
        arrivals = [(plain, PEER_A)] * 4 + [(traced, PEER_A)] * 2 + [
            (plain, PEER_A)
        ] * 3
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 9
        # plain: cold, hit, 2 repeats; traced: 2 decides (never a run);
        # plain again: decide, 2 repeats.
        assert whole.decides == 2 + 2 + 1
        events = Counter(name for _, _, name, _ in whole.router.tracer.log)
        assert events == {"switch_decision": 2, "strip_reverse_append": 2}
        assert {t for t, _, _, _ in whole.router.tracer.log} == {0xABCDEF}

    def test_a_trace_id_cannot_pose_as_the_leading_segment(self):
        """The byte compare starts where an *untraced* body starts, so a
        traced frame must never be compared at all: here its trace id's
        leading bytes are the run's leading segment."""
        leading = HeaderSegment(port=LIVE)
        plain = frame(leading)
        posing = frame(
            HeaderSegment(port=ALT), rest=(HeaderSegment(port=0),),
            trace_id=int.from_bytes(encode_segment(leading) + b"\0\0\0\1", "big"),
        )
        assert posing[11:15] == plain[11:15]
        arrivals = [(plain, PEER_A)] * 3 + [(posing, PEER_A)] + [
            (plain, PEER_A)
        ] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert [fate[2][1] - 9000 for fate in whole.fates] == [
            LIVE, LIVE, LIVE, ALT, LIVE, LIVE,
        ]

    def test_a_traced_frame_never_heads_a_run(self):
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
        assert posing[11:23] == traced[11:23]
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
        assert whole.decides == 2 + 1 + 1

    def test_the_byte_budget_runs_out_on_the_frame_the_reference_rejects(self):
        token = token_for(byte_limit=4 * 64 + 10)
        datagram = frame(HeaderSegment(port=LIVE, token=token))
        whole, _ = assert_batch_equals_frames(
            [(0, [(datagram, PEER_A)] * 7)]
        )
        assert kinds(whole.fates) == ["F"] * 4 + ["token_reject"] * 3
        assert whole.router.flow_cache.stats.invalidations == 1
        assert len(whole.router.flow_cache) == 0
        entry = whole.router.token_cache.entry(token)
        assert (entry.packets, entry.bytes) == (4, 256)
        # Cold, hit, two repeats; the fifth frame's repeat is refused
        # (nothing charged) and decided in full, like the two after it.
        assert whole.decides == 2 + 3

    def test_a_block_corrupt_in_one_frame_of_a_slick_run(self):
        # Live egress: no reroute, but the stripped segment takes its
        # alternate block along, so the move walks the block per frame.
        good = frame(HeaderSegment(port=LIVE, slick=True))
        bad = with_corrupt_block(good)
        arrivals = [(good, PEER_A)] * 3 + [(bad, PEER_A)] + [(good, PEER_A)] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 3 + ["undecodable"] + ["F"] * 2
        assert whole.router.metrics.slick_reroutes == 0
        # The corrupt frame's leading segment is intact, so it joins the
        # run, is charged like the reference charges it, and is refused
        # by the move; the run goes on behind it.
        assert whole.decides == 2
        assert whole.router.flow_cache.stats.hits == 5

    def test_a_reroute_is_never_repeated(self):
        datagram = frame(HeaderSegment(port=DEAD, slick=True))
        whole, _ = assert_batch_equals_frames(
            [(0, [(datagram, PEER_A)] * 5)]
        )
        assert kinds(whole.fates) == ["F"] * 5
        assert {fate[2] for fate in whole.fates} == {("127.0.0.1", 9000 + ALT)}
        assert whole.router.metrics.slick_reroutes == 5
        assert whole.decides == 5

    def test_an_outgoing_oversize_frame_mid_run(self):
        leading = HeaderSegment(port=LIVE)  # 4 B stripped, 6 B appended
        fits, full = frame(leading), frame(leading, fill=True)
        assert len(full) == SLOT_BYTES
        arrivals = [(fits, PEER_A)] * 3 + [(full, PEER_A)] + [(fits, PEER_A)] * 2
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 3 + ["oversize"] + ["F"] * 2
        assert whole.decides == 2

    def test_a_frame_cut_inside_its_leading_segment_mid_run(self):
        datagram = frame(HeaderSegment(port=LIVE, token=token_for()))
        arrivals = [(datagram, PEER_A)] * 3 + [
            (cut_inside_leading_segment(datagram), PEER_A)
        ] + [(datagram, PEER_A)] * 3
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert kinds(whole.fates) == ["F"] * 3 + ["undecodable"] + ["F"] * 3
        # The short frame fails the byte compare, takes the full path and
        # ends the run; the next frame decides again.
        assert whole.decides == 2 + 1

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
        assert whole.decides == 2 + 2 + 1 + 2 + 1

    def test_a_frame_from_the_dead_peer_revives_its_port_mid_batch(self):
        slick = frame(HeaderSegment(port=DEAD, slick=True))
        hello = frame(HeaderSegment(port=LIVE))
        arrivals = [(slick, PEER_A)] * 3 + [(hello, PEER_DEAD)] + [
            (slick, PEER_A)
        ] * 4
        whole, _ = assert_batch_equals_frames([(0, arrivals)])
        assert whole.router.dead_ports == set()
        # Rerouted until the peer is heard from; the memoized reroute
        # keeps serving the flow until its entry goes (it names ALT).
        assert kinds(whole.fates) == ["F"] * 8
        assert whole.router.metrics.slick_reroutes == 7

    def test_the_clock_moves_between_batches_not_inside_one(self):
        token = token_for(expiry_ms=25)
        datagram = frame(HeaderSegment(port=LIVE, token=token))
        script = [
            (now, [(datagram, PEER_A)] * 4) for now in (0, 20, 30, 20_000)
        ]
        whole, _ = assert_batch_equals_frames(script)
        assert kinds(whole.fates) == ["F"] * 16  # cached claims: no re-verify
        assert whole.router.flow_cache.stats.expirations == 1


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
                seq=rng.randrange(1, 1 << 32),
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
    seen, frames, decides, reference_decides = Counter(), 0, 0, 0
    for world in range(chunk * WORLDS // 10, (chunk + 1) * WORLDS // 10):
        rng = random.Random(0x5EED0000 + world)
        whole, single = assert_batch_equals_frames(generated_script(rng), rng)
        seen.update(kinds(whole.fates))
        frames += len(whole.fates)
        decides += whole.decides
        reference_decides += single.decides
    # The mix reaches every fate the issue names, in every chunk…
    for fate in ("F", "L", "undecodable", "oversize", "unknown_peer",
                 "token_reject", "no_route"):
        assert seen[fate], (fate, seen)
    # …and whole batches run often enough for the comparison to bite
    # (a one-frame batch decides every frame it can parse).
    assert frames - seen["undecodable"] <= reference_decides <= frames
    assert decides < 0.85 * reference_decides, (decides, reference_decides)
