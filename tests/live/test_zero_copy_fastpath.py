"""The zero-copy hop fast path is byte-exact against the slow codec.

``strip_and_append`` finds the strip boundary arithmetically
(:func:`repro.viper.wire.segment_span`) and memoryview-slices the
untouched middle bytes straight into the output frame; the bytes it
forwards are never decoded.  ``strip_and_append_slow`` round-trips the
whole frame through :class:`SirpentPacket` instead.  The acceptance
criterion is that the two are indistinguishable on the wire — for
every decodable frame shape, over multiple hops, including the traced
debug option and the 255 length-escape.
"""

import random

import pytest

from repro.live import frames, router as router_module
from repro.live.frames import (
    decode_live_frame,
    decode_preamble,
    encode_live_frame,
    hop_move_into,
    restamp_seq,
    restamp_seq_into,
    return_tail_of,
    strip_and_append,
    strip_and_append_slow,
)
from repro.live.router import LiveRouter
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import SirpentPacket, TrailerElement
from repro.viper.ring import BufferRing
from repro.viper.wire import (
    HeaderSegment,
    PacketView,
    decode_segment,
    encode_segment,
    segment_span,
)


def frame(segments, payload=b"hello world", trailer=(), trace_id=0, seq=0):
    packet = SirpentPacket(
        segments=list(segments),
        payload_size=len(payload),
        payload=payload,
        trailer=list(trailer),
        trace_id=trace_id,
    )
    return encode_live_frame(packet, payload, seq=seq, trace_id=trace_id)


FRAME_SHAPES = {
    "plain": frame([HeaderSegment(port=1), HeaderSegment(port=0)]),
    "tokened": frame([
        HeaderSegment(port=1, token=b"T" * 32, priority=5),
        HeaderSegment(port=2, token=b"U" * 32),
        HeaderSegment(port=0),
    ]),
    "portinfo": frame([
        HeaderSegment(port=3, portinfo=bytes(range(14))),
        HeaderSegment(port=0),
    ]),
    "flags": frame([
        HeaderSegment(port=9, vnt=True, dib=True, rpf=True, priority=0xF),
        HeaderSegment(port=0),
    ]),
    "escape_token": frame([
        # 300 >= 255 forces the 32-bit extended-length escape (§5).
        HeaderSegment(port=1, token=b"E" * 300),
        HeaderSegment(port=0),
    ], payload=b"x" * 500),
    "empty_payload": frame([HeaderSegment(port=1), HeaderSegment(port=0)],
                           payload=b""),
    "existing_trailer": frame(
        [HeaderSegment(port=1), HeaderSegment(port=0)],
        trailer=[TrailerElement(HeaderSegment(port=4, token=b"rv"))],
    ),
    "traced": frame([HeaderSegment(port=1), HeaderSegment(port=0)],
                    trace_id=0xDEADBEEF_CAFE_0001),
}

RETURN_SEGMENTS = {
    "bare": HeaderSegment(port=7),
    "tokened": HeaderSegment(port=7, token=b"R" * 32, priority=5),
    "ethernet": HeaderSegment(port=7, portinfo=bytes(range(14))),
}


class TestByteExactness:
    @pytest.mark.parametrize("shape", sorted(FRAME_SHAPES))
    @pytest.mark.parametrize("ret", sorted(RETURN_SEGMENTS))
    def test_fast_path_equals_slow_path(self, shape, ret):
        datagram = FRAME_SHAPES[shape]
        return_segment = RETURN_SEGMENTS[ret]
        fast = strip_and_append(datagram, return_segment, seq=42)
        slow = strip_and_append_slow(datagram, return_segment, seq=42)
        assert fast == slow

    def test_exactness_holds_across_multiple_hops(self):
        datagram = FRAME_SHAPES["tokened"]
        fast = slow = datagram
        for hop_port in (7, 8):
            ret = HeaderSegment(port=hop_port, token=b"R" * 16)
            fast = strip_and_append(fast, ret, seq=hop_port)
            slow = strip_and_append_slow(slow, ret, seq=hop_port)
            assert fast == slow
        # And the result still decodes into a coherent packet.
        _, packet, payload = decode_live_frame(fast)
        assert [s.port for s in packet.segments] == [0]
        assert payload == b"hello world"
        assert [e.segment.port for e in packet.trailer] == [7, 8]

    def test_traced_frames_keep_their_trace_id(self):
        forwarded = strip_and_append(
            FRAME_SHAPES["traced"], HeaderSegment(port=7)
        )
        preamble, _, _ = decode_live_frame(forwarded)
        assert preamble.trace_id == 0xDEADBEEF_CAFE_0001

    def test_middle_bytes_are_copied_verbatim(self):
        """The forwarded frame contains the original middle region as-is."""
        datagram = FRAME_SHAPES["tokened"]
        first_len = len(encode_segment(
            HeaderSegment(port=1, token=b"T" * 32, priority=5)
        ))
        middle = datagram[11 + first_len:]
        forwarded = strip_and_append(datagram, HeaderSegment(port=7))
        assert middle in forwarded

    def test_no_leading_segment_refused(self):
        empty_route = frame([])
        with pytest.raises(ViperDecodeError):
            strip_and_append(empty_route, HeaderSegment(port=7))
        with pytest.raises(ViperDecodeError):
            strip_and_append_slow(empty_route, HeaderSegment(port=7))


class TestSegmentSpan:
    """segment_span is the arithmetic twin of decode_segment."""

    @pytest.mark.parametrize("segment", [
        HeaderSegment(port=1),
        HeaderSegment(port=1, token=b"t" * 8),
        HeaderSegment(port=1, portinfo=b"p" * 14),
        HeaderSegment(port=1, token=b"t" * 300),       # escape
        HeaderSegment(port=1, portinfo=b"p" * 260),     # escape
        HeaderSegment(port=1, token=b"t" * 255, portinfo=b"p" * 255),
        HeaderSegment(port=255, vnt=True, dib=True, rpf=True, priority=0xF),
    ])
    def test_agrees_with_decode_on_valid_segments(self, segment):
        buffer = b"\xAA" * 3 + encode_segment(segment) + b"\xBB" * 5
        _, next_offset = decode_segment(buffer, 3)
        assert segment_span(buffer, 3) == next_offset

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:3],                          # truncated fixed fields
        lambda b: b[:-1],                         # truncated portinfo
        lambda b: bytes([200]) + b[1:],           # overclaimed portinfo
        lambda b: bytes([255]) + b[1:],           # escape w/o extension
    ])
    def test_rejects_what_decode_rejects(self, mutate):
        good = encode_segment(HeaderSegment(port=1, portinfo=b"p" * 4))
        bad = mutate(good)
        with pytest.raises(ViperDecodeError):
            decode_segment(bad, 0)
        with pytest.raises(ViperDecodeError):
            segment_span(bad, 0)

    def test_rejects_non_canonical_extended_length(self):
        # A 255 length octet whose 32-bit extension says 4 (< 255) is
        # non-canonical; both parsers must refuse it identically.
        bad = bytes([0, 255, 1, 0]) + (4).to_bytes(4, "big") + b"tttt"
        with pytest.raises(ViperDecodeError):
            decode_segment(bad, 0)
        with pytest.raises(ViperDecodeError):
            segment_span(bad, 0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ViperDecodeError):
            segment_span(b"\x00" * 8, -1)


def _slot_view(ring, datagram):
    slot = ring.acquire()
    slot.buffer[: len(datagram)] = datagram
    return PacketView.of_slot(slot, len(datagram))


def _batch_of(view, source):
    """What ``LiveEndpoint._on_readable`` hands ``on_batch`` for one
    frame: the view, its source, and the preamble decoded from it."""
    return [(view, source, decode_preamble(view.mem))]


class TestHopMoveInPlace:
    """hop_move_into is byte-exact against both materialising paths."""

    @pytest.mark.parametrize("shape", sorted(FRAME_SHAPES))
    @pytest.mark.parametrize("ret", sorted(RETURN_SEGMENTS))
    def test_in_place_move_equals_both_slow_paths(self, shape, ret):
        datagram = FRAME_SHAPES[shape]
        return_segment = RETURN_SEGMENTS[ret]
        ring = BufferRing(slots=2)
        view = _slot_view(ring, datagram)
        assert hop_move_into(view, return_tail_of(return_segment))
        moved = view.tobytes()
        view.release()
        assert moved == strip_and_append(datagram, return_segment)
        assert moved == strip_and_append_slow(datagram, return_segment)

    def test_fuzz_multi_hop_in_one_slot(self):
        """Random frames advance hop after hop inside one slot."""
        rng = random.Random(0xF457)

        def blob(choices):
            n = rng.choice(choices)
            return bytes(rng.randrange(256) for _ in range(n))

        for trial in range(120):
            hops = rng.randrange(1, 5)
            segments = [
                HeaderSegment(
                    port=rng.randrange(1, 256),
                    priority=rng.randrange(16),
                    vnt=rng.random() < 0.2,
                    dib=rng.random() < 0.2,
                    rpf=rng.random() < 0.2,
                    token=blob((0, 0, 8, 32, 300)),
                    portinfo=blob((0, 0, 14, 260)),
                )
                for _ in range(hops)
            ] + [HeaderSegment(port=0)]
            datagram = frame(
                segments,
                payload=blob((0, 1, 64, 500)),
                trace_id=rng.getrandbits(64) if rng.random() < 0.3 else 0,
            )
            ring = BufferRing(slots=1)
            view = _slot_view(ring, datagram)
            shadow = datagram
            for hop in range(hops):
                ret = HeaderSegment(
                    port=rng.randrange(1, 256), token=blob((0, 16)),
                    portinfo=blob((0, 14)),
                )
                tail = return_tail_of(ret)
                assert hop_move_into(view, tail)
                shadow = strip_and_append(shadow, ret)
                assert view.tobytes() == shadow
            view.release()

    def test_restamp_into_matches_restamp(self):
        datagram = FRAME_SHAPES["traced"]
        ring = BufferRing(slots=1)
        view = _slot_view(ring, datagram)
        restamp_seq_into(view.buffer, view.start, 0xDEAD)
        assert view.tobytes() == restamp_seq(datagram, 0xDEAD)
        view.release()

    def test_no_tailroom_returns_false_and_leaves_view_untouched(self):
        datagram = FRAME_SHAPES["plain"]
        ring = BufferRing(slots=1, slot_bytes=len(datagram) + 2)
        view = _slot_view(ring, datagram)
        tail = return_tail_of(HeaderSegment(port=7, token=b"R" * 32))
        assert not hop_move_into(view, tail)
        assert view.tobytes() == datagram
        view.release()

    def test_refuses_frames_with_no_leading_segment(self):
        ring = BufferRing(slots=1)
        view = _slot_view(ring, frame([]))
        with pytest.raises(ViperDecodeError):
            hop_move_into(view, return_tail_of(HeaderSegment(port=7)))
        view.release()


def _capture_router(name):
    """A LiveRouter whose endpoint transmits into a list, not a socket."""
    router = LiveRouter(name)
    sent = []

    def send_view(view, addr, reliable=False):
        sent.append((view.tobytes(), addr))
        view.release()
        return 0

    def send(datagram, addr, reliable=False):
        sent.append((bytes(datagram), addr))
        return 0

    router.endpoint.send_view = send_view
    router.endpoint.send = send
    router.connect_port(1, ("127.0.0.1", 9001))
    router.connect_port(2, ("127.0.0.1", 9002))
    return router, sent


class TestBatchedForwardingDifferential:
    """The batched view path forwards the same bytes as the bytes path.

    ``LiveRouter._on_batch`` (ring slots, in-place hop move, memoized
    return tails) against ``LiveRouter._on_frame`` (the materialising
    oracle) on two identically configured routers: every forwarded
    datagram, destination, and drop counter must agree — including
    warm flow-cache passes where the fast path appends a memoized
    ``Decision.return_tail`` it never re-encoded.
    """

    SOURCE = ("127.0.0.1", 9001)

    def _feed(self, datagrams):
        fast, fast_sent = _capture_router("fast")
        oracle, oracle_sent = _capture_router("oracle")
        ring = BufferRing(slots=8)
        views = []
        for datagram in datagrams:
            view = _slot_view(ring, datagram)
            views.append(view)
            fast._on_batch(_batch_of(view, self.SOURCE))
            oracle._on_frame(datagram, self.SOURCE)
        return fast, oracle, fast_sent, oracle_sent, ring, views

    def test_fuzz_forwarded_bytes_identical(self):
        rng = random.Random(0xBA7C4)
        datagrams = []
        for trial in range(150):
            route = [HeaderSegment(
                port=2,
                priority=rng.randrange(16),
                dib=rng.random() < 0.2,
                portinfo=(
                    bytes(rng.randrange(256) for _ in range(14))
                    if rng.random() < 0.4 else b""
                ),
            )]
            route += [
                HeaderSegment(port=rng.randrange(1, 256))
                for _ in range(rng.randrange(3))
            ]
            route.append(HeaderSegment(port=0))
            datagrams.append(frame(
                route,
                payload=bytes(
                    rng.randrange(256) for _ in range(rng.randrange(400))
                ),
                trace_id=rng.getrandbits(64) if rng.random() < 0.2 else 0,
            ))
        fast, oracle, fast_sent, oracle_sent, _, _ = self._feed(datagrams)
        assert fast_sent == oracle_sent
        assert len(fast_sent) == len(datagrams)
        assert all(addr == ("127.0.0.1", 9002) for _, addr in fast_sent)
        assert fast.metrics.forwarded == oracle.metrics.forwarded

    def test_warm_flow_reuses_memoized_tail_byte_exactly(self):
        # The same flow three times: pass 1 is the cold install, passes
        # 2-3 append FlowEntry.return_tail without re-encoding.
        datagram = frame(
            [HeaderSegment(port=2, portinfo=bytes(range(14))),
             HeaderSegment(port=0)],
        )
        fast, oracle, fast_sent, oracle_sent, _, _ = self._feed([datagram] * 3)
        assert fast.flow_cache.stats.hits == 2
        assert fast_sent == oracle_sent

    def test_drops_agree_and_release_slots(self):
        # A sound preamble promising a segment the datagram does not
        # hold (a bad preamble never leaves the endpoint).
        undecodable = frame([HeaderSegment(port=2)])[:12]
        unknown_peer = frame([HeaderSegment(port=2), HeaderSegment(port=0)])
        no_route = frame([HeaderSegment(port=99), HeaderSegment(port=0)])
        fast, fast_sent = _capture_router("fast")
        oracle, oracle_sent = _capture_router("oracle")
        ring = BufferRing(slots=4)
        cases = [
            (undecodable, self.SOURCE),
            (unknown_peer, ("10.9.9.9", 1)),  # unwired peer
            (no_route, self.SOURCE),
        ]
        views = []
        for datagram, source in cases:
            view = _slot_view(ring, datagram)
            views.append(view)
            fast._on_batch(_batch_of(view, source))
            oracle._on_frame(datagram, source)
        assert fast_sent == oracle_sent == []
        for reason in ("undecodable", "unknown_peer", "no_route"):
            assert fast.metrics.drops.get(reason) == oracle.metrics.drops.get(
                reason
            ), reason
        # Every slot came back to the ring; no escaped view is alive.
        assert ring.available() == 4
        assert all(not view.alive() for view in views)

    def test_every_batch_slot_is_recycled(self):
        """No view escapes its ring slot alive through the batch path."""
        datagram = frame([HeaderSegment(port=2), HeaderSegment(port=0)])
        fast, _, _, _, ring, views = self._feed([datagram] * 6)
        assert ring.available() == 8
        assert all(not view.alive() for view in views)

    def test_batch_path_never_decodes_the_preamble_again(self, monkeypatch):
        """One decode per datagram: the endpoint's.  Forward (cold, warm,
        traced), local delivery and a drop all run off the preamble the
        batch entry carries."""
        fast, fast_sent = _capture_router("fast")
        delivered = []
        fast.local_handler = lambda datagram, source: delivered.append(datagram)
        forward = frame([HeaderSegment(port=2), HeaderSegment(port=0)])
        datagrams = [
            forward, forward,
            frame([HeaderSegment(port=2), HeaderSegment(port=0)],
                  trace_id=0xFEED_0001),
            frame([HeaderSegment(port=0)]),
            frame([HeaderSegment(port=99), HeaderSegment(port=0)]),
        ]
        ring = BufferRing(slots=8)
        batch = []
        for datagram in datagrams:
            batch += _batch_of(_slot_view(ring, datagram), self.SOURCE)
        calls = []
        monkeypatch.setattr(
            frames, "decode_preamble",
            lambda datagram: calls.append(1) or decode_preamble(datagram),
        )
        fast._on_batch(batch)
        assert calls == []
        # ...nor does the router module hold a private reference to it.
        assert not hasattr(router_module, "decode_preamble")
        assert len(fast_sent) == 3
        assert len(delivered) == 1
        assert fast.metrics.drops.get("no_route") == 1
        assert ring.available() == 8
