"""Buffer rings and zero-copy views: differential against the codec.

Two contracts, both pinned differentially against the materialising
oracle (:func:`decode_segment` / :class:`HeaderSegment`):

* :func:`parse_segment_view` accepts exactly what ``decode_segment``
  accepts, rejects exactly what it rejects, and agrees on every field
  and on the strip boundary — over randomized segments including the
  255 length-escape;
* :class:`BufferRing` recycling is single-holder: a released slot's
  generation bump makes any escaped view detectably dead
  (``alive() is False``) before the slot can be handed out again.
"""

import random

import pytest

from repro.viper.errors import ViperDecodeError
from repro.viper.ring import BufferRing, RingSlot
from repro.viper.wire import (
    HeaderSegment,
    PacketView,
    decode_segment,
    encode_segment,
    parse_segment_view,
    segment_span,
)
from tests.live.oracle import alive, free_slots


def _random_segment(rng):
    def blob(max_len):
        n = rng.choice((0, 1, rng.randrange(8), 200, 255, 300))
        n = min(n, max_len)
        return bytes(rng.randrange(256) for _ in range(n))

    return HeaderSegment(
        port=rng.randrange(256),
        priority=rng.randrange(16),
        vnt=rng.random() < 0.3,
        dib=rng.random() < 0.3,
        rpf=rng.random() < 0.3,
        token=blob(300),
        portinfo=blob(300),
    )


class TestSegmentViewParity:
    def test_fuzz_parse_agrees_with_decode(self):
        rng = random.Random(0x51129E47)
        for trial in range(500):
            segment = _random_segment(rng)
            pad = rng.randrange(8)
            buffer = bytes(rng.randrange(256) for _ in range(pad))
            buffer += encode_segment(segment) + b"\xEE" * rng.randrange(5)
            oracle, next_offset = decode_segment(buffer, pad)
            for backing in (buffer, bytearray(buffer), memoryview(buffer)):
                view = parse_segment_view(backing, pad)
                assert view.end == next_offset == segment_span(buffer, pad)
                assert (view.port, view.priority) == (oracle.port, oracle.priority)
                assert (view.vnt, view.dib, view.rpf) == (
                    oracle.vnt, oracle.dib, oracle.rpf
                )
                assert view.token == oracle.token
                assert view.portinfo == oracle.portinfo
                assert view.wire_size() == oracle.wire_size()
                assert view.to_segment() == oracle

    def test_fuzz_rejects_what_decode_rejects(self):
        rng = random.Random(0xBADC0DE5)
        rejected = 0
        for trial in range(500):
            segment = _random_segment(rng)
            good = bytearray(encode_segment(segment))
            # Random single-byte mutation or truncation.
            if rng.random() < 0.5 and len(good) > 1:
                good = good[:rng.randrange(1, len(good))]
            else:
                good[rng.randrange(len(good))] ^= 1 << rng.randrange(8)
            bad = bytes(good)
            try:
                oracle = decode_segment(bad, 0)
            except ViperDecodeError:
                oracle = None
                rejected += 1
            if oracle is None:
                with pytest.raises(ViperDecodeError):
                    parse_segment_view(bad, 0)
            else:
                view = parse_segment_view(bad, 0)
                assert view.to_segment() == oracle[0]
        assert rejected > 50  # the fuzz actually exercised rejection

    def test_copy_materialises_with_overrides(self):
        encoded = encode_segment(HeaderSegment(port=9, token=b"tok"))
        view = parse_segment_view(encoded)
        assert view.copy(priority=3) == HeaderSegment(
            port=9, token=b"tok", priority=3
        )


class TestRingRecycling:
    def test_released_views_die_before_slot_reuse(self):
        """No view may escape its ring slot alive across a recycle."""
        ring = BufferRing(slots=4, slot_bytes=64)
        slot = ring.acquire()
        view = PacketView.of_slot(slot, 16)
        assert alive(view)
        view.release()
        assert not alive(view)
        # LIFO reuse hands the same slot back; the old view must still
        # read as dead even though the slot is in use again.
        again = ring.acquire()
        assert again is slot
        fresh = PacketView.of_slot(again, 16)
        assert alive(fresh)
        assert not alive(view)

    def test_double_release_is_refused(self):
        ring = BufferRing(slots=2, slot_bytes=64)
        slot = ring.acquire()
        ring.release(slot)
        with pytest.raises(ValueError):
            ring.release(slot)

    def test_exhaustion_mints_unpooled_slots(self):
        ring = BufferRing(slots=2, slot_bytes=64)
        held = [ring.acquire() for _ in range(5)]
        assert ring.stats.exhaustions == 3
        overflow = held[-1]
        assert not overflow.pooled
        for slot in held:
            ring.release(slot)
        # Unpooled slots are not re-admitted to the free list.
        assert free_slots(ring) == 2

    def test_stats_balance(self):
        ring = BufferRing(slots=8, slot_bytes=64)
        slots = [ring.acquire() for _ in range(6)]
        for slot in slots:
            ring.release(slot)
        assert ring.stats.acquires == 6
        assert ring.stats.releases == 6
        assert free_slots(ring) == 8

    def test_slot_view_is_the_whole_buffer(self):
        slot = BufferRing(slots=1, slot_bytes=128).acquire()
        assert isinstance(slot, RingSlot)
        assert len(slot.view) == len(slot.buffer) == 128
