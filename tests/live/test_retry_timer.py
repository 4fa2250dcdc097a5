"""The endpoint's one retry timer (ARCHITECTURE §14).

Every reliable frame's ack deadline lives in ``LiveEndpoint._retry_heap``
and the endpoint holds at most ONE loop timer, armed for the heap's
earliest entry.  These pin the design's invariants — and that the
schedule a black-holed frame walks (retry instants, ``on_peer_dead``
instant) is still the one a timer per frame produced.
"""

import asyncio
import random
import socket

import pytest

from repro.live.frames import FRAME_DATA, SEQ_NONE, encode_preamble
from repro.live.link import (
    BACKOFF_FACTOR,
    BACKOFF_MAX_S,
    LiveEndpoint,
    ReliabilityConfig,
)

pytestmark = pytest.mark.live

#: A well-formed data frame (a receiving endpoint acks only those).
FRAME = encode_preamble(FRAME_DATA, SEQ_NONE, 0, 4) + b"body"


class BlackHole:
    """A bound UDP socket nobody reads: frames vanish, acks never come."""

    def __enter__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        return self.sock.getsockname()[:2]

    def __exit__(self, *exc_info):
        self.sock.close()


def count_retry_timers(endpoint: LiveEndpoint) -> list:
    """Record every loop timer the endpoint's retry machinery creates
    from now on (``call_later`` lands in ``call_at`` too)."""
    loop = asyncio.get_running_loop()
    created = []
    call_at = loop.call_at

    def recording_call_at(when, callback, *args, **kwargs):
        handle = call_at(when, callback, *args, **kwargs)
        if callback == endpoint._on_retry_timer:
            created.append(handle)
        return handle

    loop.call_at = recording_call_at
    return created


def assert_timer_matches_heap(endpoint: LiveEndpoint) -> None:
    """The invariant: timer deadline == heap[0]; no heap, no timer."""
    if endpoint._retry_heap:
        assert endpoint._retry_timer is not None
        assert not endpoint._retry_timer.cancelled()
        assert endpoint._retry_timer.when() == endpoint._retry_heap[0][0]
    else:
        assert endpoint._retry_timer is None


def test_one_timer_handle_whatever_is_pending():
    async def scenario():
        sender = LiveEndpoint("one-timer")
        await sender.open()
        created = count_retry_timers(sender)
        with BlackHole() as addr:
            for _ in range(50):
                sender.send(FRAME, addr, reliable=True)
                assert_timer_matches_heap(sender)
            assert len(sender._pending) == 50
            assert len(sender._retry_heap) == 50
            # Fifty in-order deadlines armed the loop exactly once.
            assert len(created) == 1
            assert sum(not handle.cancelled() for handle in created) == 1
            sender.close()
        assert created[0].cancelled()

    asyncio.run(scenario())


def test_acked_heads_are_purged_without_a_timeout_and_idle_holds_no_timer():
    async def scenario():
        reliability = ReliabilityConfig(ack_timeout_s=0.03)
        sender = LiveEndpoint("acked", reliability=reliability)
        receiver = LiveEndpoint("acker")
        received = []

        def on_batch(batch):
            for view, _addr, _preamble in batch:
                received.append(view.tobytes())
                view.release()

        receiver.on_batch = on_batch
        timeouts = []
        on_ack_timeout = sender._on_ack_timeout
        sender._on_ack_timeout = lambda seq: (
            timeouts.append(seq), on_ack_timeout(seq)
        )
        await sender.open()
        addr = await receiver.open()
        created = count_retry_timers(sender)
        for _ in range(10):
            sender.send(FRAME, addr, reliable=True)
        for _ in range(200):
            if not sender._pending:
                break
            await asyncio.sleep(0.001)
        assert not sender._pending and len(received) == 10
        # Acks cost no loop work: the entries (and the timer) are still
        # there, to be purged when the head's deadline comes round.
        assert len(sender._retry_heap) == 10
        assert_timer_matches_heap(sender)
        await asyncio.sleep(2 * reliability.ack_timeout_s)
        assert sender._retry_heap == []
        assert sender._retry_timer is None
        assert timeouts == []
        assert sender.metrics.retries == 0
        assert len(created) == 1
        sender.close()
        receiver.close()

    asyncio.run(scenario())


def test_close_cancels_the_timer_and_reopen_starts_with_an_empty_heap():
    async def scenario():
        sender = LiveEndpoint("reopen")
        await sender.open()
        with BlackHole() as addr:
            for _ in range(5):
                sender.send(FRAME, addr, reliable=True)
            timer = sender._retry_timer
            assert timer is not None
            sender.close()
            assert timer.cancelled()
            assert sender._retry_timer is None
            assert sender._retry_heap == [] and not sender._pending
            await sender.open()
            assert sender._retry_heap == [] and sender._retry_timer is None
            sender.send(FRAME, addr, reliable=True)
            assert len(sender._retry_heap) == 1
            assert_timer_matches_heap(sender)
            sender.close()

    asyncio.run(scenario())


def test_backed_off_retry_does_not_delay_a_younger_frames_first_deadline():
    """Regression: A times out and is re-armed with a backoff gap that
    ends *after* B's first deadline.  The timer must wake for B — armed
    for ``heap[0]``, not for whatever was pushed last."""

    async def scenario():
        timeout = 0.1
        sender = LiveEndpoint(
            "two-frames", reliability=ReliabilityConfig(ack_timeout_s=timeout)
        )
        await sender.open()
        loop = asyncio.get_running_loop()
        retried = {}
        sender.on_retry = lambda addr, seq, gap: retried.setdefault(
            seq, (loop.time(), gap)
        )
        with BlackHole() as addr:
            seq_a = sender.send(FRAME, addr, reliable=True)
            await asyncio.sleep(0.6 * timeout)
            seq_b = sender.send(FRAME, addr, reliable=True)
            deadline_b = max(sender._retry_heap)[0]
            while seq_a not in retried:
                await asyncio.sleep(0.002)
            # A's gap grew to >= 1.5 timeouts: its next deadline lies
            # beyond B's first one, and the timer is armed for B.
            assert retried[seq_a][1] >= 1.5 * timeout
            assert sender._retry_heap[0] == (deadline_b, seq_b)
            assert_timer_matches_heap(sender)
            while seq_b not in retried:
                await asyncio.sleep(0.002)
            sender.close()
        # Sleeping on A's entry instead would be >= 0.9 timeouts late.
        assert retried[seq_b][0] - deadline_b < 0.45 * timeout

    asyncio.run(scenario())


def test_black_holed_frame_walks_the_per_frame_timer_schedule():
    """Retry k fires one jittered gap after retry k-1, and the peer is
    declared dead one more gap after the last — the schedule a
    ``call_later`` per frame walked, under the same seeded jitter."""

    name = "schedule-probe"
    config = ReliabilityConfig(ack_timeout_s=0.02, max_retries=3)
    rng = random.Random(f"backoff:{name}")
    gaps = [config.ack_timeout_s]
    for _ in range(config.max_retries):
        growth = 1.0 + (BACKOFF_FACTOR - 1.0) * (
            0.5 + 0.5 * rng.random()
        )
        gaps.append(min(BACKOFF_MAX_S, gaps[-1] * growth))

    async def scenario():
        sender = LiveEndpoint(name, reliability=config)
        await sender.open()
        loop = asyncio.get_running_loop()
        instants = []
        announced = []
        sender.on_retry = lambda addr, seq, gap: (
            instants.append(loop.time()), announced.append(gap)
        )
        dead = []
        sender.on_peer_dead = lambda addr: dead.append(loop.time())
        with BlackHole() as addr:
            instants.append(loop.time())
            sender.send(FRAME, addr, reliable=True)
            for _ in range(400):
                if dead:
                    break
                await asyncio.sleep(0.005)
            assert sender._retry_heap == [] and sender._retry_timer is None
            sender.close()
        return instants + dead, announced

    instants, announced = asyncio.run(scenario())
    assert announced == gaps[1:]
    assert len(instants) == len(gaps) + 1  # send, 3 retries, peer dead
    for gap, earlier, later in zip(gaps, instants, instants[1:]):
        # Never early; late by at most one (loaded) loop tick.
        assert -0.001 <= (later - earlier) - gap < 0.03
