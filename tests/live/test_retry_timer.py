"""The endpoint's one retry timer (ARCHITECTURE §14).

A reliable frame's first ack deadline is its place in
``LiveEndpoint._pending`` (send order is first-deadline order); only a
frame that timed out has a record in ``_retry_heap``.  The endpoint
holds at most ONE loop timer, armed for the earlier of the oldest fresh
frame's first deadline and the heap's head.  These pin the design's
invariants — and that the schedule a black-holed frame walks (retry
instants, ``on_peer_dead`` instant) is still the one a timer per frame
produced.
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
from tests.live.oracle import retry_deadline

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


def assert_timer_matches_table(endpoint: LiveEndpoint) -> None:
    """The invariant while no ack arrives: timer deadline == min(oldest
    fresh deadline, ``_retry_heap[0]``); no timer exactly when nothing
    is unacked."""
    if endpoint._pending:
        assert endpoint._retry_timer is not None
        assert not endpoint._retry_timer.cancelled()
        assert endpoint._retry_timer.when() == retry_deadline(endpoint)
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
                assert_timer_matches_table(sender)
            assert len(sender._pending) == 50
            assert sender._retry_heap == []
            # Fifty in-order deadlines armed the loop exactly once.
            assert len(created) == 1
            assert sum(not handle.cancelled() for handle in created) == 1
            sender.close()
        assert created[0].cancelled()

    asyncio.run(scenario())


def test_frames_acked_in_time_touch_neither_the_heap_nor_the_loop():
    """Fifty frames acked before their deadline: the sends create at
    most one timer handle and ``_retry_heap`` stays empty throughout.
    Acks leave the timer armed; it fires once, finds nothing due and
    goes idle without a timeout."""

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
        sender._on_ack_timeout = lambda seq, *backoff: (
            timeouts.append(seq), on_ack_timeout(seq, *backoff)
        )
        await sender.open()
        addr = await receiver.open()
        created = count_retry_timers(sender)
        first = sender.send(FRAME, addr, reliable=True)
        first_deadline = sender._pending[first][3] + reliability.ack_timeout_s
        for _ in range(49):
            sender.send(FRAME, addr, reliable=True)
            assert sender._retry_heap == []
        # One handle, armed by the first send for its own deadline.
        assert len(created) == 1 and created[0].when() == first_deadline
        for _ in range(200):
            assert sender._retry_heap == []
            if not sender._pending:
                break
            await asyncio.sleep(0.001)
        assert not sender._pending and len(received) == 50
        assert sender._retry_heap == []
        timer = sender._retry_timer
        assert timer is created[0] and timer.when() == first_deadline
        assert not timer.cancelled()
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
            assert len(sender._pending) == 1 and sender._retry_heap == []
            assert_timer_matches_table(sender)
            sender.close()

    asyncio.run(scenario())


def test_backed_off_retry_does_not_delay_a_younger_frames_first_deadline():
    """Regression: A times out and is re-armed with a backoff gap that
    ends *after* B's first deadline, while A stays first in ``_pending``.
    The timer watches both queues: B's first retry comes at B's own first
    deadline, and A walks the schedule a timer per frame gave it — also
    when C, sent late in A's backoff, has its first deadline after A's
    next retry."""

    name = "two-frames"
    timeout = 0.1

    async def scenario():
        sender = LiveEndpoint(
            name,
            reliability=ReliabilityConfig(ack_timeout_s=timeout, max_retries=2),
        )
        await sender.open()
        loop = asyncio.get_running_loop()
        retries = []
        sender.on_retry = lambda addr, seq, gap: retries.append(
            (seq, loop.time(), gap)
        )
        dead = []
        sender.on_peer_dead = lambda addr: dead.append(
            (loop.time(), set(sender._pending))
        )
        with BlackHole() as addr:
            seq_a = sender.send(FRAME, addr, reliable=True)
            await asyncio.sleep(0.6 * timeout)
            seq_b = sender.send(FRAME, addr, reliable=True)
            sent = {seq: entry[3] for seq, entry in sender._pending.items()}
            deadline_b = sent[seq_b] + timeout
            assert_timer_matches_table(sender)
            for _ in range(200):
                if retries:
                    break
                await asyncio.sleep(0.002)
            # A's gap grew to >= 1.5 timeouts: its next deadline lies
            # beyond B's first one, and the timer is armed for B.
            assert retries[0][0] == seq_a and retries[0][2] >= 1.5 * timeout
            assert next(iter(sender._pending)) == seq_a
            [(deadline_a, heap_seq, _gap, _left)] = sender._retry_heap
            assert heap_seq == seq_a and deadline_a > deadline_b
            assert sender._retry_timer.when() == deadline_b
            assert_timer_matches_table(sender)
            await asyncio.sleep(deadline_a - 0.5 * timeout - loop.time())
            seq_c = sender.send(FRAME, addr, reliable=True)
            sent[seq_c] = sender._pending[seq_c][3]
            assert sender._retry_timer.when() == sender._retry_heap[0][0]
            assert sender._retry_heap[0][0] < sent[seq_c] + timeout
            assert_timer_matches_table(sender)
            for _ in range(500):
                if seq_a not in sender._pending:
                    break
                await asyncio.sleep(0.002)
            sender.close()
        return seq_a, seq_b, sent, retries, dead

    seq_a, seq_b, sent, retries, dead = asyncio.run(scenario())
    assert len(sent) == 3
    # Every announced gap is the previous one times the next seeded
    # jitter draw, in the order the retries happened.
    rng = random.Random(f"backoff:{name}")
    gaps = {seq: [timeout] for seq in sent}
    for seq, _at, gap in retries:
        growth = 1.0 + (BACKOFF_FACTOR - 1.0) * (0.5 + 0.5 * rng.random())
        gaps[seq].append(min(BACKOFF_MAX_S, gaps[seq][-1] * growth))
        assert gap == gaps[seq][-1]
    instants_b = [at for seq, at, _gap in retries if seq == seq_b]
    # Sleeping on A's record instead would be >= 0.9 timeouts late.
    assert -0.001 <= instants_b[0] - (sent[seq_b] + timeout) < 0.03
    [died_a] = [at for at, left in dead if seq_a not in left]
    instants_a = [sent[seq_a]] + [
        at for seq, at, _gap in retries if seq == seq_a
    ] + [died_a]
    assert len(instants_a) == 4  # send, 2 retries, peer dead
    for gap, earlier, later in zip(gaps[seq_a], instants_a, instants_a[1:]):
        assert -0.001 <= (later - earlier) - gap < 0.03


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
