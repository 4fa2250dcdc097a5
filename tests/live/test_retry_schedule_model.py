"""The one retry timer against a timer per frame, on generated schedules.

``LiveEndpoint`` keeps its unacked frames in send order and gives only a
frame that timed out a heap record, under one loop timer.  The plain
design it replaces is a timer per frame: each frame's deadline fires on
its own, due frames in ``(deadline, seq)`` order.  Both run here on a
virtual clock — a fake loop fires a handle exactly at its deadline — through
generated scripts of reliable sends to two peers, clock advances, and acks
(some naming frames sent to the other peer), and must agree after every
step on every retry (instant, frame, gap), every peer declared dead
(instant, peer), and which frames are still unacked.  The seeded jitter
and the sliding retry budget are the endpoint's own, replayed by the model.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.live.frames import FRAME_DATA, SEQ_NONE, encode_preamble
from repro.live.link import (
    BACKOFF_FACTOR,
    BACKOFF_MAX_S,
    RETRY_BUDGET_FLOOR,
    RETRY_BUDGET_RATIO,
    RETRY_BUDGET_WINDOW_S,
    LiveEndpoint,
    ReliabilityConfig,
    RetryBudget,
)

PEERS = [("127.0.0.1", 9001), ("127.0.0.1", 9002)]
FRAME = encode_preamble(FRAME_DATA, SEQ_NONE, 0, 4) + b"body"
CONFIG = ReliabilityConfig(ack_timeout_s=0.05, max_retries=3)
NAME = "schedule-model"


class FakeLoop:
    """``time`` and ``call_at`` on a clock that moves only when told."""

    class Handle:
        def __init__(self, when, callback):
            self._when = when
            self._callback = callback
            self._cancelled = False

        def when(self):
            return self._when

        def cancel(self):
            self._cancelled = True

        def cancelled(self):
            return self._cancelled

    def __init__(self):
        self.now = 1000.0
        self.handles = []

    def time(self):
        return self.now

    def call_at(self, when, callback):
        handle = self.Handle(when, callback)
        self.handles.append(handle)
        return handle

    def advance(self, seconds):
        """Run every handle due by ``now + seconds``, each at its own
        deadline, earliest (then first armed) first."""
        target = self.now + seconds
        for _ in range(10_000):
            live = [h for h in self.handles if not h.cancelled()]
            due = min(live, key=lambda h: h.when(), default=None)
            if due is None or due.when() > target:
                break
            self.handles.remove(due)
            self.now = max(self.now, due.when())
            due._callback()
        else:
            raise AssertionError("a timer keeps re-arming for the past")
        self.now = target


class FakeSocket:
    def __init__(self):
        self.sent = []

    def sendto(self, datagram, addr):
        self.sent.append(addr)


class TimerPerFrame:
    """The reference: every unacked frame has its own deadline."""

    def __init__(self):
        self.rng = random.Random(f"backoff:{NAME}")
        self.budget = RetryBudget(
            RETRY_BUDGET_WINDOW_S, RETRY_BUDGET_FLOOR, RETRY_BUDGET_RATIO,
        )
        #: seq -> [deadline, gap_s, retries_left, addr]
        self.frames = {}
        self.events = []

    def send(self, seq, addr, now):
        self.frames[seq] = [now + CONFIG.ack_timeout_s,
                            CONFIG.ack_timeout_s, CONFIG.max_retries, addr]
        self.budget.note_send(now)

    def ack(self, seqs, addr):
        for seq in seqs:
            frame = self.frames.get(seq)
            if frame is not None and frame[3] == addr:
                del self.frames[seq]

    def advance(self, now, seconds):
        target = now + seconds
        while True:
            due = sorted((frame[0], seq) for seq, frame in self.frames.items()
                         if frame[0] <= target)
            if not due:
                return
            instant = due[0][0]
            for deadline, seq in due:
                if deadline == instant:
                    self._time_out(seq, instant)

    def _time_out(self, seq, now):
        _deadline, gap_s, retries_left, addr = self.frames[seq]
        if retries_left <= 0 or not self.budget.allow(now):
            del self.frames[seq]
            self.events.append((now, "dead", addr))
            return
        growth = 1.0 + (BACKOFF_FACTOR - 1.0) * (0.5 + 0.5 * self.rng.random())
        gap_s = min(BACKOFF_MAX_S, gap_s * growth)
        self.budget.note_retry(now)
        self.events.append((now, "retry", seq, gap_s))
        self.frames[seq] = [now + gap_s, gap_s, retries_left - 1, addr]


steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 1)),
        st.tuples(st.just("wait"), st.sampled_from(
            [0.0, 0.005, 0.02, 0.05, 0.08, 0.15, 0.4, 1.0]
        )),
        # Ack some unacked frames (picked by index) as peer 0 or 1: a
        # frame sent to the other peer must stay unacked.
        st.tuples(st.just("ack"), st.integers(0, 1),
                  st.lists(st.integers(0, 40), max_size=6)),
    ),
    max_size=40,
)


@settings(max_examples=300, deadline=None)
@given(steps)
def test_one_timer_walks_the_timer_per_frame_schedule(script):
    loop = FakeLoop()
    endpoint = LiveEndpoint(NAME, reliability=CONFIG)
    endpoint._loop = loop
    endpoint._sock = FakeSocket()
    events = []
    endpoint.on_retry = lambda addr, seq, gap: events.append(
        (loop.now, "retry", seq, gap)
    )
    endpoint.on_peer_dead = lambda addr: events.append((loop.now, "dead", addr))
    model = TimerPerFrame()
    for step in script:
        if step[0] == "send":
            addr = PEERS[step[1]]
            seq = endpoint.send(FRAME, addr, reliable=True)
            model.send(seq, addr, loop.now)
        elif step[0] == "wait":
            model.advance(loop.now, step[1])
            loop.advance(step[1])
        else:
            _kind, peer, picks = step
            unacked = list(endpoint._pending)
            seqs = tuple(unacked[i] for i in picks if i < len(unacked))
            endpoint._on_ack(seqs, PEERS[peer])
            model.ack(seqs, PEERS[peer])
        assert events == model.events
        assert list(endpoint._pending) == sorted(model.frames)
        # With a frame unacked a timer is armed, never later than the
        # earliest deadline (acks leave it, so it may be earlier).
        if endpoint._pending:
            timer = endpoint._retry_timer
            assert timer is not None and not timer.cancelled()
            assert timer.when() <= min(f[0] for f in model.frames.values())
    # Every retry and nothing else went out as a datagram.
    sends = sum(step[0] == "send" for step in script)
    retries = sum(event[1] == "retry" for event in events)
    assert len(endpoint._sock.sent) == sends + retries
    assert endpoint.metrics.retries == retries
