"""Batched UDP endpoints: the live overlay's point-to-point channels.

Each live node (router, host) owns one :class:`LiveEndpoint` — a bound
non-blocking UDP socket driven straight off the event loop's readiness
callbacks.  The endpoint provides:

* **framed delivery** — datagrams that do not carry a valid overlay
  preamble are dropped and counted, never raised (the live analogue of
  "a router must survive line noise"),
* **batched zero-copy receive** — one loop wakeup drains up to
  ``rx_batch`` datagrams with ``recvmsg_into`` straight into
  :class:`~repro.viper.ring.BufferRing` slots and hands the whole
  batch of :class:`~repro.viper.wire.PacketView` s to :attr:`on_batch`
  in one call, so the per-datagram cost of the event loop is amortised
  N ways and no ``bytes`` object is built for the datagram,
* **per-hop reliability** — frames sent with :meth:`LiveEndpoint.send`
  / :meth:`~LiveEndpoint.send_view` under ``reliable=True`` carry a
  hop sequence number; the receiving endpoint acks it and the sender
  retries on an ack timeout, finally declaring the peer dead
  (:attr:`on_peer_dead`) — this is what makes a killed router
  *observable* instead of a silent black hole.  Acks are **one datagram
  per peer per wakeup**: the drain collects the numbers it owes and
  sends each peer a single ack naming all of them
  (:func:`~repro.live.frames.encode_ack`) when it ends, before the
  consumer runs — no timer, nothing but the drained batch decides.  An
  arriving ack must frame exactly (else ``undecodable``) and releases
  only frames that were sent to the address it came from (else
  ``stray_ack``): sequence numbers are per sender.  A reliable view's ring
  slot stays **pinned** in the retry table until the ack (or the final
  abandonment) releases it.  All of an endpoint's ack deadlines share
  **one** loop timer (a deadline heap, see :meth:`LiveEndpoint.
  _await_ack`): a frame acked in time never touches the event loop,
* **coalesced sends** — :meth:`send_parts` gathers one datagram from
  several buffers via ``sendmsg`` (plain ``sendto`` of the joined
  bytes as the fallback); a full socket buffer queues the frame and
  flushes on writability instead of dropping,
* **injected impairments** — deterministic, seeded loss applied on
  transmit, so the loopback overlay can rehearse a lossy WAN (chaos
  faults add delay, duplication and corruption).  Impaired (or
  chaos-faulted) transmissions materialise the frame once — they hold
  it past the send call — which keeps the fault seams off the
  zero-allocation path without changing them.

The endpoint knows nothing about routing; routers and hosts subscribe
via :attr:`on_batch` — the one consumer callback — and receive views,
each with the preamble this endpoint already decoded.

**View ownership**: a batch consumer owns every slot in the batch and
must release each view (or hand it to :meth:`send_view`, which then
owns it) exactly once; the endpoint itself keeps at most one slot, the
one it receives into, between wakeups — see ARCHITECTURE §14.
"""

from __future__ import annotations

import asyncio
import heapq
import random
import socket
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    MAX_PAYLOAD_BYTES,
    PREAMBLE_BYTES,
    Preamble,
    SEQ_BYTES,
    SEQ_MAX,
    SEQ_NONE,
    ack_seqs,
    decode_preamble,
    encode_ack,
    restamp_seq,
    restamp_seq_into,
)
from repro.live.metrics import EndpointMetrics
from repro.viper.errors import ViperDecodeError
from repro.viper.ring import BufferRing, RingSlot
from repro.viper.wire import PacketView

#: A UDP peer address.
Address = Tuple[str, int]

#: Default maximum datagrams drained per loop wakeup.
RX_BATCH = 32

#: Linux reports datagram truncation in ``recvmsg`` flags; on platforms
#: without the flag oversize datagrams are silently truncated (and then
#: dropped as undecodable when the length fields disagree).  A plain
#: ``int``: the drain loop tests it against every datagram's flags, and
#: ``int & socket.MsgFlag`` dispatches into ``enum``.
_MSG_TRUNC = int(getattr(socket, "MSG_TRUNC", 0))

#: One delivered frame: the ring-slot view, the peer it came from, and
#: the preamble the endpoint decoded from it.
BatchEntry = Tuple[PacketView, Address, Preamble]


@dataclass
class Impairments:
    """Transmit-side loss, seeded for reproducibility."""

    loss_rate: float = 0.0
    seed: Optional[int] = None


#: Multiplicative retry-gap growth (> 1); see :class:`ReliabilityConfig`.
BACKOFF_FACTOR = 2.0
#: Ceiling on any single retry gap (seconds).
BACKOFF_MAX_S = 2.0
#: Sliding window over which the retry budget is measured.
RETRY_BUDGET_WINDOW_S = 1.0
#: Retries always permitted per window, regardless of send volume.
RETRY_BUDGET_FLOOR = 32
#: Additional retries permitted per original send in the window.
RETRY_BUDGET_RATIO = 1.0


@dataclass
class ReliabilityConfig:
    """Per-hop ack/retry policy for reliable sends.

    Retries back off **exponentially with jitter**: each retry gap is
    the previous gap times a random factor in
    ``[1 + (BACKOFF_FACTOR-1)/2, BACKOFF_FACTOR]`` — strictly greater
    than 1 (so gaps strictly increase) and never the same twice (so two
    endpoints that lost frames at the same instant do not retry in
    lockstep; the partition-then-heal retry storm is the failure mode
    this kills) — up to ``BACKOFF_MAX_S``.

    The **retry budget** is a sliding-window cap: within any
    ``RETRY_BUDGET_WINDOW_S`` window the endpoint may issue at most
    ``RETRY_BUDGET_FLOOR + RETRY_BUDGET_RATIO * sends_in_window``
    retries; a frame whose retry would bust the budget is abandoned
    (counted ``retry_budget_exhausted`` and reported via
    ``on_peer_dead``) instead of fuelling the storm.
    """

    ack_timeout_s: float = 0.05
    max_retries: int = 3
    #: Remembered sequence numbers per peer, for duplicate suppression.
    dedup_window: int = 1024


class RetryBudget:
    """Sliding-window retry accounting for one endpoint.

    ``allow`` answers "may this endpoint retry *now*?" by comparing the
    retries already issued inside the window against
    ``floor + ratio * sends`` — the §6.3 storm cap: retry pressure is
    permitted to scale with offered load but never to run away from it.
    """

    __slots__ = ("window_s", "floor", "ratio", "_sends", "_retries",
                 "exhaustions")

    def __init__(self, window_s: float, floor: int, ratio: float) -> None:
        self.window_s = window_s
        self.floor = floor
        self.ratio = ratio
        self._sends: Deque[float] = deque()
        self._retries: Deque[float] = deque()
        self.exhaustions = 0

    def _expire(self, now: float) -> None:
        horizon = now - self.window_s
        while self._sends and self._sends[0] < horizon:
            self._sends.popleft()
        while self._retries and self._retries[0] < horizon:
            self._retries.popleft()

    def note_send(self, now: float) -> None:
        self._expire(now)
        self._sends.append(now)

    def note_retry(self, now: float) -> None:
        self._expire(now)
        self._retries.append(now)

    def allow(self, now: float) -> bool:
        self._expire(now)
        budget = self.floor + self.ratio * len(self._sends)
        if len(self._retries) < budget:
            return True
        self.exhaustions += 1
        return False


def corrupt_datagram(datagram, seed: int) -> bytes:
    """Deterministically flip one byte past the hop preamble.

    The preamble survives (the frame still decodes and acks normally) —
    Sirpent carries no header checksum, so chaos corruption must be
    *delivered* and become the transport layer's problem (§4.1), not
    vanish as line noise.  Frames too short to have a body pass through
    unchanged.  The flip happens in a single ``bytearray`` in place —
    one copy, not the three-slice concatenation this used to do.
    """
    if len(datagram) <= PREAMBLE_BYTES:
        return datagram if isinstance(datagram, bytes) else bytes(datagram)
    index = PREAMBLE_BYTES + (seed % (len(datagram) - PREAMBLE_BYTES))
    flip = ((seed >> 8) & 0xFF) or 0xA5
    corrupted = bytearray(datagram)
    corrupted[index] ^= flip
    return bytes(corrupted)


class _PendingFrame:
    """One reliable frame awaiting its ack.

    ``data`` is the exact wire bytes to retransmit; when ``slot`` is
    set, ``data`` is a memoryview into that (pinned) ring slot and the
    ack/abandonment path owns releasing it.
    """

    __slots__ = ("data", "slot", "addr", "retries_left", "gap_s")

    def __init__(self, data, slot, addr: Address, retries_left: int,
                 gap_s: float) -> None:
        self.data = data
        self.slot = slot
        self.addr = addr
        self.retries_left = retries_left
        self.gap_s = gap_s


class LiveEndpoint:
    """One bound UDP socket with framing, acks, retries and impairments."""

    def __init__(
        self,
        name: str,
        metrics: Optional[EndpointMetrics] = None,
        impairments: Optional[Impairments] = None,
        reliability: Optional[ReliabilityConfig] = None,
        ring: Optional[BufferRing] = None,
        rx_batch: int = RX_BATCH,
    ) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else EndpointMetrics(name)
        self.impairments = impairments if impairments is not None else Impairments()
        self.reliability = (
            reliability if reliability is not None else ReliabilityConfig()
        )
        self._rng = random.Random(self.impairments.seed)
        #: Jitter source for retry backoff — seeded per endpoint *name*
        #: so no two endpoints share a retry rhythm (desynchronization
        #: is the point), yet each run is reproducible.
        self._backoff_rng = random.Random(f"backoff:{name}")
        self._budget = RetryBudget(
            RETRY_BUDGET_WINDOW_S, RETRY_BUDGET_FLOOR, RETRY_BUDGET_RATIO,
        )
        #: Preallocated packet buffers; RX fills slots in place and the
        #: reliable-send path pins them until acked.
        self.ring = ring if ring is not None else BufferRing()
        self.rx_batch = rx_batch
        self._sock: Optional[socket.socket] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.address: Optional[Address] = None
        #: Batched delivery callback:
        #: ``on_batch([(view, source, preamble), ...])`` — ``preamble`` is
        #: the frame's decoded :class:`~repro.live.frames.Preamble`, so
        #: no consumer decodes it a second time.  The consumer owns (and
        #: must release) every view's slot.
        self.on_batch: Optional[Callable[[List[BatchEntry]], None]] = None
        #: Called once per reliable frame abandoned after all retries.
        self.on_peer_dead: Optional[Callable[[Address], None]] = None
        #: Called on every retransmission: ``on_retry(addr, seq, gap_s)``
        #: (the chaos soak logs these to detect synchronized bursts).
        self.on_retry: Optional[Callable[[Address, int, float], None]] = None
        #: Chaos seam (:mod:`repro.chaos.seam`): ``fault_hook(addr)``
        #: returns a per-datagram fault decision or None.  Duck-typed so
        #: the live layer stays independent of the chaos package.
        self.fault_hook: Optional[Callable[[Address], Any]] = None
        #: The next hop sequence number: 1 … ``SEQ_MAX``, then 1 again.
        self._seq = 1
        self._pending: Dict[int, _PendingFrame] = {}
        #: ``(deadline, seq)`` ack deadlines, earliest first.  An ack
        #: only removes the frame from ``_pending``; its heap entry is
        #: purged when it surfaces (see :meth:`_on_retry_timer`).
        self._retry_heap: List[Tuple[float, int]] = []
        #: The endpoint's one retry timer, armed for ``_retry_heap[0]``'s
        #: deadline; None exactly when the heap is empty.
        self._retry_timer: Optional[asyncio.TimerHandle] = None
        self._seen: Dict[Address, Tuple[Set[int], Deque[int]]] = {}
        #: Frames deferred by a momentarily full socket buffer.
        self._tx_backlog: Deque[Tuple[bytes, Address]] = deque()
        self._writer_armed = False
        #: The slot the next datagram lands in, kept across wakeups (None
        #: until the first, and once closed); ``recvmsg_into``'s buffer list.
        self._rx_slot: Optional[RingSlot] = None
        self._recv_buffers: List[Any] = [None]
        #: Drain-loop accounting (wakeup amortisation, for the bench).
        self.rx_batches = 0
        self.rx_datagrams = 0
        self.closed = False

    # -- lifecycle ---------------------------------------------------------

    async def open(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the socket; returns the bound ``(host, port)``.

        Re-opening a previously closed endpoint (a crashed router
        restarting) **re-derives** its soft state: the retry table and
        the per-peer dedup windows are cleared, and the hop sequence
        space restarts at a *random* initial number — peers kept their
        dedup windows across our death, so resuming at 1 would make
        them discard our first post-restart frames as duplicates.
        """
        if self.closed:
            self.closed = False
            self._pending.clear()
            self._retry_heap.clear()
            self._seen.clear()
            self._seq = self._backoff_rng.randrange(1, 1 << (8 * SEQ_BYTES - 2))
        self._loop = asyncio.get_running_loop()
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
        except OSError:  # pragma: no cover - platform limits
            pass
        sock.bind((host, port))
        self._sock = sock
        self._loop.add_reader(sock.fileno(), self._on_readable)
        self.address = sock.getsockname()[:2]
        return self.address

    def close(self) -> None:
        """Close the socket, cancel retries, give back every slot held."""
        self.closed = True
        slot, self._rx_slot = self._rx_slot, None
        if slot is not None:
            slot.ring.release(slot)
        self._retry_heap.clear()
        self._sync_retry_timer()
        for entry in self._pending.values():
            if entry.slot is not None:
                self.ring.release(entry.slot)
        self._pending.clear()
        self._tx_backlog.clear()
        sock = self._sock
        if sock is not None:
            self._sock = None
            if self._loop is not None and not self._loop.is_closed():
                try:
                    self._loop.remove_reader(sock.fileno())
                except (OSError, ValueError):  # pragma: no cover
                    pass
                if self._writer_armed:
                    try:
                        self._loop.remove_writer(sock.fileno())
                    except (OSError, ValueError):  # pragma: no cover
                        pass
            self._writer_armed = False
            sock.close()

    # -- transmit ----------------------------------------------------------

    def send(self, datagram: bytes, addr: Address, reliable: bool = False) -> int:
        """Transmit one framed datagram; returns the hop sequence used.

        With ``reliable=True`` the frame is restamped with a fresh
        nonzero sequence number, acked by the receiving endpoint and
        retried on timeout; the caller's preamble must carry seq 0 (use
        :func:`~repro.live.frames.encode_live_frame` with its default
        ``seq``) — this method owns the sequence space.
        """
        if self.closed or self._sock is None:
            return SEQ_NONE
        seq = SEQ_NONE
        if reliable:
            seq = self._seq
            self._seq = seq + 1 if seq < SEQ_MAX else 1
            datagram = restamp_seq(datagram, seq)
            self._await_ack(seq, datagram, None, addr)
        self.metrics.record_out(len(datagram))
        if self.fault_hook is not None or self.impairments.loss_rate > 0.0:
            self._impaired_send(datagram, addr)
        else:
            self._raw_send(datagram, addr)
        return seq

    def send_view(self, view: PacketView, addr: Address,  # sirlint: hot
                  reliable: bool = False) -> int:
        """Transmit a slot-backed frame without materialising it.

        **Ownership transfers to the endpoint**: an unreliable view's
        slot is released right after the send syscall; a reliable
        view's slot stays pinned in the retry table (the retransmit
        bytes *are* the slot) until the ack or the final abandonment
        releases it.  The sequence restamp happens in place in the
        slot.  Chaos/impairment seams materialise one copy for the
        faulted transmission — they hold frames past this call — while
        the pinned slot keeps the pristine original (the impairments are
        read on every send: they may be switched on at any time).
        """
        sock = self._sock
        if self.closed or sock is None:
            view.release()
            return SEQ_NONE
        mem = view.mem
        seq = SEQ_NONE
        if reliable:
            seq = self._seq
            self._seq = seq + 1 if seq < SEQ_MAX else 1
            restamp_seq_into(view.buffer, view.start, seq)
            self._await_ack(seq, mem, view.slot, addr)
        self.metrics.record_out(len(mem))
        if self.fault_hook is not None or self.impairments.loss_rate > 0.0:
            self._impaired_send(mem, addr)
        else:
            try:
                sock.sendto(mem, addr)
            except (BlockingIOError, InterruptedError):
                self._queue_tx(mem, addr)
            except OSError:
                self.metrics.drop("socket_error")
        if not reliable:
            view.release()
        return seq

    def send_parts(self, parts, addr: Address, reliable: bool = False) -> int:
        """One datagram gathered from several buffers.

        The kernel coalesces ``parts`` into a single datagram via
        ``sendmsg`` — no join copy on the fast path; platforms (or
        sockets) without gather IO fall back to a plain ``sendto`` of
        the joined bytes.  Reliable or impaired sends join up front:
        the retry table and the fault seams need one stable buffer.
        """
        if self.closed or self._sock is None:
            return SEQ_NONE
        if (
            reliable or self.fault_hook is not None
            or self.impairments.loss_rate > 0.0
        ):
            return self.send(b"".join(parts), addr, reliable=reliable)
        total = 0
        for part in parts:
            total += len(part)
        self.metrics.record_out(total)
        try:
            self._sock.sendmsg(parts, (), 0, addr)
        except (BlockingIOError, InterruptedError):
            self._queue_tx(b"".join(parts), addr)
        except (AttributeError, NotImplementedError):  # pragma: no cover
            self._raw_send(b"".join(parts), addr)
        except OSError:
            self.metrics.drop("socket_error")
        return SEQ_NONE

    def _now(self) -> float:
        return self._loop.time() if self._loop is not None else 0.0

    def _impaired_send(self, datagram, addr: Address) -> None:
        if not isinstance(datagram, bytes):
            # Faulted/delayed transmissions outlive this call; they hold
            # a materialised copy, never a ring slot.
            datagram = bytes(datagram)
        fate = self.fault_hook(addr) if self.fault_hook is not None else None
        if fate is not None and fate.drop:
            self.metrics.drop("chaos_dropped")
            return
        loss_rate = self.impairments.loss_rate
        if loss_rate > 0.0 and self._rng.random() < loss_rate:
            self.metrics.drop("loss_injected")
            return
        delay = 0.0
        if fate is not None:
            delay = fate.extra_delay_s
            if fate.corrupt_seed is not None:
                datagram = corrupt_datagram(datagram, fate.corrupt_seed)
            if fate.duplicate and self._loop is not None:
                # The twin trails the original by a millisecond.
                self._loop.call_later(
                    delay + 1e-3, self._raw_send, datagram, addr
                )
        if delay > 0.0 and self._loop is not None:
            self._loop.call_later(delay, self._raw_send, datagram, addr)
        else:
            self._raw_send(datagram, addr)

    def _raw_send(self, datagram, addr: Address) -> None:
        if self.closed or self._sock is None:
            return
        try:
            self._sock.sendto(datagram, addr)
        except (BlockingIOError, InterruptedError):
            self._queue_tx(datagram, addr)
        except OSError:
            self.metrics.drop("socket_error")

    def _queue_tx(self, datagram, addr: Address) -> None:
        """Defer a copy of a frame a full socket buffer refused; flush on writable."""
        self._tx_backlog.append((bytes(datagram), addr))
        if (
            not self._writer_armed
            and self._loop is not None
            and self._sock is not None
        ):
            self._loop.add_writer(self._sock.fileno(), self._on_writable)
            self._writer_armed = True

    def _on_writable(self) -> None:
        sock = self._sock
        if sock is None:
            return
        while self._tx_backlog:
            datagram, addr = self._tx_backlog[0]
            try:
                sock.sendto(datagram, addr)
            except (BlockingIOError, InterruptedError):
                return
            except OSError:
                self.metrics.drop("socket_error")
            self._tx_backlog.popleft()
        if self._writer_armed and self._loop is not None:
            self._loop.remove_writer(sock.fileno())
            self._writer_armed = False

    # -- per-hop reliability -----------------------------------------------

    def _await_ack(self, seq: int, data, slot, addr: Address) -> None:  # sirlint: hot
        """Enter a just-stamped reliable frame into the retry table.  First
        deadlines (``now + ack_timeout``) arrive in order, behind the head the
        timer sleeps to: the loop is touched once per timeout, not per frame."""
        timeout_s = self.reliability.ack_timeout_s
        self._pending[seq] = _PendingFrame(
            data, slot, addr, self.reliability.max_retries, timeout_s,
        )
        now = self._loop.time()
        self._budget.note_send(now)
        deadline = now + timeout_s
        heapq.heappush(self._retry_heap, (deadline, seq))
        timer = self._retry_timer
        if timer is None or deadline < timer.when():
            self._sync_retry_timer()

    def _sync_retry_timer(self) -> None:
        """Restore the invariant: timer deadline == ``_retry_heap[0]``.

        Also when a push made a *new* earliest entry — a retry re-armed
        with a long backoff gap must not leave the timer sleeping past a
        younger frame's first deadline.
        """
        heap = self._retry_heap
        timer = self._retry_timer
        if heap:
            deadline = heap[0][0]
            if timer is not None:
                if timer.when() == deadline:
                    return
                timer.cancel()
            self._retry_timer = self._loop.call_at(
                deadline, self._on_retry_timer
            )
        elif timer is not None:
            timer.cancel()
            self._retry_timer = None

    def _on_retry_timer(self) -> None:
        """The timer fired: time out every due frame, purge acked heads.

        An entry whose frame has left ``_pending`` was acked (or
        abandoned); it is dropped here without firing
        :meth:`_on_ack_timeout`, and so is every acked entry behind it up
        to the first live one — the timer's next sleep then ends at a
        deadline that still matters.
        """
        # Everything up to the deadline this timer was armed for is due
        # (the loop may fire a hair before its own clock says so).
        due = max(self._retry_timer.when(), self._now())
        self._retry_timer = None
        heap = self._retry_heap
        pending = self._pending
        timed_out = []
        while heap:
            deadline, seq = heap[0]
            if seq in pending:
                if deadline > due:
                    break
                timed_out.append(seq)
            heapq.heappop(heap)
        for seq in timed_out:
            self._on_ack_timeout(seq)
        self._sync_retry_timer()

    def _next_gap(self, gap_s: float) -> float:
        """Exponential backoff with jitter: strictly growing, never twice
        the same — see :class:`ReliabilityConfig`."""
        growth = 1.0 + (BACKOFF_FACTOR - 1.0) * (
            0.5 + 0.5 * self._backoff_rng.random()
        )
        return min(BACKOFF_MAX_S, gap_s * growth)

    def _abandon_pending(self, seq: int, reason: str) -> None:
        """Give up on a reliable frame: unpin its slot, report the peer."""
        entry = self._pending.pop(seq, None)
        if entry is None:
            return
        if entry.slot is not None:
            self.ring.release(entry.slot)
        self.metrics.drop(reason)
        if self.on_peer_dead is not None:
            self.on_peer_dead(entry.addr)

    def _on_ack_timeout(self, seq: int) -> None:
        entry = self._pending.get(seq)
        if entry is None:
            return
        if entry.retries_left <= 0:
            # Peer is unresponsive: give up on this frame.
            self._abandon_pending(seq, "peer_dead")
            return
        now = self._now()
        if not self._budget.allow(now):
            # Retrying now would join a storm: abandon the frame instead
            # (the §6.3 cap — retry pressure may track offered load but
            # never run away from it).
            self._abandon_pending(seq, "retry_budget_exhausted")
            return
        entry.gap_s = self._next_gap(entry.gap_s)
        entry.retries_left -= 1
        self.metrics.retries += 1
        self._budget.note_retry(now)
        if self.on_retry is not None:
            self.on_retry(entry.addr, seq, entry.gap_s)
        self._impaired_send(entry.data, entry.addr)
        heapq.heappush(self._retry_heap, (self._now() + entry.gap_s, seq))
        self._sync_retry_timer()

    def _on_ack(self, seq: int, addr: Address) -> None:  # sirlint: hot
        """Peer ``addr`` acknowledged ``seq``: stop retrying that frame.

        Only the peer a frame was sent to can acknowledge it.  Sequence
        numbers are per sender, so another neighbour (or an ack from
        before a reopen drew a new random base) can carry a colliding
        number; honouring it would unpin a frame still in flight and
        cancel the retries that recover it.
        """
        entry = self._pending.get(seq)
        if entry is None:
            return  # acked already (a retry crossed its ack)
        if entry.addr != addr:
            self.metrics.drop("stray_ack")
            return
        del self._pending[seq]
        if entry.slot is not None:
            self.ring.release(entry.slot)

    def _is_duplicate(self, addr: Address, seq: int) -> bool:
        seen = self._seen.get(addr)
        if seen is None:
            window: Deque[int] = deque(maxlen=self.reliability.dedup_window)
            seen = (set(), window)
            self._seen[addr] = seen
        values, order = seen
        if seq in values:
            return True
        if len(order) == order.maxlen and order.maxlen:
            values.discard(order[0])
        order.append(seq)
        values.add(seq)
        return False

    # -- receive -----------------------------------------------------------

    def _on_readable(self) -> None:  # sirlint: hot
        """Drain loop: one wakeup, up to ``rx_batch`` datagrams.

        Each datagram lands in a ring slot via ``recvmsg_into`` (no
        receive-side allocation); acks and invalid frames are handled
        inline; surviving data frames are delivered as one batch of
        views whose slots the consumer now owns.  Only a delivered frame
        takes a slot from the ring: an ack, a duplicate, a drop and the
        empty read that ends the drain leave the receive slot for the next.

        The reliable frames drained are acknowledged with **one ack
        datagram per peer**, sent when the drain ends and before the
        consumer runs — a function of the drained batch alone (no timer,
        no clock).  A peer owed more numbers than fit one ring slot
        (never, at the default sizes: 32 numbers are 135 bytes) gets
        them in as many acks as it takes.
        """
        sock = self._sock
        if sock is None or self.closed:
            return
        ring = self.ring
        metrics = self.metrics
        buffers = self._recv_buffers
        batch, owed = [], []  # sirlint: disable=SIR008 -- the wakeup's products: the batch the consumer takes away and the numbers its one ack names
        # ``owed`` is for ``ack_peer``, the peer heard last; ``acks`` files
        # the lists per peer once a second one is heard (:meth:`_owed_to`).
        ack_peer = acks = None
        slot = self._rx_slot
        if slot is None:
            slot = ring.acquire()
            buffers[0] = slot.view
        for _ in range(self.rx_batch):
            try:
                nbytes, _anc, flags, addr = sock.recvmsg_into(buffers)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                metrics.drop("socket_error")
                break
            if flags & _MSG_TRUNC:
                # Bigger than a slot: not a valid overlay frame (slots
                # exceed the VIPER MTU plus all framing headroom).
                metrics.drop("oversize")
                continue
            datagram = slot.view[:nbytes]
            try:
                preamble = decode_preamble(datagram)
                kind = preamble.kind
                if kind == FRAME_ACK:
                    acked = ack_seqs(datagram, preamble)
            except ViperDecodeError:
                metrics.drop("undecodable")
                continue
            if kind == FRAME_ACK:
                metrics.acks_in += 1
                for seq in acked:
                    self._on_ack(seq, addr)
                continue
            if kind != FRAME_DATA:  # pragma: no cover - decoder guards
                metrics.drop("undecodable")
                continue
            seq = preamble.seq
            if seq != SEQ_NONE:
                # Acked even when a duplicate — its ack may have been lost.
                if addr != ack_peer:
                    if ack_peer is not None:
                        acks, owed = self._owed_to(acks, ack_peer, owed, addr)
                    ack_peer = addr
                owed.append(seq)
                if self._is_duplicate(addr, seq):
                    metrics.drop("duplicate")
                    continue
            metrics.record_in(nbytes)
            batch.append((PacketView.of_slot(slot, nbytes), addr, preamble))
            slot = ring.acquire()
            buffers[0] = slot.view
        self._rx_slot = slot  # sirlint: disable=SIR009 -- the endpoint's own receive slot: at most one between wakeups, close() gives it back (ARCHITECTURE §14)
        if acks is not None or len(owed) > 1:
            self._send_acks(acks, ack_peer, owed)
        elif owed:
            metrics.acks_out += 1
            self._raw_send(encode_ack(owed[0]), ack_peer)
        if not batch:
            return
        self.rx_batches += 1
        self.rx_datagrams += len(batch)
        if self.on_batch is not None:
            self.on_batch(batch)
        else:
            for view, _source, _preamble in batch:
                view.release()

    def _owed_to(self, acks, ack_peer: Address, owed: List[int], addr: Address):
        """Another peer than ``ack_peer`` is heard: file ``owed`` under
        it, return ``(acks, the numbers owed to addr so far)``."""
        if acks is None:
            acks = {ack_peer: owed}
        return acks, acks.setdefault(addr, [])

    def _send_acks(self, acks, ack_peer: Address, owed: List[int]) -> None:
        """One ack per peer in the order first heard (``acks`` is None when
        only ``ack_peer`` was), naming all it is owed.  An ack must fit a slot
        of the peer's ring (sized like ours) and the 16-bit payloadLen."""
        per_ack = 1 + min(
            self.ring.slot_bytes - PREAMBLE_BYTES, MAX_PAYLOAD_BYTES
        ) // SEQ_BYTES
        for addr, seqs in (acks or {ack_peer: owed}).items():
            for at in range(0, len(seqs), per_ack):
                self.metrics.acks_out += 1
                self._raw_send(
                    encode_ack(seqs[at], seqs[at + 1:at + per_ack]), addr
                )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveEndpoint {self.name!r} at {self.address}>"
