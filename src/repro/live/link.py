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
* **dead-peer detection, no retransmission** — loss recovery is the
  transport's (§4: packet groups, selective retransmission); the hop
  layer keeps only the signal nothing above it gives, a neighbour gone
  silent, which in-band slick reroute keys on.  It is a **probe ladder
  on the traffic the port already carries**: the first send to a peer
  with no probe in flight is that peer's probe — at most one per peer
  per ``ack_timeout_s`` — and hearing anything from the peer before the
  probe's deadline answers it.  On request/response traffic the reply
  does, so a healthy port sends no extra datagram.  When the peer
  stayed silent through its last probe, the send also puts a
  **probe frame** on the wire beside the data frame — 11 bytes, a fresh
  32-bit nonce (:func:`~repro.live.frames.encode_probe`) — which the
  receiving endpoint answers from its drain, inline, with one ack
  echoing the nonce (:func:`~repro.live.frames.encode_ack`), so a port
  that carries traffic one way only is answered too.  Probe and ack
  frames take no ring slot and never reach :attr:`on_batch`, and no
  data frame is written to: it leaves byte for byte as it was handed
  over.  ``1 + max_retries`` consecutive unanswered probes, the last of
  them a probe frame, report the peer through :attr:`on_peer_dead`;
  hearing from it resets the count, and an ack echoing the nonce of a
  probe out to another peer counts ``stray_ack`` and changes nothing
  (nonces are per sender).  The probes sit in one dict in send order,
  which is deadline order (one constant timeout), under **one** loop
  timer.  A port nobody sends on is never probed and needs no verdict,
* **coalesced sends** — :meth:`send_parts` gathers one datagram from
  several buffers via ``sendmsg`` (plain ``sendto`` of the joined
  bytes as the fallback); a full socket buffer queues a copy of the
  frame and flushes on writability — up to ``TX_BACKLOG_MAX`` frames,
  past which a refused frame is dropped (``tx_backlog_full``),
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
import random
import socket
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_PROBE,
    PREAMBLE_BYTES,
    Preamble,
    control_nonce,
    decode_preamble,
    encode_ack,
    encode_probe,
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


#: Frames a full socket buffer may leave deferred at once; a frame
#: refused past it is dropped, counted ``tx_backlog_full``.
TX_BACKLOG_MAX = 512

#: Peers whose last data preamble the drain remembers; past this many,
#: the entry made first is forgotten (and decoded again next time).
PREAMBLE_MEMO_PEERS = 64


@dataclass(frozen=True)
class LivenessConfig:
    """The probe ladder's rungs: how long a probe waits for an answer,
    and how many more unanswered probes a peer is allowed after the
    first before it is reported dead — ``1 + max_retries`` in a row.

    A frozen value, checked when built: one instance is shared by every
    endpoint an overlay starts, and an endpoint's probe deadlines are in
    send order only while its ``ack_timeout_s`` cannot change under the
    probes in flight.
    """

    ack_timeout_s: float = 0.05
    max_retries: int = 3

    def __post_init__(self) -> None:
        if not self.ack_timeout_s > 0:  # NaN too
            raise ValueError(
                f"ack_timeout_s must be > 0, not {self.ack_timeout_s}"
            )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, not {self.max_retries}"
            )


def corrupt_datagram(datagram, seed: int) -> bytes:
    """Deterministically flip one byte past the overlay preamble.

    The preamble survives, so the frame still decodes — Sirpent carries
    no header checksum, so chaos corruption must be *delivered* and
    become the transport layer's problem (§4.1), not vanish as line
    noise.  A probe frame's flip lands in its nonce, which the ack
    echoes as it arrived: the ack still answers (any frame from the
    peer does).  Frames too short to have a body pass through
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


class LiveEndpoint:
    """One bound UDP socket with framing, a probe ladder and impairments."""

    def __init__(
        self,
        name: str,
        metrics: Optional[EndpointMetrics] = None,
        impairments: Optional[Impairments] = None,
        liveness: Optional[LivenessConfig] = None,
        ring: Optional[BufferRing] = None,
        rx_batch: int = RX_BATCH,
    ) -> None:
        self.name = name
        self.metrics = metrics if metrics is not None else EndpointMetrics(name)
        self.impairments = impairments if impairments is not None else Impairments()
        self.liveness = liveness if liveness is not None else LivenessConfig()
        self._rng = random.Random(self.impairments.seed)
        #: Preallocated packet buffers; RX fills slots in place.
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
        #: Called with a peer's address once ``1 + max_retries``
        #: consecutive probes to it went unanswered, the last a probe
        #: frame.
        self.on_peer_dead: Optional[Callable[[Address], None]] = None
        #: Chaos seam (:mod:`repro.chaos.seam`): ``fault_hook(addr)``
        #: returns a per-datagram fault decision or None.  Duck-typed so
        #: the live layer stays independent of the chaos package.
        self.fault_hook: Optional[Callable[[Address], Any]] = None
        #: The last probe frame's nonce (32 bits, counting up).
        self._nonce = 0
        #: Every peer probed in the last ``ack_timeout_s``, in send order
        #: — which is deadline order, one constant timeout after each:
        #: ``addr -> (nonce, sent_at)``, nonce None unless a probe frame
        #: went out.
        #: An entry leaves at its deadline, answered or not, so a peer
        #: gets at most one probe per ``ack_timeout_s``.
        self._probes: Dict[Address, Tuple[Optional[int], float]] = {}
        #: The peers not heard from since their latest probe was sent:
        #: ``addr -> probes to it that went unanswered in a row``.  Hearing
        #: from a peer deletes its entry — an unheard peer's probe is
        #: still in flight, or it was silent through the last ones.
        self._unheard: Dict[Address, int] = {}
        #: The endpoint's one loop timer, armed for the oldest probe's
        #: deadline exactly while a probe entry exists (else None).
        self._probe_timer: Optional[asyncio.TimerHandle] = None
        #: Frames deferred by a momentarily full socket buffer (at most
        #: ``TX_BACKLOG_MAX``).
        self._tx_backlog: Deque[Tuple[bytes, Address]] = deque()
        self._writer_armed = False
        #: The slot the next datagram lands in, kept across wakeups (None
        #: until the first, and once closed); ``recvmsg_into``'s buffer list.
        self._rx_slot: Optional[RingSlot] = None
        self._recv_buffers: List[Any] = [None]
        #: Per peer, the 7 raw bytes and the decoded :class:`Preamble` of
        #: the last untraced data frame the drain decoded from it (at
        #: most ``PREAMBLE_MEMO_PEERS`` peers): a datagram that starts
        #: with those bytes is that preamble, and is not decoded again.
        self._preambles: Dict[Address, Tuple[bytes, Preamble]] = {}
        #: Drain-loop accounting (wakeup amortisation, for the bench).
        self.rx_batches = 0
        self.rx_datagrams = 0
        self.closed = False

    # -- lifecycle ---------------------------------------------------------

    async def open(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the socket; returns the bound ``(host, port)``.

        Re-opening a previously closed endpoint (a crashed router
        restarting) starts with no probe out and no miss counted —
        :meth:`close` forgot them: the ladder is soft state.
        """
        self.closed = False
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
        """Close the socket, forget the probes and the peers' preambles,
        give back the receive slot."""
        self.closed = True
        slot, self._rx_slot = self._rx_slot, None
        if slot is not None:
            slot.ring.release(slot)
        self._preambles.clear()
        self._probes.clear()
        self._unheard.clear()
        timer, self._probe_timer = self._probe_timer, None
        if timer is not None:
            timer.cancel()
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

    def send(self, datagram, addr: Address) -> None:  # sirlint: hot
        """Transmit one framed datagram, byte for byte as handed over.

        The first send to a peer with no probe out opens that peer's
        probe (:meth:`_probe`).  Counted and sent inline, as
        :meth:`send_view` does.
        """
        sock = self._sock
        if self.closed or sock is None:
            return
        if addr not in self._probes:
            self._probe(addr)
        metrics = self.metrics
        metrics.frames_out += 1
        metrics.bytes_out += len(datagram)
        if self.fault_hook is not None or self.impairments.loss_rate > 0.0:
            self._impaired_send(datagram, addr)
        else:
            try:
                sock.sendto(datagram, addr)
            except (BlockingIOError, InterruptedError):
                self._queue_tx(datagram, addr)
            except OSError:
                metrics.drop("socket_error")

    def send_view(self, view: PacketView, addr: Address) -> None:  # sirlint: hot
        """Transmit a slot-backed frame without materialising it.

        **Ownership transfers to the endpoint**: the view's slot is
        released right after the send syscall.  Probes as :meth:`send`.
        Chaos/impairment seams materialise one copy for the faulted
        transmission — they hold frames past this call (the impairments
        are read on every send: they may be switched on at any time).
        """
        sock = self._sock
        if self.closed or sock is None:
            view.release()
            return
        if addr not in self._probes:
            self._probe(addr)
        mem = view.mem
        metrics = self.metrics
        metrics.frames_out += 1
        metrics.bytes_out += len(mem)
        if self.fault_hook is not None or self.impairments.loss_rate > 0.0:
            self._impaired_send(mem, addr)
        else:
            try:
                sock.sendto(mem, addr)
            except (BlockingIOError, InterruptedError):
                self._queue_tx(mem, addr)
            except OSError:
                metrics.drop("socket_error")
        view.release()

    def send_parts(self, parts, addr: Address) -> None:
        """One datagram gathered from several buffers.

        The kernel coalesces ``parts`` into a single datagram via
        ``sendmsg`` — no join copy on the fast path; platforms (or
        sockets) without gather IO fall back to a plain ``sendto`` of
        the joined bytes.  Probes as :meth:`send`.  An impaired send
        joins up front and goes through :meth:`send` (the fault seams
        need one stable buffer).
        """
        if self.closed or self._sock is None:
            return
        if self.fault_hook is not None or self.impairments.loss_rate > 0.0:
            self.send(b"".join(parts), addr)
            return
        if addr not in self._probes:
            self._probe(addr)
        total = 0
        for part in parts:
            total += len(part)
        metrics = self.metrics
        metrics.frames_out += 1
        metrics.bytes_out += total
        try:
            self._sock.sendmsg(parts, (), 0, addr)
        except (BlockingIOError, InterruptedError):
            self._queue_tx(b"".join(parts), addr)
        except (AttributeError, NotImplementedError):  # pragma: no cover
            self._raw_send(b"".join(parts), addr)
        except OSError:
            metrics.drop("socket_error")

    def _impaired_send(self, datagram, addr: Address) -> None:
        """Transmit through the chaos and impairment seams."""
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
        """Defer a copy of a frame a full socket buffer refused; flush on
        writable.  Past ``TX_BACKLOG_MAX`` deferred frames the frame is
        dropped and counted ``tx_backlog_full`` instead: a socket that
        stays full must not grow memory, and the transport recovers the
        loss."""
        backlog = self._tx_backlog
        if len(backlog) >= TX_BACKLOG_MAX:
            self.metrics.drop("tx_backlog_full")
            return
        backlog.append((bytes(datagram), addr))
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

    # -- the probe ladder --------------------------------------------------

    def _probe(self, addr: Address) -> None:
        """Open ``addr``'s probe with the frame about to leave for it.

        When the peer was silent through its last probe, a probe frame
        carrying a fresh nonce goes out first, through the same seams as
        any datagram, and the receiver acks it; otherwise the frame
        itself is the probe, and the peer's traffic back answers it.

        One dict insert at the end of ``_probes``: its deadline, one
        timeout from now, is the latest, so the timer — armed for the
        oldest entry while any exists — is armed here only when this
        is the only one.
        """
        nonce = None
        if self._unheard.setdefault(addr, 0):
            nonce = self._nonce = (self._nonce + 1) & 0xFFFFFFFF
            self._impaired_send(encode_probe(nonce), addr)
        now = self._loop.time()
        if not self._probes:
            self._probe_timer = self._loop.call_at(
                now + self.liveness.ack_timeout_s, self._on_probe_timer
            )
        self._probes[addr] = (nonce, now)

    def _on_probe_timer(self) -> None:
        """The oldest probe's deadline came: settle every probe now due,
        oldest first, re-arm for the next, then report the peers whose
        unanswered probe was their ``1 + max_retries``-th in a row.

        A verdict needs a probe frame — one the peer must answer even if
        it has nothing to send back — so a peer silent past its traffic
        alone is first sent a probe frame, whatever ``max_retries`` is;
        after a verdict its ladder starts again.
        """
        # Everything up to the deadline this timer was armed for is due
        # (the loop may fire a hair before its own clock says so).
        due = max(self._probe_timer.when(), self._loop.time())
        self._probe_timer = None
        timeout_s = self.liveness.ack_timeout_s
        probes = self._probes
        unheard = self._unheard
        dead = []
        while probes:
            addr, (nonce, sent_at) = next(iter(probes.items()))
            if sent_at + timeout_s > due:
                self._probe_timer = self._loop.call_at(
                    sent_at + timeout_s, self._on_probe_timer
                )
                break
            del probes[addr]
            missed = unheard.get(addr)
            if missed is None:
                continue  # heard from: answered
            if nonce is not None and missed >= self.liveness.max_retries:
                del unheard[addr]
                dead.append(addr)
            else:
                unheard[addr] = missed + 1
        for addr in dead:
            self.metrics.drop("peer_dead")
            if self.on_peer_dead is not None:
                self.on_peer_dead(addr)

    def _on_ack(self, nonce: int, addr: Address) -> None:  # sirlint: hot
        """Peer ``addr`` sent an ack echoing ``nonce``: it is alive.

        Like any frame from the peer, the ack answers its probe and
        clears its unanswered count — whatever nonce it echoes, a late
        one too.  An ack echoing the nonce of a probe frame out to
        another peer is ``stray_ack`` and changes nothing: nonces are
        per sender, and an ack speaks only for the address it came from.
        """
        for peer, (sent, _sent_at) in self._probes.items():
            if sent == nonce and peer != addr:
                self.metrics.drop("stray_ack")
                return
        self._unheard.pop(addr, None)

    # -- receive -----------------------------------------------------------

    def _on_readable(self) -> None:  # sirlint: hot
        """Drain loop: one wakeup, up to ``rx_batch`` datagrams.

        Each datagram lands in a ring slot via ``recvmsg_into`` (no
        receive-side allocation); probes, acks and invalid frames are
        handled inline; surviving data frames are delivered as one batch
        of views whose slots the consumer now owns.  Only a delivered
        frame takes a slot from the ring: a probe, an ack, a drop and
        the empty read that ends the drain leave the receive slot for
        the next.  Any frame from a peer answers its probe (the peer is
        heard from), and a probe is answered at once with one ack
        echoing its nonce — a function of the datagram alone (no timer,
        no clock).  Each peer's preamble is decoded once: a datagram
        that starts with the 7 bytes of the last untraced data frame
        decoded from its peer is handed on with that frame's
        :class:`Preamble`; anything else is decoded.
        """
        sock = self._sock
        if sock is None or self.closed:
            return
        ring = self.ring
        metrics = self.metrics
        unheard = self._unheard
        preambles = self._preambles
        buffers = self._recv_buffers
        bytes_in = 0
        batch = []  # sirlint: disable=SIR008 -- the wakeup's product: the batch the consumer takes away
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
            memo = preambles.get(addr)
            if memo is not None and slot.buffer.startswith(memo[0], 0, nbytes):
                # The peer's last data preamble again, byte for byte.
                preamble = memo[1]
            else:
                datagram = slot.view[:nbytes]
                try:
                    preamble = decode_preamble(datagram)
                    kind = preamble.kind
                    if kind != FRAME_DATA:
                        nonce = control_nonce(datagram, preamble)
                except ViperDecodeError:
                    metrics.drop("undecodable")
                    continue
                if kind == FRAME_ACK:
                    metrics.acks_in += 1
                    self._on_ack(nonce, addr)
                    continue
                if kind == FRAME_PROBE:
                    if unheard and addr in unheard:
                        del unheard[addr]
                    # Its sender waits for the nonce back.
                    metrics.acks_out += 1
                    self._raw_send(encode_ack(nonce), addr)
                    continue
                if not preamble.trace_id:
                    if memo is None and len(preambles) >= PREAMBLE_MEMO_PEERS:
                        del preambles[next(iter(preambles))]
                    preambles[addr] = (bytes(slot.view[:PREAMBLE_BYTES]), preamble)  # sirlint: disable=SIR008 -- the memo's own copy of a peer's 7 preamble bytes, made on a miss only: a peer's frames repeat them
            if unheard and addr in unheard:
                del unheard[addr]
            bytes_in += nbytes
            batch.append((PacketView(slot.buffer, 0, nbytes, slot), addr, preamble))
            slot = ring.acquire()
            buffers[0] = slot.view
        self._rx_slot = slot  # sirlint: disable=SIR009 -- the endpoint's own receive slot: at most one between wakeups, close() gives it back (ARCHITECTURE §14)
        if not batch:
            return
        # The wakeup's data frames, counted once for all of them.
        delivered = len(batch)
        metrics.frames_in += delivered
        metrics.bytes_in += bytes_in
        self.rx_batches += 1
        self.rx_datagrams += delivered
        if self.on_batch is not None:
            self.on_batch(batch)
        else:
            for view, _source, _preamble in batch:
                view.release()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveEndpoint {self.name!r} at {self.address}>"
