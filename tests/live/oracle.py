"""The references the live overlay's fast paths are tested against.

**The hop move.**  ``src/repro/live`` has exactly one per-hop transform — the in-place
:func:`~repro.live.frames.hop_move_into` /
:func:`~repro.live.frames.slick_reroute_into`, reached only through
``LiveRouter._on_batch``.  This module is its differential oracle: the
same strip/reverse/append done the slow way, by decoding the whole frame
into a :class:`~repro.viper.packet.SirpentPacket`, applying the
simulator's own packet algebra and re-encoding.  It shares no code with
the in-place path beyond the whole-frame codec.

**The drain.**  :func:`drain_reference` is ``LiveEndpoint._on_readable``
as it stood at ``2ad7013`` — a slot acquired and released per datagram,
the acks owed kept in a dict per peer, every ack built by
:func:`~repro.live.frames.encode_ack` — run on a live endpoint's own
state.  ``tests/live/test_drain_differential.py`` holds the endpoint's
drain to it, wakeup by wakeup.
"""

from collections import Counter

from repro.dataplane import Action, HopInput, UNKNOWN_IN_PORT
from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    MAX_PAYLOAD_BYTES,
    PREAMBLE_BYTES,
    SEQ_BYTES,
    SEQ_NONE,
    ack_seqs,
    decode_live_frame,
    decode_preamble,
    encode_ack,
    encode_live_frame,
    hop_move_into,
    return_tail_of,
)
from repro.live.link import _MSG_TRUNC
from repro.live.router import LiveRouter
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import TRUNCATION_SENTINEL
from repro.viper.portinfo import ETHERNET_INFO_BYTES, EthernetInfo
from repro.viper.ring import BufferRing, DEFAULT_SLOT_BYTES
from repro.viper.wire import HeaderSegment, PacketView, encode_segment


def strip_and_append_slow(
    datagram: bytes, return_segment: HeaderSegment, seq: int = SEQ_NONE
) -> bytes:
    """Reference strip/reverse/append through the structural codec.

    Decodes the whole frame into a :class:`SirpentPacket`, performs
    :meth:`~repro.viper.packet.SirpentPacket.advance`, and re-encodes —
    every byte round-trips through the object layer.
    """
    preamble, packet, payload_bytes = decode_live_frame(datagram)
    if preamble.seg_count == 0:
        raise ViperDecodeError("cannot forward: no leading segment")
    packet.advance(return_segment)
    encoded_return = encode_segment(return_segment)
    if len(encoded_return) >= TRUNCATION_SENTINEL:
        raise ValueError("return segment too large to frame in the trailer")
    return encode_live_frame(
        packet, payload_bytes, seq=seq, trace_id=preamble.trace_id
    )


def slick_reroute_slow(
    datagram: bytes, return_segment: HeaderSegment, seq: int = SEQ_NONE
) -> bytes:
    """Reference slick reroute through the structural codec.

    Decodes the whole frame, replaces the route with the leading
    alternate block
    (:meth:`~repro.viper.packet.SirpentPacket.apply_slick_reroute`),
    takes the block's first hop and re-encodes.
    """
    preamble, packet, payload_bytes = decode_live_frame(datagram)
    if preamble.seg_count == 0:
        raise ViperDecodeError("cannot forward: no leading segment")
    if not packet.segments[0].slick or not packet.alternates:
        raise ViperDecodeError("cannot reroute: leading segment is not slick")
    packet.apply_slick_reroute(packet.alternates[0])
    packet.advance(return_segment)
    encoded_return = encode_segment(return_segment)
    if len(encoded_return) >= TRUNCATION_SENTINEL:
        raise ValueError("return segment too large to frame in the trailer")
    return encode_live_frame(
        packet, payload_bytes, seq=seq, trace_id=preamble.trace_id
    )


def hop_in_place(
    datagram: bytes, return_segment: HeaderSegment, seq: int = SEQ_NONE
) -> bytes:
    """One router hop on ``datagram`` in a default-sized slot: the
    in-place move, asserted equal to :func:`strip_and_append_slow`;
    returns the forwarded bytes."""
    view = slot_view(BufferRing(slots=1), datagram)
    assert hop_move_into(view, return_tail_of(return_segment), seq=seq)
    forwarded = view.tobytes()
    view.release()
    assert forwarded == strip_and_append_slow(datagram, return_segment, seq=seq)
    return forwarded


def sweep_tail_room(in_place, oracle, datagram: bytes,
                    return_segment: HeaderSegment):
    """Run ``in_place`` on ``datagram`` in slots with tail-room from none
    to exactly enough for the return tail.

    Whenever the oracle's output fits the slot the move must succeed and
    equal it byte for byte (every slot but the largest makes it slide to
    the slot head); when it cannot fit, False and the view untouched.
    Returns ``(fitted, refused)`` slot counts.
    """
    tail = return_tail_of(return_segment)
    expected = oracle(datagram, return_segment)
    fitted = refused = 0
    for slot_bytes in range(len(datagram), len(datagram) + len(tail) + 1):
        view = slot_view(BufferRing(slots=1, slot_bytes=slot_bytes), datagram)
        if len(expected) <= slot_bytes:
            assert in_place(view, tail), slot_bytes
            assert view.tobytes() == expected, slot_bytes
            fitted += 1
        else:
            assert not in_place(view, tail), slot_bytes
            assert (view.start, view.tobytes()) == (0, datagram), slot_bytes
            refused += 1
        view.release()
    assert refused == max(0, len(expected) - len(datagram))
    return fitted, refused


def forward_structurally(router, datagram: bytes, source):
    """The fate ``router`` owes ``datagram`` from ``source``, structurally.

    Returns ``("drop", reason)``, ``("deliver", datagram)`` or
    ``("forward", forwarded_bytes, peer_address)``.  The decision comes
    from ``router``'s own pipeline (its flow cache warms and its
    ``dead_ports`` count), fed a fresh :class:`HopInput` built from the
    fully decoded packet; the transform is the slow one above.
    """
    try:
        preamble, packet, _payload = decode_live_frame(datagram)
        segment = packet.segments[0]
    except (ViperDecodeError, IndexError):
        return ("drop", "undecodable")
    portinfo = segment.portinfo
    in_port = router.addr_port.get(source, UNKNOWN_IN_PORT)
    decision = router.pipeline.decide(HopInput(
        segment=segment,
        seg_count=preamble.seg_count,
        wire_size=preamble.payload_len,
        in_port=in_port,
        now_ms=router._now_ms(),
        reverse_portinfo=lambda: (
            EthernetInfo.from_bytes(portinfo).reversed().to_bytes()
            if len(portinfo) == ETHERNET_INFO_BYTES else b""
        ),
        alternate=lambda: packet.alternates[0] if segment.slick else None,
    ))
    if decision.action is Action.DROP:
        return ("drop", decision.reason)
    if decision.action is Action.DELIVER_LOCAL:
        return ("deliver", datagram)
    if in_port == UNKNOWN_IN_PORT:
        return ("drop", "unknown_peer")
    move = slick_reroute_slow if decision.slick_reroute else strip_and_append_slow
    forwarded = move(datagram, decision.return_segment)
    if len(forwarded) > router.endpoint.ring.slot_bytes:
        return ("drop", "oversize")
    return ("forward", forwarded, router.ports[decision.out_port])


def expected_outcome(router, arrivals):
    """Fold :func:`forward_structurally` over ``(datagram, source)`` pairs.

    Returns ``(sent, drops)``: the ``(bytes, address)`` list and the drop
    counters an identically wired router must reproduce through
    ``_on_batch``.
    """
    sent, drops = [], Counter()
    for datagram, source in arrivals:
        fate = forward_structurally(router, datagram, source)
        if fate[0] == "forward":
            sent.append(fate[1:])
        elif fate[0] == "drop":
            drops[fate[1]] += 1
    return sent, dict(drops)


def slot_view(ring, datagram: bytes) -> PacketView:
    """``datagram`` as the endpoint would hand it on: in a ring slot."""
    slot = ring.acquire()
    slot.buffer[: len(datagram)] = datagram
    return PacketView.of_slot(slot, len(datagram))


def batch_of(view, source):
    """What ``LiveEndpoint._on_readable`` hands ``on_batch`` for one
    frame: the view, its source, and the preamble decoded from it."""
    return [(view, source, decode_preamble(view.mem))]


def capture_router(name, ports=(1, 2), slot_bytes=DEFAULT_SLOT_BYTES):
    """A LiveRouter whose endpoint transmits into a list, not a socket.

    ``ports`` are wired to ``("127.0.0.1", 9000 + port)`` and the
    endpoint's ring (take test views from it) has 8 slots of
    ``slot_bytes``.  A router forwards only through ``send_view``; a
    call of the bytes ``send`` fails the test.
    """
    router = LiveRouter(name)
    router.endpoint.ring = BufferRing(slots=8, slot_bytes=slot_bytes)
    sent = []

    def send_view(view, addr, reliable=False):
        sent.append((view.tobytes(), addr))
        view.release()
        return 0

    def send(datagram, addr, reliable=False):
        raise AssertionError("a router forwards views, never bytes")

    router.endpoint.send_view = send_view
    router.endpoint.send = send
    for port in ports:
        router.connect_port(port, ("127.0.0.1", 9000 + port))
    return router, sent


def drain_reference(self) -> None:
    """One rx wakeup of the :class:`~repro.live.link.LiveEndpoint`
    ``self``, the reference way: up to ``rx_batch`` datagrams, each into
    a slot acquired for it (and released again unless it is delivered);
    one ack per peer heard, sent when the drain ends and before the
    consumer runs."""
    sock = self._sock
    if sock is None or self.closed:
        return
    ring = self.ring
    buffers = self._recv_buffers
    batch = []
    #: Hop sequence numbers to acknowledge, per peer, in arrival order.
    acks = {}
    for _ in range(self.rx_batch):
        slot = ring.acquire()
        buffers[0] = slot.view
        try:
            nbytes, _anc, flags, addr = sock.recvmsg_into(buffers)
        except (BlockingIOError, InterruptedError):
            ring.release(slot)
            break
        except OSError:
            ring.release(slot)
            self.metrics.drop("socket_error")
            break
        finally:
            buffers[0] = None
        if flags & _MSG_TRUNC:
            # Bigger than a slot: not a valid overlay frame (slots
            # exceed the VIPER MTU plus all framing headroom).
            ring.release(slot)
            self.metrics.drop("oversize")
            continue
        datagram = slot.view[:nbytes]
        try:
            preamble = decode_preamble(datagram)
            if preamble.kind == FRAME_ACK:
                acked = ack_seqs(datagram, preamble)
        except ViperDecodeError:
            ring.release(slot)
            self.metrics.drop("undecodable")
            continue
        if preamble.kind == FRAME_ACK:
            ring.release(slot)
            self.metrics.acks_in += 1
            for seq in acked:
                self._on_ack(seq, addr)
            continue
        if preamble.kind != FRAME_DATA:  # pragma: no cover - decoder guards
            ring.release(slot)
            self.metrics.drop("undecodable")
            continue
        if preamble.seq != SEQ_NONE:
            # Acked even when a duplicate — its ack may have been lost.
            owed = acks.get(addr)
            if owed is None:
                acks[addr] = [preamble.seq]
            else:
                owed.append(preamble.seq)
            if self._is_duplicate(addr, preamble.seq):
                ring.release(slot)
                self.metrics.drop("duplicate")
                continue
        self.metrics.record_in(nbytes)
        batch.append((PacketView.of_slot(slot, nbytes), addr, preamble))
    # An ack must fit a slot of the peer's ring (sized like ours) and
    # the 16-bit payloadLen, whatever ``rx_batch`` is.
    per_ack = 1 + min(
        ring.slot_bytes - PREAMBLE_BYTES, MAX_PAYLOAD_BYTES
    ) // SEQ_BYTES
    for addr, owed in acks.items():
        for at in range(0, len(owed), per_ack):
            self.metrics.acks_out += 1
            self._raw_send(
                encode_ack(owed[at], owed[at + 1:at + per_ack]), addr
            )
    if not batch:
        return
    self.rx_batches += 1
    self.rx_datagrams += len(batch)
    if self.on_batch is not None:
        self.on_batch(batch)
    else:
        for view, _source, _preamble in batch:
            view.release()
