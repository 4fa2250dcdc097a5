"""The references the frame fast paths are tested against.

**The hop move.**  ``src/`` has exactly one per-hop transform — the
in-place :func:`~repro.live.frames.hop_move_into` /
:func:`~repro.live.frames.slick_reroute_into` /
:func:`~repro.live.frames.truncate_into`, reached through
``LiveRouter._on_batch`` and ``SirpentRouter._apply``.  This module is
its differential oracle: the structural packet algebra (:func:`advance`,
:func:`apply_slick_reroute`, :func:`mark_truncated`,
:func:`truncate_structurally`, :func:`corrupted_copy`) on a
:class:`~repro.viper.packet.SirpentPacket`, and the same moves done the
slow way — decode the whole frame, apply the algebra, re-encode.  It
shares no code with the in-place path beyond the whole-frame codec.

**The structural reads.**  :func:`decode_packet` (the inverse of
:func:`~repro.viper.packet.encode_packet`), :func:`decode_trailer` and
:func:`build_return_route` (§2's receiver, reversing the trailer) read
a packet as objects; :func:`live_packet`, :func:`live_return_segments`
and :func:`live_trailer_spans` read a delivery's kept frame the
same way, which the host itself never does.  :func:`free_slots` is a
ring's leak check.

**The drain.**  :func:`drain_reference` is ``LiveEndpoint._on_readable``
the plain way — a slot acquired and released per datagram, a control
frame's exact framing and nonce read field by field, every probe
answered by an ack built by :func:`~repro.live.frames.encode_ack`, a
peer heard from by every frame it sends but an ack, an ack's stray test
a scan of the probes out — run on a live endpoint's own state.
``tests/live/test_drain_differential.py`` holds the endpoint's drain to
it, wakeup by wakeup.

**The probe timer.**  :func:`probe_deadline` is the instant an
endpoint's one probe timer must wake for, read off its probes the plain
way: every probe's deadline, the earliest of them.

**The PDU readers.**  :func:`decode_pdu`, :func:`frame_pdu` and
:func:`pdu_intact` read a PDU in flight — a test's view of what
:func:`~repro.transport.codec.open_pdu` checks and decodes in place on the
receive path.

**The virtual clock and the scripted socket.**  :class:`FakeLoop`
stands in for an endpoint's event loop in socket-free harnesses: its
clock moves only when a test advances it, and each timer fires exactly
at its deadline.  :class:`ScriptedSocket` stands in for its UDP socket,
handing out queued datagrams as ``recvmsg_into`` does.
"""

import zlib
from collections import Counter, deque

from repro.core.packet import FramePacket
from repro.dataplane import Action, HopInput, UNKNOWN_IN_PORT
from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_PROBE,
    PREAMBLE_BYTES,
    decode_live_frame,
    decode_preamble,
    encode_ack,
    encode_live_frame,
    frame_bounds,
    frame_spans,
    hop_move_into,
    return_tail_of,
)
from repro.transport.codec import VmtpPdu, open_pdu
from repro.live.link import _MSG_TRUNC
from repro.live.router import LiveRouter
from repro.viper.errors import DecodeError, ViperDecodeError
from repro.viper.packet import (
    TRUNCATION_MARK,
    TRUNCATION_MARK_BYTES,
    TRUNCATION_SENTINEL,
    SirpentPacket,
    TrailerElement,
    encode_packet,
    trailer_elements,
    trailer_spans,
)
from repro.viper.portinfo import ETHERNET_INFO_BYTES, EthernetInfo
from repro.viper.ring import BufferRing, DEFAULT_SLOT_BYTES
from repro.viper.wire import (
    HeaderSegment,
    PacketView,
    decode_alt_blocks,
    decode_route,
    encode_segment,
    slick_count,
)


# -- the PDU readers --------------------------------------------------------------


def pdu_intact(data: bytes) -> bool:
    """The CRC-32 at the end of ``data`` matches the bytes before it."""
    end = len(data) - 4
    return zlib.crc32(data[:end]) == int.from_bytes(data[end:end + 4], "big")


def decode_pdu(data: bytes):
    """The PDU that is all of ``data``, or None for one
    :func:`~repro.transport.codec.open_pdu` refuses (short, damaged, of no
    kind, a malformed NAK)."""
    pdu = open_pdu(data, 0, len(data))
    return pdu if pdu.__class__ is VmtpPdu else None


def frame_pdu(frame: bytes):
    """The PDU a data frame's payload carries (a live datagram or a
    simulator frame's bytes), or None as :func:`decode_pdu` has it."""
    _socket, start, end = frame_bounds(frame, decode_preamble(frame))
    return decode_pdu(frame[start:end])


# -- the structural packet algebra ---------------------------------------------


def advance(packet, return_segment):
    """Strip the leading segment, appending its reverse to the trailer.

    Returns the stripped segment.  A slick leading segment takes its
    (leading) alternate block with it — an un-taken alternate is dead
    weight past its hop.
    """
    stripped = packet.segments.pop(0)
    if stripped.slick and packet.alternates:
        packet.alternates.pop(0)
    packet.trailer.append(TrailerElement(return_segment))
    return stripped


def apply_slick_reroute(packet, alternate):
    """Replace the remaining route with an alternate block's segments.

    Every remaining primary segment and every remaining alternate block
    is discarded — the alternate is a complete replacement tail, and the
    failover DAG is depth-1 so the spliced route carries no blocks.
    """
    packet.segments[:] = list(alternate)
    packet.alternates = []


def mark_truncated(packet, keep_bytes):
    """Record that the payload was cut to ``keep_bytes`` mid-flight."""
    if keep_bytes < 0:
        raise ValueError("keep_bytes must be non-negative")
    packet.payload_size = min(packet.payload_size, keep_bytes)
    if packet.payload is not None:
        packet.payload = packet.payload[:packet.payload_size]
    if not packet.truncated:
        packet.trailer.append(TRUNCATION_MARK)


def truncate_structurally(packet, mtu):
    """Cut the payload so the whole packet — segments, alternate blocks,
    trailer and the mark — fits ``mtu``; returns the bytes removed."""
    overhead = packet.wire_size() - packet.payload_size
    budget = mtu - overhead - (0 if packet.truncated else TRUNCATION_MARK_BYTES)
    if budget < 0:
        raise ValueError(f"packet overhead {overhead}B exceeds MTU {mtu}B")
    before = packet.payload_size
    mark_truncated(packet, budget)
    return before - packet.payload_size


def trailer_segments(packet):
    """The reversed segments accumulated so far, in arrival order."""
    return [e.segment for e in packet.trailer if isinstance(e, TrailerElement)]


def corrupted_copy(packet, rng):
    """The structural rendition of a bit error: a clone whose payload
    bytes (zeros unless ``payload`` holds them) have their middle byte
    inverted, and whose leading port, half the time, takes a random
    value."""
    payload = bytearray(
        bytes(packet.payload_size) if packet.payload is None else packet.payload
    )
    if payload:
        payload[len(payload) // 2] ^= 0xFF
    clone = SirpentPacket(
        segments=list(packet.segments),
        payload_size=packet.payload_size,
        payload=bytes(payload),
        trailer=list(packet.trailer),
        trace_id=packet.trace_id,
        alternates=[list(block) for block in packet.alternates],
    )
    if clone.segments and rng.random() < 0.5:
        clone.segments[0] = clone.segments[0].copy(port=rng.randrange(0, 256))
    return clone


def sim_packet(packet, **metadata):
    """The simulator's :class:`FramePacket` carrying ``packet``'s bytes
    (its payload as zero filler), ``metadata`` passed through."""
    return FramePacket(
        len(packet.segments), packet.payload_size, encode_packet(packet),
        **metadata,
    )


def payload_size(packet):
    """The payload length a simulator frame's preamble carries."""
    return decode_preamble(packet.view.mem).payload_len


def structural(packet):
    """The :class:`SirpentPacket` a simulator frame encodes."""
    return decode_live_frame(packet.view.tobytes())[1]


def return_route(delivered):
    """The return route a simulator delivery's trailer encodes, in send
    order with RPF set (§2) — read structurally."""
    return build_return_route(structural(delivered.packet))


def build_return_route(packet):
    """The return source route a delivered packet's trailer encodes.

    §2: the receiver "copies each segment into a separate return address
    area in reverse order".  The routers already rewrote each element so
    it is a correct return hop; the receiver's work is purely
    network-independent reversal.  Return segments get the RPF flag.
    """
    return [
        element.segment.copy(rpf=True)
        for element in reversed(packet.trailer)
        if element is not TRUNCATION_MARK
    ]


def decode_trailer(buffer: bytes, end=None):
    """``(elements in original order, offset where the trailer starts)``
    of the trailer walked backwards from ``end``: the walk stops where a
    back-length does not frame a decodable segment, which is where the
    payload ends.  :func:`~repro.viper.packet.trailer_spans`' walk,
    materialised by :func:`~repro.viper.packet.trailer_elements`."""
    if end is None:
        end = len(buffer)
    spans, boundary = trailer_spans(buffer, 0, end)
    return trailer_elements(buffer, spans, boundary, end), boundary


def decode_packet(buffer: bytes, segment_count: int):
    """``(packet, payload bytes)`` of a buffer holding ``segment_count``
    leading segments: :func:`~repro.viper.packet.encode_packet`'s
    inverse.  The payload ends where the trailer, walked backwards,
    begins — how a Sirpent receiver locates "the beginning of the
    trailer" (§2)."""
    segments, offset = decode_route(buffer, segment_count)
    alternates, offset = decode_alt_blocks(
        buffer, slick_count(segments), offset
    )
    trailer, payload_end = decode_trailer(buffer, len(buffer))
    if payload_end < offset:
        raise DecodeError("trailer overlaps header segments")
    payload_bytes = buffer[offset:payload_end]
    packet = SirpentPacket(
        segments=segments,
        payload_size=len(payload_bytes),
        payload=payload_bytes,
        trailer=trailer,
        alternates=alternates,
    )
    return packet, payload_bytes


# -- a live delivery, read structurally ------------------------------------------


def live_packet(frame: bytes):
    """The :class:`SirpentPacket` a delivery's frame decodes to."""
    return decode_live_frame(frame)[1]


def live_return_segments(frame: bytes):
    """The return route a delivery's trailer encodes, in send order."""
    return build_return_route(live_packet(frame))


def live_trailer_spans(frame: bytes):
    """``(start, end)`` of each trailer segment in a delivery's frame, in
    return-route order — the walk the host's trailer memo saves it."""
    return frame_spans(frame, decode_preamble(frame))[3]


def alive(view) -> bool:
    """True while ``view``'s backing slot has not been recycled."""
    slot = view.slot
    return slot is None or (
        not slot.free and slot.generation == view.generation
    )


def free_slots(ring) -> int:
    """Pooled slots of ``ring`` nobody holds: all of them once every
    view taken from it has been released."""
    return len(ring._free)


# -- the hop move, the slow way --------------------------------------------------


def strip_and_append_slow(
    datagram: bytes, return_segment: HeaderSegment
) -> bytes:
    """Reference strip/reverse/append through the structural codec.

    Decodes the whole frame into a :class:`SirpentPacket`, performs
    :func:`advance`, and re-encodes — every byte round-trips through the
    object layer.
    """
    preamble, packet, payload_bytes = decode_live_frame(datagram)
    if preamble.seg_count == 0:
        raise ViperDecodeError("cannot forward: no leading segment")
    advance(packet, return_segment)
    encoded_return = encode_segment(return_segment)
    if len(encoded_return) >= TRUNCATION_SENTINEL:
        raise ValueError("return segment too large to frame in the trailer")
    return encode_live_frame(packet, payload_bytes, trace_id=preamble.trace_id)


def slick_reroute_slow(
    datagram: bytes, return_segment: HeaderSegment
) -> bytes:
    """Reference slick reroute through the structural codec.

    Decodes the whole frame, replaces the route with the leading
    alternate block
    (:func:`apply_slick_reroute`),
    takes the block's first hop and re-encodes.
    """
    preamble, packet, payload_bytes = decode_live_frame(datagram)
    if preamble.seg_count == 0:
        raise ViperDecodeError("cannot forward: no leading segment")
    if not packet.segments[0].slick or not packet.alternates:
        raise ViperDecodeError("cannot reroute: leading segment is not slick")
    apply_slick_reroute(packet, packet.alternates[0])
    advance(packet, return_segment)
    encoded_return = encode_segment(return_segment)
    if len(encoded_return) >= TRUNCATION_SENTINEL:
        raise ValueError("return segment too large to frame in the trailer")
    return encode_live_frame(packet, payload_bytes, trace_id=preamble.trace_id)


def hop_in_place(datagram: bytes, return_segment: HeaderSegment) -> bytes:
    """One router hop on ``datagram`` in a default-sized slot: the
    in-place move, asserted equal to :func:`strip_and_append_slow`;
    returns the forwarded bytes."""
    view = slot_view(BufferRing(slots=1), datagram)
    assert hop_move_into(view, return_tail_of(return_segment))
    forwarded = view.tobytes()
    view.release()
    assert forwarded == strip_and_append_slow(datagram, return_segment)
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


def move_structurally(packet, decision):
    """A FORWARD decision applied to a decoded packet: the slick splice
    (:func:`apply_slick_reroute`, the block's first hop taken) or the
    strip with the decision's splice tail, then truncation."""
    if decision.slick_reroute:
        apply_slick_reroute(packet, packet.alternates[0])
        advance(packet, decision.return_segment)
    else:
        advance(packet, decision.return_segment)
        packet.segments[0:0] = decision.splice_tail
    if decision.truncate_to:
        truncate_structurally(packet, decision.truncate_to)


def structural_fates(pipeline, datagram, in_port, now_ms, reverse_portinfo,
                     wire_size):
    """The fates a router deciding with ``pipeline`` owes ``datagram``,
    structurally: one per copy — a multicast hop re-decides each clone.

    Each fate is ``("drop", reason)``, ``("deliver", datagram)`` or
    ``("forward", forwarded_bytes, out_port)``.  The decision is the
    pipeline's own (its flow cache warms, its token cache charges), fed
    a fresh :class:`HopInput` built from the fully decoded packet; the
    transform is the structural algebra above.  The driver's two
    link-layer rules are arguments: ``reverse_portinfo(segment)``, the
    arrival's reversed network header, and ``wire_size(preamble,
    packet)``, the size it hands the pipeline.  Raises
    :class:`ValueError` where the router would: a truncation the
    egress MTU cannot hold even without payload.
    """
    try:
        preamble, packet, payload = decode_live_frame(datagram)
    except ViperDecodeError:
        return [("drop", "undecodable")]
    # A spent route (segCount 0) is the pipeline's to drop, at stage 0.
    segment = packet.segments[0] if packet.segments else None
    decision = pipeline.decide(HopInput(
        segment=segment,
        seg_count=preamble.seg_count,
        wire_size=wire_size(preamble, packet),
        in_port=in_port,
        now_ms=now_ms,
        reverse_portinfo=lambda: reverse_portinfo(segment),
        alternate=lambda: packet.alternates[0] if segment.slick else None,
    ))
    if decision.action is Action.DROP:
        return [("drop", decision.reason)]
    if decision.action is Action.DELIVER_LOCAL:
        return [("deliver", datagram)]
    if decision.action is Action.FANOUT:
        fates = []
        for branch in decision.branches:
            whole = decision.fanout_replaces_route
            clone = SirpentPacket(
                segments=list(branch) + ([] if whole else packet.segments[1:]),
                payload_size=packet.payload_size,
                trailer=list(packet.trailer),
                alternates=[] if whole else packet.alternates,
            )
            fates += structural_fates(
                pipeline, encode_live_frame(clone, payload), in_port, now_ms,
                reverse_portinfo, wire_size,
            )
        return fates
    if in_port == UNKNOWN_IN_PORT:
        return [("drop", "unknown_peer")]
    if len(encode_segment(decision.return_segment)) >= TRUNCATION_SENTINEL:
        return [("drop", "undecodable")]
    move_structurally(packet, decision)
    forwarded = encode_live_frame(
        packet, payload[:packet.payload_size], trace_id=preamble.trace_id
    )
    return [("forward", forwarded, decision.out_port)]


def _reverse_leading_portinfo(segment):
    """The live router's link-layer rule: an Ethernet-shaped portInfo on
    the leading segment is reversed, any other is empty."""
    if len(segment.portinfo) != ETHERNET_INFO_BYTES:
        return b""
    return EthernetInfo.from_bytes(segment.portinfo).reversed().to_bytes()


def forward_structurally(router, datagram: bytes, source):
    """The fate live ``router`` owes ``datagram`` from ``source``,
    structurally: :func:`structural_fates` with the live link rules.

    Returns ``("drop", reason)``, ``("deliver", datagram)`` or
    ``("forward", forwarded_bytes, peer_address)``.
    """
    (fate,) = structural_fates(
        router.pipeline, datagram,
        router.addr_port.get(source, UNKNOWN_IN_PORT), router._now_ms(),
        _reverse_leading_portinfo,
        lambda preamble, _packet: preamble.payload_len,
    )
    if fate[0] != "forward":
        return fate
    if len(fate[1]) > router.endpoint.ring.slot_bytes:
        return ("drop", "oversize")
    return ("forward", fate[1], router.ports[fate[2]])


def hop_structurally(router, datagram: bytes, inport, tx):
    """The fates simulator ``router`` owes ``datagram`` arriving on
    ``inport`` by ``tx``: :func:`structural_fates` with the sim's link
    rules — the return hop reverses the arrival frame's MACs, and the
    pipeline is handed the VIPER body's size."""
    def reverse_portinfo(_segment):
        if (
            inport.kind == "ethernet"
            and tx.src_mac is not None
            and tx.dst_mac is not None
        ):
            return EthernetInfo(
                dst=tx.src_mac, src=tx.dst_mac, ethertype=0
            ).to_bytes()
        return b""

    return structural_fates(
        router.pipeline, datagram, inport.port_id,
        int(router.sim.now * 1000), reverse_portinfo,
        lambda _preamble, packet: packet.wire_size(),
    )


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

    def send_view(view, addr):
        sent.append((view.tobytes(), addr))
        view.release()
        return 0

    def send(datagram, addr):
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
    every frame but an ack answers its sender's probe, an ack answers it
    unless it echoes the nonce of a probe frame out to another peer, and
    each probe is acked at once."""
    sock = self._sock
    if sock is None or self.closed:
        return
    ring = self.ring
    buffers = self._recv_buffers
    batch = []
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
        datagram = bytes(slot.view[:nbytes])
        try:
            preamble = decode_preamble(datagram)
        except ViperDecodeError:
            preamble = None
        control = preamble is not None and preamble.kind != FRAME_DATA
        if preamble is None or control and (
            # A probe or an ack is its preamble and one 4-byte nonce.
            nbytes != PREAMBLE_BYTES + 4
            or datagram[4] != 0
            or datagram[5:7] != b"\x00\x04"
        ):
            ring.release(slot)
            self.metrics.drop("undecodable")
            continue
        if control:
            ring.release(slot)
            nonce = int.from_bytes(datagram[PREAMBLE_BYTES:], "big")
        if preamble.kind == FRAME_ACK:
            self.metrics.acks_in += 1
            if any(
                sent == nonce and peer != addr
                for peer, (sent, _at) in self._probes.items()
            ):
                self.metrics.drop("stray_ack")
            else:
                self._unheard.pop(addr, None)
            continue
        self._unheard.pop(addr, None)
        if preamble.kind == FRAME_PROBE:
            self.metrics.acks_out += 1
            self._raw_send(encode_ack(nonce), addr)
            continue
        self.metrics.frames_in += 1
        self.metrics.bytes_in += nbytes
        batch.append((PacketView.of_slot(slot, nbytes), addr, preamble))
    if not batch:
        return
    self.rx_batches += 1
    self.rx_datagrams += len(batch)
    if self.on_batch is not None:
        self.on_batch(batch)
    else:
        for view, _source, _preamble in batch:
            view.release()


# -- the probe timer -----------------------------------------------------------


def probe_deadline(endpoint):
    """The earliest deadline of any probe ``endpoint`` has out (None when
    it has none): each is due ``ack_timeout_s`` after it was sent."""
    timeout_s = endpoint.liveness.ack_timeout_s
    return min(
        (sent_at + timeout_s for _nonce, sent_at in endpoint._probes.values()),
        default=None,
    )


class FakeLoop:
    """The event loop an endpoint needs — ``time``, ``call_at`` and the
    reader/writer registrations — on a clock that moves only when told.
    A handle fires exactly at its deadline."""

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

    def __init__(self, now=1000.0):
        self.now = now
        self.handles = []

    def time(self):
        return self.now

    def call_at(self, when, callback):
        handle = self.Handle(when, callback)
        self.handles.append(handle)
        return handle

    def is_closed(self):
        return False

    def add_reader(self, fd, callback):
        pass

    def remove_reader(self, fd):
        pass

    def add_writer(self, fd, callback):
        pass

    def remove_writer(self, fd):
        pass

    def advance(self, seconds):
        """Run every handle due by ``now + seconds``, each at its own
        deadline, earliest (then first armed) first."""
        target = self.now + seconds
        for _ in range(10_000):
            self.handles = [h for h in self.handles if not h.cancelled()]
            due = min(self.handles, key=lambda h: h.when(), default=None)
            if due is None or due.when() > target:
                break
            self.handles.remove(due)
            self.now = max(self.now, due.when())
            due._callback()
        else:
            raise AssertionError("a timer keeps re-arming for the past")
        self.now = target


# -- the scripted socket -------------------------------------------------------

#: Script markers: the next ``recvmsg_into`` raises instead of returning.
SOCKET_ERROR = "socket-error"
INTERRUPTED = "interrupted"


class ScriptedSocket:
    """What the endpoint needs of a UDP socket, fed from a queue.

    ``recvmsg_into`` hands out the queued ``(bytes, addr)`` pairs — a
    datagram longer than the buffer is cut to it and flagged
    ``MSG_TRUNC``, as the kernel does — and raises ``BlockingIOError``
    once the queue is empty.  ``sendto`` records; a harness that only
    counts calls replaces it on the instance.
    """

    def __init__(self):
        self.queue = deque()
        self.sent = []
        self.handed_out = 0
        self.truncated = 0

    def fileno(self):
        return -1

    def close(self):
        pass

    def recvmsg_into(self, buffers):
        if not self.queue:
            raise BlockingIOError
        item = self.queue.popleft()
        if item == SOCKET_ERROR:
            raise OSError("scripted")
        if item == INTERRUPTED:
            raise InterruptedError
        datagram, (host, port) = item
        (buffer,) = buffers
        nbytes = min(len(datagram), len(buffer))
        buffer[:nbytes] = datagram[:nbytes]
        self.handed_out += 1
        flags = _MSG_TRUNC if len(datagram) > nbytes else 0
        self.truncated += bool(flags)
        # The kernel builds a new address tuple for every datagram.
        return nbytes, [], flags, (host, port)

    def sendto(self, datagram, addr):
        self.sent.append((bytes(datagram), addr))
