"""The host's span edges against the structural codec as oracle.

``LiveHost`` opens an arriving frame by offsets
(:func:`~repro.live.frames.frame_spans`), writes a reply's route from
the trailer's byte spans (:func:`~repro.live.frames.return_route_header`)
and frames a send around a header its route encoded once
(:meth:`~repro.dataplane.host.SourceRoute.wire_header`).  The structural codec
— ``decode_live_frame``, ``build_return_route``, ``encode_live_frame``,
the path every host frame took before — is the reference here: on valid
frames, line noise, aimed corruptions and truncations the span path must
accept exactly the frames the codec accepts, hand up the same delivery,
drop with the same reason, emit byte-identical reply and request frames
and raise the same error types.
"""

import random

import pytest

from repro.directory.routes import Route
from repro.live.frames import (
    FLAG_TRACED,
    PAYLOAD_LEN_OFFSET,
    PREAMBLE_BYTES,
    SEG_COUNT_OFFSET,
    TRACE_ID_BYTES,
    decode_live_frame,
    decode_preamble,
    encode_live_frame,
    frame_spans,
    return_route_header,
)
from repro.live.host import LiveHost
from repro.obs.trace import Tracer
from repro.viper.errors import SegmentLimitError, ViperDecodeError
from repro.viper.packet import (
    TRUNCATION_MARK,
    SirpentPacket,
    TrailerElement,
    trailer_spans,
)
from repro.viper.ring import BufferRing
from repro.viper.wire import MAX_SEGMENTS, HeaderSegment, decode_segment
from tests.live.oracle import (
    alive,
    batch_of,
    build_return_route,
    decode_trailer,
    live_packet,
    live_return_segments,
    live_trailer_spans,
    slot_view,
)

#: Where the frames under test arrive from / replies leave to.
PEER = ("127.0.0.1", 9001)
ARRIVAL_PORT = 3
SLOT_BYTES = 1 << 16


# -- the corpus -----------------------------------------------------------------


def random_field(rng: random.Random) -> bytes:
    """A token/portInfo body; now and then long enough for the
    255-escape's 32-bit extended length."""
    roll = rng.random()
    if roll < 0.45:
        return b""
    if roll < 0.93:
        return rng.randbytes(rng.randrange(1, 40))
    return rng.randbytes(rng.randrange(255, 300))


def random_segment(rng: random.Random, slick: bool = False) -> HeaderSegment:
    return HeaderSegment(
        port=rng.randrange(256),
        priority=rng.randrange(16),
        vnt=rng.random() < 0.1,
        dib=rng.random() < 0.2,
        rpf=rng.random() < 0.3,
        token=random_field(rng),
        portinfo=random_field(rng),
        slick=slick,
    )


def random_packet(rng: random.Random, slick_trailer: float = 0.0):
    """A structural packet and its payload: 0–6 segments, some slick with
    their alternate blocks, a trailer with truncation marks mixed in."""
    segments = [
        random_segment(rng, slick=rng.random() < 0.25)
        for _ in range(rng.choice((0, 1, 1, 2, 3, 4, 4, 6)))
    ]
    alternates = [
        [random_segment(rng) for _ in range(rng.randrange(1, 4))]
        for segment in segments if segment.slick
    ]
    trailer = []
    for _ in range(rng.choice((0, 1, 2, 3, 3, 5))):
        if rng.random() < 0.12:
            trailer.append(TRUNCATION_MARK)
        else:
            trailer.append(TrailerElement(
                random_segment(rng, slick=rng.random() < slick_trailer)
            ))
    payload = rng.randbytes(rng.choice((0, 1, 14, 64, 78, 300)))
    packet = SirpentPacket(
        segments=segments, payload_size=len(payload), payload=payload,
        trailer=trailer, alternates=alternates,
        trace_id=rng.getrandbits(64) | 1 if rng.random() < 0.3 else 0,
    )
    return packet, payload


def valid_frame(rng: random.Random, slick_trailer: float = 0.0) -> bytes:
    packet, payload = random_packet(rng, slick_trailer)
    return encode_live_frame(packet, payload)


def _body_start(b: bytearray) -> int:
    return PREAMBLE_BYTES + (TRACE_ID_BYTES if b[3] & FLAG_TRACED else 0)


#: Corruptions aimed at one check of the span walk each.
def _seg_count_off(b, rng):
    at = SEG_COUNT_OFFSET
    b[at] = max(0, min(MAX_SEGMENTS, b[at] + rng.choice((-1, 1, 2))))


def _payload_len_off(b, rng):
    at = slice(PAYLOAD_LEN_OFFSET, PAYLOAD_LEN_OFFSET + 2)
    value = int.from_bytes(b[at], "big") + rng.choice((-2, -1, 1, 2, 40))
    b[at] = (value & 0xFFFF).to_bytes(2, "big")


def _leading_length_octet(b, rng):
    at = _body_start(b) + rng.randrange(2)
    if at < len(b):
        b[at] = rng.choice((0, 1, 254, 255, rng.randrange(256)))


def _leading_flags(b, rng):
    at = _body_start(b) + 3
    if at < len(b):
        b[at] ^= 1 << rng.randrange(4, 8)  # toggles VNT/DIB/RPF/slick


def _back_length(b, rng):
    if len(b) >= PREAMBLE_BYTES + 2:
        b[-2:] = rng.choice((
            b"\xff\xff", b"\x00\x00", b"\x00\x03", b"\x00\x04",
            rng.randbytes(2),
        ))


def _append_sentinel(b, rng):
    b += b"\xff\xff"


def _append_junk(b, rng):
    b += rng.randbytes(rng.randrange(1, 6))


def _byte_flip_in_body(b, rng):
    start = _body_start(b)
    if start < len(b):
        b[rng.randrange(start, len(b))] = rng.randrange(256)


MUTATIONS = (
    _seg_count_off, _payload_len_off, _leading_length_octet, _leading_flags,
    _back_length, _append_sentinel, _append_junk, _byte_flip_in_body,
)


# -- reference and subject --------------------------------------------------------


def reference_fate(datagram: bytes, bound_sockets):
    """What the structural path (the parent's ``_on_frame``) owes the
    frame: ``("drop", reason)`` or ``("deliver", packet, payload)``."""
    try:
        _preamble, packet, payload = decode_live_frame(datagram)
    except ViperDecodeError:
        return ("drop", "undecodable")
    if not packet.segments:
        return ("drop", "route_exhausted")
    if packet.segments[0].port not in bound_sockets:
        return ("drop", "no_socket")
    return ("deliver", packet, payload)


def reference_frame(segments, alternates, payload, priority, dib, trace_id):
    """The frame the structural send path emits: every segment stamped
    with the send's priority/DIB, the blocks with its priority."""
    packet = SirpentPacket(
        segments=[s.copy(priority=priority, dib=dib) for s in segments],
        payload_size=len(payload), payload=payload,
        alternates=[
            [s.copy(priority=priority) for s in block] for block in alternates
        ],
        trace_id=trace_id,
    )
    return encode_live_frame(packet, payload)


def reference_reply(packet, payload, reply_socket, priority, dib, trace_id):
    """``build_return_route`` → ``encode_live_frame``, as ``send_return``
    did it structurally."""
    segments = [
        *build_return_route(packet),
        HeaderSegment(port=reply_socket, priority=priority, rpf=True),
    ]
    return reference_frame(segments, [], payload, priority, dib, trace_id)


def outcome(call):
    try:
        return call()
    except (ValueError, SegmentLimitError) as error:
        return type(error)


def capture_host(traced: bool):
    """A LiveHost that transmits into a list; sockets 0..199 are bound."""
    host = LiveHost("h")
    host.endpoint.ring = BufferRing(slots=2, slot_bytes=SLOT_BYTES)
    if traced:
        host.set_tracer(Tracer())
    host.connect_port(ARRIVAL_PORT, PEER)
    sent, delivered = [], []

    def send(datagram, addr):
        sent.append((datagram, addr))
        return 0

    host.endpoint.send = send
    for socket in range(200):
        host.bind(socket, delivered.append)
    return host, sent, delivered


def check_frame(host, sent, delivered, datagram: bytes, rng) -> str:
    """Feed ``datagram`` through the host's batch seam and compare with
    the reference; returns the verdict for the tally."""
    try:
        decode_preamble(datagram)
    except ViperDecodeError:
        return "endpoint"  # the endpoint drops these before any consumer
    expected = reference_fate(datagram, host.sockets)
    drops_before = dict(host.metrics.drops)
    view = slot_view(host.endpoint.ring, datagram)
    host._on_batch(batch_of(view, PEER))
    assert not alive(view), "the slot must be back in the ring"
    if expected[0] == "drop":
        assert not delivered, datagram.hex()
        grown = {
            reason: count - drops_before.get(reason, 0)
            for reason, count in host.metrics.drops.items()
            if count != drops_before.get(reason, 0)
        }
        assert grown == {expected[1]: 1}, datagram.hex()
        return expected[1]
    _kind, packet, payload = expected
    assert len(delivered) == 1, datagram.hex()
    got = delivered.pop()
    assert got.payload == payload
    assert got.socket == packet.segments[0].port
    assert got.trace_id == packet.trace_id
    assert got.arrival_port == ARRIVAL_PORT
    # The kept datagram decodes to the frame that was sent.
    decoded = live_packet(got.frame)
    assert decoded.segments == packet.segments
    assert decoded.alternates == packet.alternates
    assert decoded.trailer == packet.trailer
    assert decoded.trace_id == packet.trace_id
    assert live_return_segments(got.frame) == (
        build_return_route(packet)
    )
    if check_reply(host, sent, got, packet, rng):
        return "deliver, reply refused"
    return "deliver"


def check_reply(host, sent, got, packet, rng) -> bool:
    """``send_return`` (priority 0 and not) and the header function (DIB
    on and off) emit the structural path's bytes or raise its error;
    returns whether it was the error."""
    refused = False
    reply = rng.randbytes(rng.randrange(0, 40))
    reply_socket = rng.randrange(256)
    trace_id = packet.trace_id if host.tracer.enabled else 0
    for priority in (0, rng.randrange(1, 16)):
        expected = outcome(lambda: reference_reply(
            packet, reply, reply_socket, priority, False, trace_id
        ))
        result = outcome(lambda: host.send_return(
            got, reply, reply_socket=reply_socket, priority=priority,
        ))
        if isinstance(expected, bytes):
            assert result == trace_id
            assert sent.pop() == (expected, PEER)
        else:
            assert result is expected
            refused = True
        assert not sent
        for dib in (False, True):
            expected = outcome(lambda: reference_reply(
                packet, b"", reply_socket, priority, dib, 0
            ))
            result = outcome(lambda: return_route_header(
                got.frame, live_trailer_spans(got.frame),
                reply_socket, priority, dib,
            ))
            if isinstance(expected, bytes):
                header, seg_count = result
                assert expected[PREAMBLE_BYTES:] == header
                assert expected[SEG_COUNT_OFFSET] == seg_count
            else:
                assert result is expected
    return refused


# -- the fuzz -----------------------------------------------------------------------


@pytest.mark.parametrize("traced", [False, True])
def test_fuzz_same_fate_same_delivery_same_reply(traced):
    rng = random.Random(0x51A7 + traced)
    host, sent, delivered = capture_host(traced)
    tally = {}

    def check(datagram: bytes) -> None:
        verdict = check_frame(host, sent, delivered, datagram, rng)
        tally[verdict] = tally.get(verdict, 0) + 1

    for _ in range(400):  # line noise behind a valid-looking start
        check(b"VL\x01" + rng.randbytes(rng.randrange(60)))
    for _ in range(1000):  # well-formed
        check(valid_frame(rng, slick_trailer=0.05))
    for _ in range(1000):  # one aimed corruption, sometimes two
        mutated = bytearray(valid_frame(rng))
        for _ in range(1 if rng.random() < 0.7 else 2):
            rng.choice(MUTATIONS)(mutated, rng)
        check(bytes(mutated))
    for _ in range(600):  # truncated anywhere
        frame = valid_frame(rng)
        check(frame[: rng.randrange(len(frame) + 1)])
    assert sum(tally.values()) == 3000
    assert tally["deliver"] > 600
    for verdict in (
        "undecodable", "route_exhausted", "no_socket", "deliver, reply refused",
    ):
        assert tally.get(verdict, 0) > 20, (verdict, tally)


def test_frame_spans_rejects_exactly_what_the_codec_rejects():
    """Straight at the two functions, same corpus shape: accept/reject
    agree, and on acceptance so do socket, payload and trailer spans."""
    rng = random.Random(0xF5A2)
    accepted = rejected = 0
    for round_ in range(3000):
        frame = bytearray(valid_frame(rng, slick_trailer=0.05))
        if round_ % 3:
            for _ in range(rng.randrange(1, 3)):
                rng.choice(MUTATIONS)(frame, rng)
        if round_ % 7 == 0:
            del frame[rng.randrange(len(frame) + 1):]
        datagram = bytes(frame)
        try:
            preamble = decode_preamble(datagram)
        except ViperDecodeError:
            continue
        try:
            _p, packet, payload = decode_live_frame(datagram, preamble)
        except ViperDecodeError:
            with pytest.raises(ViperDecodeError):
                frame_spans(datagram, preamble)
            rejected += 1
            continue
        port, start, end, spans = frame_spans(datagram, preamble)
        accepted += 1
        assert port == (packet.segments[0].port if packet.segments else None)
        assert datagram[start:end] == payload
        assert [
            decode_segment(datagram, s)[0] for s, _e in spans
        ] == [
            element.segment for element in reversed(packet.trailer)
            if element is not TRUNCATION_MARK
        ]
        assert all(decode_segment(datagram, s)[1] == e for s, e in spans)
    assert accepted > 1000 and rejected > 500, (accepted, rejected)


def test_trailer_spans_is_decode_trailer_on_any_region():
    """The helper alone, on regions that are not whole frames: the same
    stop offset as ``decode_trailer`` of the region, spans of the same
    elements in reverse."""
    rng = random.Random(0x7A11)
    for _ in range(1500):
        packet, payload = random_packet(rng)
        packet.trace_id = 0
        region = encode_live_frame(packet, payload)[PREAMBLE_BYTES:]
        if region and rng.random() < 0.5:
            region = bytearray(region)
            for _ in range(rng.randrange(1, 4)):
                region[rng.randrange(len(region))] = rng.randrange(256)
            region = bytes(region)
        floor = rng.randrange(len(region) + 1)
        elements, boundary = decode_trailer(region[floor:])
        spans, stopped = trailer_spans(region, floor)
        assert stopped == floor + boundary
        assert [decode_segment(region, s)[0] for s, _e in spans] == [
            e.segment for e in reversed(elements) if e is not TRUNCATION_MARK
        ]


# -- the memoised route header ---------------------------------------------------------


def _route(rng, slick=False) -> Route:
    segments = [random_segment(rng) for _ in range(rng.randrange(1, 6))]
    alternates = []
    if slick:
        segments[0] = segments[0].copy(slick=True)
        alternates = [[random_segment(rng), random_segment(rng)]]
    return Route(
        destination="d", segments=segments, first_hop_port=ARRIVAL_PORT,
        first_hop_mac=None, alternates=alternates,
    )


@pytest.mark.parametrize("traced", [False, True])
def test_send_emits_the_structural_frame(traced):
    """500 routes × (priority, DIB): ``send`` frames around the memoised
    header exactly what ``encode_live_frame`` builds, twice in a row."""
    rng = random.Random(0x5E4D + traced)
    host, sent, _delivered = capture_host(traced)
    for _ in range(500):
        route = _route(rng, slick=rng.random() < 0.3)
        priority = rng.choice((0, 0, rng.randrange(16)))
        dib = rng.random() < 0.3
        for _again in range(2):
            payload = rng.randbytes(rng.randrange(100))
            trace_id = host.send(route, payload, priority=priority, dib=dib)
            assert bool(trace_id) == traced
            frame, addr = sent.pop()
            assert addr == PEER
            assert frame == reference_frame(
                route.segments, route.alternates, payload, priority, dib,
                trace_id,
            )
        header, seg_count = route.wire_header(priority, dib)
        assert frame[len(frame) - len(payload) - len(header):][:len(header)] == header
        assert seg_count == len(route.segments)


def test_route_edits_cannot_be_served_a_stale_header():
    rng = random.Random(3)
    host, sent, _delivered = capture_host(False)
    route = _route(rng)
    host.send(route, b"one")
    before = sent.pop()[0]
    # Frozen: the sequences cannot be edited in place...
    with pytest.raises(TypeError):
        route.segments[0] = HeaderSegment(port=77)
    with pytest.raises(AttributeError):
        route.segments.append(HeaderSegment(port=77))
    # ...and the memo knows which tuples it encoded: a rebound one is
    # frozen again by the next send and encoded afresh.
    rebound = [HeaderSegment(port=77), *route.segments[1:]]
    route.segments = rebound
    host.send(route, b"one")
    after = sent.pop()[0]
    assert after != before
    assert route.segments == tuple(rebound)
    assert isinstance(route.segments, tuple)
    assert after == reference_frame(route.segments, (), b"one", 0, False, 0)
    rebound[0] = HeaderSegment(port=78)  # the list is no longer the route
    host.send(route, b"one")
    assert sent.pop()[0] == after
    route.alternates = [[HeaderSegment(port=5)]]
    with pytest.raises(ValueError):  # a block, but no slick segment
        host.send(route, b"one")
    assert route.alternates == ((HeaderSegment(port=5),),)


def test_send_errors_are_the_structural_ones():
    host, sent, _delivered = capture_host(False)
    host.endpoint.ring = BufferRing(slots=2, slot_bytes=4096)
    plain = Route("d", [HeaderSegment(port=1)], ARRIVAL_PORT, None)
    with pytest.raises(ValueError, match="exceeds the overlay's 4096-byte slot"):
        host.send(plain, b"x" * 4090)
    host.send(plain, b"x" * (4096 - PREAMBLE_BYTES - 4))  # exactly a slot
    assert len(sent.pop()[0]) == 4096
    slick = Route("d", [HeaderSegment(port=1, slick=True)], ARRIVAL_PORT, None)
    for _ in range(2):  # an error is not memoised away
        with pytest.raises(ValueError, match="alternate block"):
            host.send(slick, b"x")
    with pytest.raises(ValueError, match="priority"):
        host.send(plain, b"x", priority=16)
    long = Route(
        "d", [HeaderSegment(port=1)] * (MAX_SEGMENTS + 1), ARRIVAL_PORT, None
    )
    with pytest.raises(SegmentLimitError):
        host.send(long, b"x")
    with pytest.raises(KeyError):
        host.send(Route("d", [HeaderSegment(port=1)], 99, None), b"x")
    assert not sent


def test_reply_to_a_full_trailer_does_not_fit_viper():
    """48 trailer elements reverse into 48 segments; the replying
    socket's would be the 49th."""
    host, sent, delivered = capture_host(False)
    packet = SirpentPacket(
        segments=[HeaderSegment(port=1)], payload_size=1, payload=b"p",
        trailer=[TrailerElement(HeaderSegment(port=2))] * MAX_SEGMENTS,
    )
    view = slot_view(host.endpoint.ring, encode_live_frame(packet, b"p"))
    host._on_batch(batch_of(view, PEER))
    with pytest.raises(SegmentLimitError):
        host.send_return(delivered[0], b"r")
    with pytest.raises(ValueError):
        host.send_return(delivered[0], b"r", reply_socket=256)
    with pytest.raises(ValueError):
        host.send_return(delivered[0], b"r", priority=-1)
    assert not sent
