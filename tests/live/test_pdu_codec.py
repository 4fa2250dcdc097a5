"""The PDU codec, end to end through a live host's edges, no sockets.

One codec carries every PDU: :func:`~repro.transport.codec.encode_pdu`
on the way out, :func:`~repro.transport.codec.open_pdu` (checksum and
decode in one pass, in place) on the way in; ``tests/live/oracle.py``'s
``decode_pdu`` and ``pdu_intact`` read PDUs in flight.  The property
test sends arbitrary PDUs through :meth:`LiveTransactor.send` and reads
them back; the NAK tests pin that a CRC-valid NAK that carries a body
(its mask rides the header) is discarded and counted, never read as a
mask.
"""

import asyncio
import contextlib
import struct
import zlib

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.frames import decode_preamble, frame_spans, frame_with_header
from repro.live.host import LIVE_TRANSPORT, LiveTransactor
from repro.transport.codec import HEADER_BYTES, PduKind, VmtpPdu, encode_pdu, open_pdu
from repro.transport.machine import MAX_MEMBER_PAYLOAD
from benchmarks.bench_f03_transactor_pair import HostPair
from tests.live.oracle import decode_pdu, pdu_intact

MEMBER_KINDS = (PduKind.REQUEST, PduKind.RESPONSE)

#: Two full members: its echo, 5 bytes longer, is three.
PAYLOAD = bytes(range(256)) * (2 * MAX_MEMBER_PAYLOAD // 256)


def _with_body(nak, body):
    """``nak``'s encoding with ``body`` between its header and its
    trailer, sealed afresh: a NAK no codec writes."""
    data = encode_pdu(nak)
    signed = data[:HEADER_BYTES] + body + data[HEADER_BYTES:-4]
    return signed + struct.pack(">I", zlib.crc32(signed))


# -- the codec, through the send path --------------------------------------------


@st.composite
def pdus(draw):
    kind = draw(st.sampled_from(list(PduKind)))
    fields = dict(
        kind=kind,
        transaction_id=draw(st.integers(0, 2**32 - 1)),
        src_entity=draw(st.integers(0, 2**64 - 1)),
        dst_entity=draw(st.integers(0, 2**64 - 1)),
        member_index=draw(st.integers(0, 255)),
        group_count=draw(st.integers(0, 255)),
        timestamp=draw(st.integers(0, 2**32 - 1)),
        reply_socket=draw(st.integers(0, 255)),
        mask_bits=draw(st.integers(0, 2**32 - 1)),
        pacing_gap=draw(st.floats(0.0, 1.0)),
    )
    if kind in MEMBER_KINDS:
        size = draw(st.integers(0, 1024))
        offset = draw(st.integers(0, 2048))
        data = draw(st.binary(min_size=offset + size, max_size=offset + size + 16))
        fields.update(user_data=data, user_offset=offset, user_size=size)
    return VmtpPdu(**fields)


@settings(max_examples=150, deadline=None)
@given(pdu=pdus(), priority=st.integers(0, 15))
def test_any_pdu_round_trips_through_the_send_path(pdu, priority):
    pair = HostPair(hops=0)
    transactor = LiveTransactor(pair.client)
    route = pair.route("server")
    transactor.send(route, pdu, priority)
    (frame,) = pair.sent["client"]
    # The frame is the route's header around the PDU's encoding, built
    # in one piece: nothing else went into it.
    header, seg_count = route.wire_header(priority)
    assert frame == frame_with_header(header, seg_count, encode_pdu(pdu))

    preamble = decode_preamble(frame)
    _socket, start, end, _spans = frame_spans(frame, preamble)
    got = open_pdu(frame, start, end)
    assert got == decode_pdu(frame[start:end])
    for name in (
        "kind", "transaction_id", "src_entity", "dst_entity", "member_index",
        "group_count", "timestamp", "reply_socket", "mask_bits", "pacing_gap",
    ):
        assert getattr(got, name) == getattr(pdu, name), name
    if pdu.kind in MEMBER_KINDS:
        body = pdu.user_data[pdu.user_offset:pdu.user_offset + pdu.user_size]
        assert got.user_size == len(body)
        assert bytes(got.user_data[got.user_offset:]) == body

    # CRC-32 catches every burst of up to 32 bits: any one byte flipped
    # anywhere — header, body, stamp or the CRC itself — is caught.
    encoded = frame[start:end]
    assert pdu_intact(encoded)
    for at in range(len(encoded)):
        damaged = bytearray(encoded)
        damaged[at] ^= 1 + (at * 37) % 255
        assert not pdu_intact(damaged), at
        assert open_pdu(damaged, 0, len(damaged)) == "checksum"


def test_what_open_pdu_refuses_is_named():
    member = VmtpPdu(PduKind.REQUEST, 1, 2, 3, 0, 1, 4, 1, user_data=b"abc", user_size=3)
    data = encode_pdu(member)
    assert open_pdu(data, 0, len(data)).kind is PduKind.REQUEST
    assert open_pdu(data, 0, 33) == "short_pdu"
    unknown = bytearray(data)
    unknown[0] = 9
    unknown[-4:] = struct.pack(">I", zlib.crc32(bytes(unknown[:-4])))
    assert open_pdu(unknown, 0, len(unknown)) == "unknown_pdu"
    for kind in (PduKind.REQUEST_NAK, PduKind.RESPONSE_NAK):
        nak = VmtpPdu(kind, 1, 2, 3, 0, 4, 5, 1, mask_bits=0b101)
        assert decode_pdu(encode_pdu(nak)).mask_bits == 0b101
        for body in (b"\0" * 3, b"\0" * 4, b"\0" * 5, b"\xff" * 8):
            data = _with_body(nak, body)
            assert pdu_intact(data)
            assert open_pdu(data, 0, len(data)) == "malformed_nak"
            assert decode_pdu(data) is None


# -- a malformed NAK is discarded, not answered with the group ------------------


def _nak(kind, machine, transaction_id, src, dst, count, mask_bits):
    return VmtpPdu(
        kind, transaction_id, src, dst, 0, count, machine.clock.stamp(),
        LIVE_TRANSPORT.socket, mask_bits,
    )


async def _request_nak_scenario(mask_bits, body):
    """The client's two request members are lost; the server (as if it
    had heard of the transaction) NAKs it with ``mask_bits`` and
    ``body``.  Returns the request members the client resent and the
    client's host."""
    pair = HostPair()
    client_tx = LiveTransactor(pair.client)
    server_tx = LiveTransactor(pair.server)
    server_tx.serve(lambda request: b"echo:" + request)
    task = asyncio.ensure_future(client_tx.transact(pair.manager(), PAYLOAD))
    await asyncio.sleep(0)
    assert len(pair.sent["client"]) == 2
    pair.lose("server")
    (transaction_id,) = client_tx.machine._client_txs
    nak = _nak(
        PduKind.REQUEST_NAK, server_tx.machine, transaction_id,
        server_tx.machine._client_entity(), client_tx.machine._client_entity(), 2,
        mask_bits,
    )
    pair.server.send(pair.route("client"), _with_body(nak, body))
    pair.pump()
    resent = [decode_pdu(frame_payload(frame)) for frame in pair.sent["client"][2:]]
    task.cancel()
    with contextlib.suppress(asyncio.CancelledError):
        await task
    return resent, client_tx


async def _response_nak_scenario(mask_bits, body):
    """A transaction completes with a three-member response; the client
    then NAKs it with ``mask_bits`` and ``body``.  Returns the members
    the server resent and the server's transactor."""
    pair = HostPair()
    client_tx = LiveTransactor(pair.client)
    server_tx = LiveTransactor(pair.server)
    server_tx.serve(lambda request: b"echo:" + request)
    task = asyncio.ensure_future(client_tx.transact(pair.manager(), PAYLOAD))
    await asyncio.sleep(0)
    pair.pump()
    result = await task
    assert result.ok and result.payload == b"echo:" + PAYLOAD
    answered = len(pair.sent["server"])
    assert answered == 3
    nak = _nak(
        PduKind.RESPONSE_NAK, client_tx.machine, 1,
        client_tx.machine._client_entity(), server_tx.entity, 3, mask_bits,
    )
    pair.client.send(pair.route("server"), _with_body(nak, body))
    pair.pump()
    resent = [decode_pdu(frame_payload(frame)) for frame in pair.sent["server"][answered:]]
    return resent, server_tx


def frame_payload(frame):
    _socket, start, end, _spans = frame_spans(frame, decode_preamble(frame))
    return frame[start:end]


def test_request_nak_with_a_malformed_body_resends_nothing():
    """Server to client: a CRC-valid NAK that carries a body is not one
    this codec wrote — whatever the body means, it is not a mask."""
    for body in (b"\0" * 3, b"\0" * 4, b"\0" * 5):
        resent, client_tx = asyncio.run(_request_nak_scenario(0, body))
        assert resent == []
        assert client_tx.host.metrics.dropped("malformed_nak") == 1
        assert client_tx.stats.retransmissions.count == 0
    # The control: the NAK as the codec writes it gets exactly the gap.
    resent, client_tx = asyncio.run(_request_nak_scenario(0b01, b""))
    assert [(pdu.kind, pdu.member_index) for pdu in resent] == [(PduKind.REQUEST, 1)]
    assert client_tx.host.metrics.dropped("malformed_nak") == 0


def test_response_nak_with_a_malformed_body_resends_nothing():
    """Client to server: a CRC-valid NAK that carries a body is not one
    this codec wrote — whatever the body means, it is not a mask."""
    for body in (b"\0" * 3, b"\0" * 4, b"\0" * 5):
        resent, server_tx = asyncio.run(_response_nak_scenario(0, body))
        assert resent == []
        assert server_tx.host.metrics.dropped("malformed_nak") == 1
        assert server_tx.stats.retransmissions.count == 0
    resent, server_tx = asyncio.run(_response_nak_scenario(0b011, b""))
    assert [(pdu.kind, pdu.member_index) for pdu in resent] == [(PduKind.RESPONSE, 2)]
    assert server_tx.host.metrics.dropped("malformed_nak") == 0


# -- a request NAK comes from the entity the request addressed -------------------


def test_a_pure_servers_request_nak_comes_from_the_serving_entity():
    """A server that is no client NAKs the member it misses from the
    entity the request addressed (the wildcard resolved): it mints no
    client entity for the NAK, which would then take PDUs addressed to
    it instead of counting them misdelivered."""

    async def run():
        pair = HostPair()
        client_tx = LiveTransactor(pair.client)
        server_tx = LiveTransactor(pair.server)
        server_tx.serve(lambda request: b"echo:" + request)
        task = asyncio.ensure_future(client_tx.transact(pair.manager(), PAYLOAD + b"x"))
        await asyncio.sleep(0)
        queued = pair.queued["server"]
        assert len(queued) == 3
        view, _source, _preamble = queued.pop(1)  # the middle member is lost
        view.release()
        pair.pump()
        await asyncio.sleep(2 * LIVE_TRANSPORT.nak_delay)
        nak = decode_pdu(frame_payload(pair.sent["server"][0]))
        pair.pump()  # the resent member completes the request
        result = await task
        return nak, result, client_tx, server_tx

    nak, result, client_tx, server_tx = asyncio.run(run())
    assert result.ok and result.payload == b"echo:" + PAYLOAD + b"x"
    assert (nak.kind, nak.mask_bits) == (PduKind.REQUEST_NAK, 0b101)
    assert nak.src_entity == server_tx.entity
    assert nak.dst_entity == client_tx.machine._client
    assert list(server_tx.machine._entities) == [server_tx.entity]


# -- §4.2 measures a PDU's age at its arrival ------------------------------------


def test_the_age_check_reads_the_arrival_time_the_host_handed_up():
    """The transactor hands the machine the wakeup's ``arrived_at``: a
    request handed up as if it had arrived 40 s after it was stamped is
    too old (``max_age_ms`` is 30 s), though the clock says it is new."""

    async def run():
        pair = HostPair()
        client_tx = LiveTransactor(pair.client)
        server_tx = LiveTransactor(pair.server)
        server_tx.serve(lambda request: request)
        socket = server_tx.config.socket
        handle = pair.server.sockets[socket]

        def late(delivered):
            delivered.arrived_at += 40.0
            handle(delivered)

        pair.server.sockets[socket] = late
        task = asyncio.ensure_future(client_tx.transact(pair.manager(), b"late"))
        await asyncio.sleep(0)
        pair.pump()
        task.cancel()
        with contextlib.suppress(asyncio.CancelledError):
            await task
        return server_tx

    server_tx = asyncio.run(run())
    assert server_tx.stats.lifetime_rejects.count == 1
    assert server_tx.host.metrics.dropped("too_old") == 1
    assert not server_tx.machine._response_cache
