"""The live host's reply headers, through transactions, socket-free.

A server answers along the reversed trailer of the request's last
member.  The host core keeps each distinct trailer by its bytes, and
:meth:`~repro.dataplane.host.Delivered.return_route` is the entry's route per (reply
socket, arrival port), whose header is written once per (priority,
DIB), so a response group's members — and every later transaction on
the flow — copy bytes instead of re-reversing the trailer.  The memo
must be exactly :func:`~repro.live.frames.return_route_header`, never
reused across different trailer bytes, reply sockets or priorities;
and nothing in it may point back at a delivered frame: a delivered ↔
route cycle would leave every served request to the cyclic collector.
The trailer memo's own cases run on both substrates' frames in
``tests/dataplane/test_host_core.py``.
"""

import asyncio
import gc

from repro.live.frames import (
    PREAMBLE_BYTES,
    decode_preamble,
    frame_with_header,
    return_route_header,
)
from repro.live.host import LiveTransactor
from repro.transport.machine import MAX_MEMBER_PAYLOAD
from benchmarks.bench_f03_transactor_pair import HostPair
from tests.live.oracle import live_trailer_spans

SOCKET = 7
RESPONSE = bytes(range(256)) * (16 * MAX_MEMBER_PAYLOAD // 256)


def _spans(delivered):
    """The trailer spans of a delivery's datagram, walked afresh."""
    return live_trailer_spans(delivered.frame)


def _served_pair():
    """A pair whose server logs every request frame it is handed."""
    pair = HostPair()
    client_tx = LiveTransactor(pair.client)
    server_tx = LiveTransactor(pair.server)
    server_tx.serve(lambda request: RESPONSE)
    delivered = []
    socket = server_tx.config.socket
    handle = pair.server.sockets[socket]

    def logging_handle(frame):
        delivered.append(frame)
        handle(frame)

    pair.server.sockets[socket] = logging_handle
    return pair, client_tx, delivered


async def _transact(pair, client_tx, payload):
    task = asyncio.ensure_future(client_tx.transact(pair.manager(), payload))
    await asyncio.sleep(0)
    pair.pump()
    return await task


def test_every_response_member_carries_the_request_frames_reply_header():
    pair, client_tx, delivered = _served_pair()
    result = asyncio.run(_transact(pair, client_tx, b"x" * (3 * MAX_MEMBER_PAYLOAD)))
    assert result.ok and result.payload == RESPONSE
    assert len(delivered) == 3
    request = delivered[-1]  # the member that completed the group
    assert len(_spans(request)) == pair.hops
    header, seg_count = return_route_header(
        request.frame, _spans(request), client_tx.config.socket, 0, False,
    )
    responses = pair.sent["server"]
    assert len(responses) == 16
    for frame in responses:
        assert decode_preamble(frame).seg_count == seg_count
        assert frame[PREAMBLE_BYTES:PREAMBLE_BYTES + len(header)] == header


def _delivered_frames(tokens):
    """One delivered frame per token: each crossed routers whose return
    segments carry that token."""
    frames = []
    for token in tokens:
        pair = HostPair(token=token)
        got = []
        pair.server.bind(SOCKET, got.append)
        pair.client.send(pair.route("server", SOCKET), b"request")
        pair.pump()
        frames.append((pair, got[0]))
    return frames


def test_the_memo_is_per_frame_reply_socket_and_priority():
    (pair, first), (_other_pair, second) = _delivered_frames([b"A" * 24, b"B" * 24])
    assert first.return_route(1) is first.return_route(1)
    assert first.return_route(1) is not first.return_route(2)
    assert second.return_route(1) is not first.return_route(1)
    for delivered in (first, second):
        for reply_socket in (1, 2):
            route = delivered.return_route(reply_socket)
            for priority in (0, 3, 0, 9):
                for dib in (False, True):
                    assert route.wire_header(priority, dib) == return_route_header(
                        delivered.frame, _spans(delivered),
                        reply_socket, priority, dib,
                    )
    assert first.return_route(1).wire_header() != second.return_route(1).wire_header()
    # Through the host: each reply is the reference frame for its own
    # frame, socket and priority, whatever was sent before it.
    for delivered, reply_socket, priority in (
        (first, 1, 0), (first, 1, 5), (first, 2, 5), (second, 1, 5), (first, 1, 0),
    ):
        pair.server.send_return(
            delivered, b"reply", reply_socket=reply_socket, priority=priority,
        )
        header, seg_count = return_route_header(
            delivered.frame, _spans(delivered), reply_socket, priority,
        )
        assert pair.sent["server"].pop() == frame_with_header(header, seg_count, b"reply")


def test_a_served_transaction_leaves_nothing_to_the_cyclic_collector():
    """With the collector off, every object a served transaction made —
    delivered frames, their reply routes, the PDUs, the assembly — is
    freed by reference counting alone."""
    pair, client_tx, delivered = _served_pair()
    served = []

    async def run():
        served.append(await _transact(pair, client_tx, b"warm"))
        delivered.clear()
        gc.collect()
        gc.disable()
        try:
            for _ in range(3):
                served.append(
                    await _transact(pair, client_tx, b"y" * (2 * MAX_MEMBER_PAYLOAD))
                )
            delivered.clear()
            return gc.collect()
        finally:
            gc.enable()

    assert asyncio.run(run()) == 0
    assert all(result.ok for result in served)
