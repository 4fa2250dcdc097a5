"""The host's trailer memo and the reply headers it holds, socket-free.

A server answers along the reversed trailer of the request's last
member.  A host walks each distinct trailer once and keeps it by its
bytes (at most ``TRAILER_MEMO_ENTRIES``, the oldest forgotten first and
counted); :meth:`LiveDelivered.return_route` is the entry's route per
(reply socket, arrival port) and :class:`_ReturnRoute` writes its
header once per (priority, DIB), so a response group's members — and
every later transaction on the flow — copy bytes instead of
re-reversing the trailer.  The memo must be exactly
:func:`~repro.live.frames.return_route_header`, never reused across
different trailer bytes, reply sockets, arrival ports, priorities or
DIB; a trailer that does not frame is never memoised; and nothing in
it may point back at a delivered frame: a delivered ↔ route cycle would
leave every served request to the cyclic collector.
"""

import asyncio
import gc

import repro.live.host as live_host
from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    PAYLOAD_LEN_OFFSET,
    PREAMBLE_BYTES,
    decode_preamble,
    encode_preamble,
    frame_with_header,
    return_route_header,
)
from repro.live.host import TRAILER_MEMO_ENTRIES, LiveTransactor
from repro.transport.machine import MAX_MEMBER_PAYLOAD
from repro.viper.wire import HeaderSegment, encode_segment
from benchmarks.bench_f03_transactor_pair import HostPair
from tests.live.oracle import batch_of, live_trailer_spans, slot_view

SOCKET = 7
RESPONSE = bytes(range(256)) * (16 * MAX_MEMBER_PAYLOAD // 256)


def _spans(delivered):
    """The trailer spans of a delivery's datagram, walked afresh."""
    return live_trailer_spans(delivered.datagram, delivered.preamble)


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
        request.datagram, _spans(request), client_tx.config.socket, 0, False,
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
                        delivered.datagram, _spans(delivered),
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
            delivered.datagram, _spans(delivered), reply_socket, priority,
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


# -- the trailer memo -------------------------------------------------------------


class _Receiver:
    """A server host of a :class:`HostPair` that logs what it is handed
    on :data:`SOCKET` and counts the trailers it walks."""

    def __init__(self, monkeypatch, **pair) -> None:
        self.pair = HostPair(**pair)
        self.host = self.pair.server
        self.got = []
        self.host.bind(SOCKET, self.got.append)
        self.walks = 0
        walk = live_host.framed_trailer

        def counted(buffer, floor=0):
            self.walks += 1
            return walk(buffer, floor)

        monkeypatch.setattr(live_host, "framed_trailer", counted)

    def request(self, payload=b"request") -> bytes:
        """A request frame as the server receives it, after the routers."""
        self.pair.client.send(self.pair.route("server", SOCKET), payload)
        (view, _source, _preamble), = self.pair.queued["server"]
        self.pair.queued["server"].clear()
        datagram = view.tobytes()
        view.release()
        return datagram

    def deliver(self, datagram: bytes, source=("127.0.0.1", 9001)):
        """Hand ``datagram`` to the host; the delivery, or None."""
        before = len(self.got)
        self.host._on_batch(batch_of(slot_view(self.host.endpoint.ring, datagram), source))
        return self.got[-1] if len(self.got) > before else None


def _with_token_bytes(datagram: bytes, *values: int) -> bytes:
    """``datagram`` with the last bytes of its last-appended trailer
    segment's token (every return segment carries the routers' token)
    set to ``values``: the trailer still frames."""
    changed = bytearray(datagram)
    for back, value in enumerate(values, start=5):  # the back-length is 2
        changed[-back] = value
    return bytes(changed)


def test_a_trailer_is_walked_once_and_one_byte_off_is_walked_afresh(monkeypatch):
    receiver = _Receiver(monkeypatch)
    first = receiver.deliver(receiver.request(b"one"))
    second = receiver.deliver(receiver.request(b"second request"))
    assert receiver.walks == 1, "the same trailer bytes around another payload"
    assert second.trailer is first.trailer
    assert second.return_route(1) is first.return_route(1)

    datagram = receiver.request()
    off = receiver.deliver(_with_token_bytes(datagram, datagram[-5] ^ 1))
    assert receiver.walks == 2
    assert off.trailer is not first.trailer
    assert off.return_route(1) is not first.return_route(1)
    for delivered in (first, second, off):
        end = delivered.payload_end
        assert [(a + end, b + end) for a, b in delivered.trailer.spans] == (
            _spans(delivered)
        )
        assert delivered.return_route(1).wire_header() == return_route_header(
            delivered.datagram, _spans(delivered), 1,
        )
    assert first.return_route(1).wire_header() != off.return_route(1).wire_header()
    assert len(receiver.host._trailers) == 2


def test_a_malformed_trailer_is_undecodable_memoised_neighbour_or_not(monkeypatch):
    receiver = _Receiver(monkeypatch)
    good = receiver.request()
    # The last back-length claims one byte more than its segment: the
    # trailer no longer frames, and it is as long as the good one.
    bad = bytearray(good)
    bad[-1] += 1
    bad = bytes(bad)
    for _ in range(2):  # nothing memoised, then the good one memoised
        assert receiver.deliver(bad) is None
        assert receiver.deliver(good) is not None
    assert receiver.host.metrics.dropped("undecodable") == 2
    assert list(receiver.host._trailers) == [good[receiver.got[0].payload_end:]]
    assert receiver.walks == 3, "a refused trailer is walked on every arrival"


def test_a_frame_the_last_ones_bytes_do_not_describe_is_walked(monkeypatch):
    """The host's shortcut for a frame like the one it opened last holds
    only for a frame of the same kind and segment count that carries
    that frame's header and trailer around exactly its declared
    payload: another kind, another segment count or a payload that
    overruns the frame is walked, and drops as the walk says."""
    receiver = _Receiver(monkeypatch)
    host = receiver.host
    good = receiver.request(b"payload")
    delivered = receiver.deliver(good)
    trailer = good[delivered.payload_end:]
    as_ack = bytearray(good)
    as_ack[3] = FRAME_ACK
    assert receiver.deliver(bytes(as_ack)) is None
    assert host.metrics.dropped("undecodable") == 1
    # A spent route (no segment left), then the same trailer behind one
    # segment counted into the payload: walked, its trailer is short.
    body = b"p" * 20
    receiver.deliver(encode_preamble(FRAME_DATA, 0, len(body)) + body + trailer)
    assert host.metrics.dropped("route_exhausted") == 1
    segment = encode_segment(HeaderSegment(port=SOCKET))
    receiver.deliver(
        encode_preamble(FRAME_DATA, 1, len(body)) + segment + body[4:] + trailer
    )
    assert host.metrics.dropped("route_exhausted") == 1
    assert host.metrics.dropped("undecodable") == 2
    # No trailer: a payload longer than the frame overruns it.
    hopless = _Receiver(monkeypatch, hops=0)
    frame = hopless.request(b"payload")
    assert hopless.deliver(frame).payload == b"payload"
    overrun = bytearray(frame)
    overrun[PAYLOAD_LEN_OFFSET + 1] += 1
    assert hopless.deliver(bytes(overrun)) is None
    assert hopless.host.metrics.dropped("undecodable") == 1


def test_a_reply_header_is_never_served_across_sockets_ports_priorities_or_dib(monkeypatch):
    receiver = _Receiver(monkeypatch)
    other = ("127.0.0.1", 9002)
    receiver.host.connect_port(2, other)
    datagram = receiver.request()
    by_port = {1: receiver.deliver(datagram), 2: receiver.deliver(datagram, other)}
    assert receiver.walks == 1
    routes = {}
    for port, delivered in by_port.items():
        assert delivered.arrival_port == port
        for reply_socket in (1, 2):
            route = routes[reply_socket, port] = delivered.return_route(reply_socket)
            assert route.first_hop_port == port
            for priority in (0, 5):
                for dib in (False, True):
                    assert route.wire_header(priority, dib) == return_route_header(
                        delivered.datagram, _spans(delivered),
                        reply_socket, priority, dib,
                    )
            assert route.wire_header(5) != route.wire_header(0)
            assert route.wire_header(0, True) != route.wire_header(0)
    assert len({id(route) for route in routes.values()}) == 4
    assert routes[1, 1].wire_header() != routes[2, 1].wire_header()
    # The same trailer on the same port, again: the same route object.
    assert receiver.deliver(datagram).return_route(2) is routes[2, 1]
    # Through the host: each reply is framed with its own route's header.
    for (reply_socket, port), route in routes.items():
        receiver.host.send_return(by_port[port], b"reply", reply_socket=reply_socket)
        header, seg_count = route.wire_header()
        assert receiver.pair.sent["server"].pop() == frame_with_header(
            header, seg_count, b"reply",
        )


def test_past_its_bound_the_memo_forgets_the_oldest_trailer_and_counts(monkeypatch):
    receiver = _Receiver(monkeypatch)
    datagram = receiver.request()
    distinct = [
        _with_token_bytes(datagram, low, high) for high in (0, 1) for low in range(256)
    ][:TRAILER_MEMO_ENTRIES + 4]
    overflow = len(distinct) - TRAILER_MEMO_ENTRIES
    assert overflow > 0
    for frame in distinct:
        assert receiver.deliver(frame) is not None
    host = receiver.host
    assert len(host._trailers) == TRAILER_MEMO_ENTRIES
    assert host.trailer_evictions == overflow
    assert receiver.walks == len(distinct)
    # The oldest went first: the first arrival is walked again.
    assert receiver.deliver(distinct[0]) is not None
    assert receiver.walks == len(distinct) + 1
    assert host.trailer_evictions == overflow + 1
