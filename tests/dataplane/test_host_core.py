"""The one host edge, :class:`~repro.dataplane.host.HostCore`, on both
substrates' frames.

Every case runs twice: on a live datagram (``bytes`` copied out of its
ring slot) and on a simulated frame (a ``bytearray``-backed
:class:`~repro.viper.wire.PacketView`'s ``mem``, what
``SirpentHost.on_packet`` opens).  The core's memoised open must be
:func:`~repro.live.frames.frame_spans`' verdict on any frame; it walks
each distinct trailer once and keeps at most ``TRAILER_MEMO_ENTRIES``,
the oldest forgotten first; a trailer that does not frame is never
memoised; the truncation mark is read once per trailer; and a frame no
socket takes is counted, traced and recorded under one vocabulary on
both adapters.
"""

import random

import pytest

import repro.dataplane.host as host_core
from benchmarks.bench_f03_transactor_pair import HostPair
from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.dataplane.host import TRAILER_MEMO_ENTRIES, HostCore
from repro.directory.routes import Route
from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    PAYLOAD_LEN_OFFSET,
    decode_preamble,
    encode_preamble,
    frame_spans,
    return_route_header,
    truncation_marked,
)
from repro.live.host import LiveHost
from repro.net.addresses import MacAddress
from repro.net.topology import Topology
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer
from repro.sim.engine import Simulator
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import TRUNCATION_SENTINEL
from repro.viper.wire import HeaderSegment, PacketView, encode_segment
from tests.live.test_host_span_differential import MUTATIONS, valid_frame

SOCKET = 7
BOUND = range(200)

#: A datagram as each substrate's adapter hands it to the core.
SUBSTRATES = {
    "live": bytes,
    "sim": lambda datagram: PacketView(bytearray(datagram) + bytearray(64), 0, len(datagram)).mem,
}


@pytest.fixture(params=sorted(SUBSTRATES))
def as_frame(request):
    return SUBSTRATES[request.param]


class Edge:
    """A bare :class:`HostCore` with sockets 0..199 bound, counting the
    trailers it walks."""

    def __init__(self, monkeypatch, as_frame) -> None:
        self.core = HostCore("h", self, lambda: 0.0)
        self.as_frame = as_frame
        self.counted = []
        for socket in BOUND:
            self.core.bind(socket, self.counted.append)
        self.walks = 0
        walk = host_core.framed_trailer

        def counted(buffer, floor=0):
            self.walks += 1
            return walk(buffer, floor)

        monkeypatch.setattr(host_core, "framed_trailer", counted)

    def drop(self, reason: str) -> None:
        """The adapter's counters: the core reports every drop here too."""

    def open(self, datagram: bytes, traced: int = 0):
        frame = self.as_frame(datagram)
        return self.core.open(frame, decode_preamble(frame), traced)


def _request(hops: int = 2, payload: bytes = b"request") -> bytes:
    """A request frame after ``hops`` router hops: a trailer of ``hops``
    return segments, each carrying the routers' token."""
    pair = HostPair(hops=hops)
    pair.client.send(pair.route("server", SOCKET), payload)
    (view, _source, _preamble), = pair.queued["server"]
    datagram = view.tobytes()
    view.release()
    return datagram


def _with_token_bytes(datagram: bytes, *values: int) -> bytes:
    """``datagram`` with the last bytes of its last-appended trailer
    segment's token set to ``values``: the trailer still frames."""
    changed = bytearray(datagram)
    for back, value in enumerate(values, start=5):  # the back-length is 2
        changed[-back] = value
    return bytes(changed)


def _with_payload(datagram: bytes, payload: bytes) -> bytes:
    """``datagram`` carrying ``payload`` instead, header and trailer as
    they were."""
    _socket, start, end, _spans = frame_spans(datagram, decode_preamble(datagram))
    changed = bytearray(datagram[:start] + payload + datagram[end:])
    changed[PAYLOAD_LEN_OFFSET:PAYLOAD_LEN_OFFSET + 2] = len(payload).to_bytes(2, "big")
    return bytes(changed)


# -- the open is frame_spans' verdict --------------------------------------------


def _expected(datagram: bytes):
    """``frame_spans``' verdict, demultiplexed over :data:`BOUND`."""
    preamble = decode_preamble(datagram)
    try:
        socket, start, end, spans = frame_spans(datagram, preamble)
    except ViperDecodeError:
        return "undecodable"
    if socket is None:
        return "route_exhausted"
    truncated = truncation_marked(len(datagram), end, spans)
    return (socket in BOUND, socket, start, end, spans, truncated)


def test_the_memoised_open_is_frame_spans_on_any_frame(monkeypatch, as_frame):
    """Families of frames that share headers and trailers, arriving in
    any order with line noise and aimed corruptions among them: every
    open is the walk's verdict, however the memo and the last-frame
    shortcut answer it."""
    rng = random.Random(0x40C0)
    edge = Edge(monkeypatch, as_frame)
    families = []
    while len(families) < 40:
        frame = valid_frame(rng, slick_trailer=0.05)
        if _expected(frame) != "undecodable":
            families.append(frame)
    tally = {}
    for _ in range(3000):
        datagram = rng.choice(families)
        roll = rng.random()
        if roll < 0.5:
            datagram = _with_payload(datagram, rng.randbytes(rng.randrange(80)))
        elif roll < 0.75:
            mutated = bytearray(datagram)
            rng.choice(MUTATIONS)(mutated, rng)
            datagram = bytes(mutated)
        elif roll < 0.8:
            datagram = datagram[:rng.randrange(len(datagram) + 1)]
        try:
            decode_preamble(datagram)
        except ViperDecodeError:
            continue  # the endpoint drops these before any host
        expected = _expected(datagram)
        drops = dict(edge.core.drops)
        handler, socket, start, end, trailer = edge.open(datagram)
        grown = {
            reason: count - drops.get(reason, 0)
            for reason, count in edge.core.drops.items()
            if count != drops.get(reason, 0)
        }
        if not isinstance(expected, tuple):
            assert (handler, socket, trailer) == (None, None, None)
            assert grown == {expected: 1}, datagram.hex()
            verdict = expected
        else:
            bound, want_socket, want_start, want_end, spans, truncated = expected
            assert (socket, start, end) == (want_socket, want_start, want_end)
            assert [(a + end, b + end) for a, b in trailer.spans] == spans
            assert trailer.wire == datagram[end:]
            assert trailer.truncated == truncated
            assert (handler is not None) == bound
            assert grown == ({} if bound else {"no_socket": 1})
            verdict = "deliver" if bound else "no_socket"
        tally[verdict] = tally.get(verdict, 0) + 1
    for verdict in ("deliver", "undecodable", "route_exhausted", "no_socket"):
        assert tally.get(verdict, 0) > 20, tally
    assert edge.walks < tally["deliver"] / 2, "the memo spares most walks"


# -- the trailer memo ---------------------------------------------------------------


def test_a_trailer_is_walked_once_and_one_byte_off_is_walked_afresh(monkeypatch, as_frame):
    edge = Edge(monkeypatch, as_frame)
    first = edge.open(_request(payload=b"one"))[4]
    second = edge.open(_request(payload=b"second request"))[4]
    assert edge.walks == 1, "the same trailer bytes around another payload"
    assert second is first
    datagram = _request()
    off = edge.open(_with_token_bytes(datagram, datagram[-5] ^ 1))[4]
    assert edge.walks == 2
    assert off is not first
    assert off.route(1, 1) is not first.route(1, 1)
    assert off.route(1, 1).wire_header() != first.route(1, 1).wire_header()
    assert len(edge.core.trailers) == 2


def test_a_trailer_that_does_not_frame_is_never_memoised(monkeypatch, as_frame):
    edge = Edge(monkeypatch, as_frame)
    good = _request()
    # The last back-length claims one byte more than its segment: the
    # trailer no longer frames, and it is as long as the good one.
    bad = bytearray(good)
    bad[-1] += 1
    bad = bytes(bad)
    for _ in range(2):  # nothing memoised, then the good one memoised
        assert edge.open(bad)[4] is None
        assert edge.open(good)[0] is not None
    assert edge.core.drops == {"undecodable": 2}
    end = edge.open(good)[3]
    assert list(edge.core.trailers) == [good[end:]]
    assert edge.walks == 3, "a refused trailer is walked on every arrival"


def test_a_frame_the_last_ones_bytes_do_not_describe_is_walked(monkeypatch, as_frame):
    """The shortcut for a frame like the one opened last holds only for
    a frame of the same kind and segment count that carries that
    frame's header with its declared payload inside the frame: another
    kind, another segment count or a payload that overruns the frame is
    walked, and drops as the walk says."""
    edge = Edge(monkeypatch, as_frame)
    good = _request(payload=b"payload")
    trailer = good[edge.open(good)[3]:]
    as_ack = bytearray(good)
    as_ack[3] = FRAME_ACK
    assert edge.open(bytes(as_ack))[4] is None
    assert edge.core.drops == {"undecodable": 1}
    # A spent route (no segment left), then the same trailer behind one
    # segment counted into the payload: walked, its trailer is short.
    body = b"p" * 20
    edge.open(encode_preamble(FRAME_DATA, 0, len(body)) + body + trailer)
    assert edge.core.drops == {"undecodable": 1, "route_exhausted": 1}
    segment = encode_segment(HeaderSegment(port=SOCKET))
    edge.open(encode_preamble(FRAME_DATA, 1, len(body)) + segment + body[4:] + trailer)
    assert edge.core.drops == {"undecodable": 2, "route_exhausted": 1}
    # No trailer: a payload longer than the frame overruns it.
    hopless = _request(hops=0, payload=b"payload")
    handler, socket, start, end, _trailer = edge.open(hopless)
    assert hopless[start:end] == b"payload" and socket == SOCKET
    overrun = bytearray(hopless)
    overrun[PAYLOAD_LEN_OFFSET + 1] += 1
    assert edge.open(bytes(overrun))[4] is None
    assert edge.core.drops == {"undecodable": 3, "route_exhausted": 1}


def test_past_its_bound_the_memo_forgets_the_oldest_trailer_and_counts(monkeypatch, as_frame):
    edge = Edge(monkeypatch, as_frame)
    datagram = _request()
    distinct = [
        _with_token_bytes(datagram, low, high) for high in (0, 1) for low in range(256)
    ][:TRAILER_MEMO_ENTRIES + 4]
    overflow = len(distinct) - TRAILER_MEMO_ENTRIES
    assert overflow > 0
    for frame in distinct:
        assert edge.open(frame)[0] is not None
    assert len(edge.core.trailers) == TRAILER_MEMO_ENTRIES
    assert edge.core.trailer_evictions == overflow
    assert edge.walks == len(distinct)
    # The oldest went first: the first arrival is walked again.
    assert edge.open(distinct[0])[0] is not None
    assert edge.walks == len(distinct) + 1
    assert edge.core.trailer_evictions == overflow + 1


def test_a_truncation_marked_trailer_sets_truncated(monkeypatch, as_frame):
    edge = Edge(monkeypatch, as_frame)
    plain = _request()
    marked = plain + TRUNCATION_SENTINEL.to_bytes(2, "big")
    assert edge.open(plain)[4].truncated is False
    trailer = edge.open(marked)[4]
    assert trailer.truncated is True
    assert trailer.spans == edge.open(plain)[4].spans
    assert edge.open(marked)[4] is trailer
    assert edge.walks == 2


def test_a_reply_route_is_never_served_across_sockets_ports_macs_priorities_or_dib(
    monkeypatch, as_frame,
):
    edge = Edge(monkeypatch, as_frame)
    datagram = _request()
    trailer = edge.open(datagram)[4]
    spans = [(a + len(datagram) - len(trailer.wire), b + len(datagram) - len(trailer.wire))
             for a, b in trailer.spans]
    mac = MacAddress(0x0A0000000001)
    routes = {}
    for port in (1, 2):
        for first_hop_mac in (None, mac):
            for reply_socket in (1, 2):
                route = trailer.route(reply_socket, port, first_hop_mac)
                assert route is trailer.route(reply_socket, port, first_hop_mac)
                assert (route.first_hop_port, route.first_hop_mac) == (port, first_hop_mac)
                for priority in (0, 5):
                    for dib in (False, True):
                        assert route.wire_header(priority, dib) == return_route_header(
                            datagram, spans, reply_socket, priority, dib,
                        )
                routes[reply_socket, port, first_hop_mac] = route
    assert len({id(route) for route in routes.values()}) == len(routes)


# -- one drop vocabulary, both adapters -----------------------------------------------


def _sim_pair():
    """a — r — b, every node traced and b's edge recording."""
    sim = Simulator()
    topology = Topology(sim)
    a = topology.add_node(SirpentHost(sim, "a"))
    b = topology.add_node(SirpentHost(sim, "b"))
    router = topology.add_node(SirpentRouter(sim, "r"))
    _, a_port, _ = topology.connect(a, router)
    _, out_port, _ = topology.connect(router, b)
    tracer = Tracer().install(a, b, router)
    recorder = b.core.sink.recorder = FlightRecorder(clock=lambda: sim.now)

    route = Route(
        "b", [HeaderSegment(port=out_port), HeaderSegment(port=42)], a_port, None,
    )
    packet = a.send(route, b"nowhere".ljust(100, b"\0"))
    sim.run(until=1.0)
    return b, tracer, recorder, packet.trace_id


def _live_pair():
    """A client's traced frame to a server socket nothing is bound to."""
    pair = HostPair()
    tracer = Tracer().install(pair.client, pair.server)
    recorder = FlightRecorder()
    pair.server.set_recorder(recorder)
    trace_id = pair.client.send(pair.route("server", 42), b"nowhere")
    pair.pump()
    return pair.server, tracer, recorder, trace_id


@pytest.mark.parametrize("substrate", ["sim", "live"])
def test_a_frame_no_socket_takes_is_a_traced_recorded_drop(substrate):
    """The simulator used to trace this frame as a delivery; both
    adapters now trace, record and count it as the core's ``no_socket``
    drop, and the simulator's ``received`` still counts it."""
    host, tracer, recorder, trace_id = (_sim_pair if substrate == "sim" else _live_pair)()
    assert host.core.drops == {"no_socket": 1}
    record = tracer.record(trace_id)
    assert (record.status, record.drop_reason) == ("dropped", "no_socket")
    assert record.events[-1].attrs == {"reason": "no_socket", "socket": 42}
    assert [(e.name, e.fields["reason"]) for e in recorder.events()] == [
        ("frame_dropped", "no_socket"),
    ]
    if substrate == "sim":
        assert (host.received.count, host.undeliverable.count) == (1, 1)
    else:
        assert host.metrics.drops == {"no_socket": 1}
        assert host.metrics.delivered_local == 0


@pytest.mark.parametrize("substrate", ["sim", "live"])
def test_every_drop_reason_reaches_the_adapters_counters(substrate):
    """The four reasons, whichever adapter's edge drops the frame: the
    core's tally and the counters the adapter's readers read."""
    host = SirpentHost(Simulator(), "h") if substrate == "sim" else LiveHost("h")
    reasons = ("undecodable", "unknown_peer", "route_exhausted", "no_socket")
    for reason in reasons:
        host.core.discard(reason, 0)
    assert host.core.drops == dict.fromkeys(reasons, 1)
    if substrate == "sim":
        assert host.undeliverable.count == len(reasons)
    else:
        assert host.metrics.drops == dict.fromkeys(reasons, 1)
