"""The three send paths and the probe each may open.

``send``, ``send_view`` and ``send_parts`` each make the first frame to a
peer with no probe out that peer's probe — beside a probe frame when the
peer was silent through the last one — and leave every later frame in
the window to the fast path: no clock read, no timer, no copy.  No path
writes a byte of the frame it is handed.  ``send_view`` gives its slot
back whatever becomes of the frame — the endpoint never pins one.  These
run on ``tests/live/oracle.py::FakeLoop`` with a socket that records.
"""

import pytest

from repro.live.frames import FRAME_DATA, encode_preamble, encode_probe
from repro.live.link import Impairments, LiveEndpoint, LivenessConfig
from tests.live.oracle import FakeLoop, free_slots, slot_view

PEER = ("127.0.0.1", 9001)
FRAME = encode_preamble(FRAME_DATA, 0, 4) + b"body"
TIMEOUT_S = 0.05


class CountingLoop(FakeLoop):
    """A :class:`FakeLoop` that counts its clock reads."""

    def __init__(self):
        super().__init__()
        self.time_reads = 0

    def time(self):
        self.time_reads += 1
        return super().time()


class RecordingSocket:
    """What the endpoint needs of a UDP socket to transmit: every
    datagram is recorded with the call that carried it, or refused with
    ``refuse`` (an exception class) while that is set.  A ``bytes`` or
    ``bytearray`` datagram is kept as the very object sent; a view of a
    ring slot is copied, as the slot is reused once released."""

    def __init__(self):
        self.sent = []
        self.refuse = None

    def fileno(self):
        return -1

    def close(self):
        pass

    def sendto(self, datagram, addr):
        if self.refuse is not None:
            raise self.refuse
        if not isinstance(datagram, (bytes, bytearray)):
            datagram = bytes(datagram)
        self.sent.append(("sendto", datagram, addr))

    def sendmsg(self, parts, ancdata, flags, addr):
        if self.refuse is not None:
            raise self.refuse
        self.sent.append(("sendmsg", list(parts), addr))


def endpoint_on(loop=None, **kwargs):
    endpoint = LiveEndpoint(
        "stamping", liveness=LivenessConfig(ack_timeout_s=TIMEOUT_S), **kwargs
    )
    endpoint._loop = loop if loop is not None else CountingLoop()
    endpoint._sock = RecordingSocket()
    return endpoint


def send_by(path, endpoint, frame=FRAME):
    """Send ``frame`` to ``PEER`` through one of the three send paths."""
    if path == "send":
        return endpoint.send(frame, PEER)
    if path == "send_view":
        return endpoint.send_view(slot_view(endpoint.ring, frame), PEER)
    return endpoint.send_parts([frame[:5], frame[5:]], PEER)


def wire_bytes(record):
    """The datagram one recorded call put on the wire."""
    if record[0] == "sendmsg":
        return b"".join(bytes(part) for part in record[1])
    return bytes(record[1])


PATHS = ["send", "send_view", "send_parts"]


@pytest.mark.parametrize("path", PATHS)
def test_only_the_first_send_in_a_window_is_the_peers_probe(path):
    """The first frame opens the peer's probe (one clock read, the one
    timer armed for its deadline); the next nine in the window read no
    clock and arm nothing, and no probe frame goes out."""
    endpoint = endpoint_on()
    loop = endpoint._loop
    send_by(path, endpoint)
    assert endpoint._probes == {PEER: (None, loop.now)}
    assert endpoint._probe_timer.when() == loop.now + TIMEOUT_S
    reads, handles = loop.time_reads, len(loop.handles)
    for _ in range(9):
        loop.now += TIMEOUT_S / 20
        send_by(path, endpoint)
    assert (loop.time_reads, len(loop.handles)) == (reads, handles)
    assert endpoint._probes == {PEER: (None, 1000.0)}
    sent = endpoint._sock.sent
    assert len(sent) == 10 and endpoint.metrics.frames_out == 10
    assert {wire_bytes(record) for record in sent} == {FRAME}
    assert endpoint.ring.stats.acquires == endpoint.ring.stats.releases


@pytest.mark.parametrize("path", PATHS)
def test_a_silent_peer_gets_a_probe_frame_beside_the_frame_as_handed_over(path):
    """The unanswered probe's deadline passes; the next send puts one
    probe frame with a fresh nonce on the wire, then the data frame byte
    for byte as it was handed over; the frames after it in its window go
    out alone."""
    endpoint = endpoint_on()
    send_by(path, endpoint)
    endpoint._loop.advance(TIMEOUT_S)
    assert not endpoint._probes and endpoint._unheard == {PEER: 1}
    send_by(path, endpoint)
    send_by(path, endpoint)
    sent = [wire_bytes(record) for record in endpoint._sock.sent]
    assert sent == [FRAME, encode_probe(1), FRAME, FRAME]
    assert endpoint._probes == {PEER: (1, endpoint._loop.now)}
    assert endpoint.metrics.frames_out == 3
    assert endpoint.metrics.bytes_out == 3 * len(FRAME)


@pytest.mark.parametrize("path", ["send", "send_view"])
def test_the_link_writes_no_byte_of_a_data_frame(path):
    """Whatever the probe ladder does, the frame object (or slot) the
    link is handed holds the same bytes after the send, and the socket
    gets those bytes: ``send`` hands over the very object."""
    endpoint = endpoint_on()
    for _ in range(3):
        if path == "send":
            frame = bytearray(FRAME)
            endpoint.send(frame, PEER)
            assert endpoint._sock.sent[-1][1] is frame and frame == FRAME
        else:
            view = slot_view(endpoint.ring, FRAME)
            slot = view.buffer
            endpoint.send_view(view, PEER)
            assert bytes(slot[:len(FRAME)]) == FRAME
        endpoint._loop.advance(TIMEOUT_S)
    assert endpoint._sock.sent[-2][1] == encode_probe(2)


def test_send_parts_gathers_even_when_a_probe_frame_is_due():
    """``send_parts`` hands the kernel the parts themselves — no join
    copy — on the send that opens a probe too: the probe is a frame of
    its own."""
    endpoint = endpoint_on()
    parts = [FRAME[:5], FRAME[5:]]
    endpoint.send_parts(parts, PEER)
    endpoint._loop.advance(TIMEOUT_S)
    endpoint.send_parts(parts, PEER)
    first, probe, gathered = endpoint._sock.sent
    assert first[0] == gathered[0] == "sendmsg"
    assert all(a is b for a, b in zip(gathered[1], parts))
    assert probe == ("sendto", encode_probe(1), PEER)
    assert endpoint.metrics.bytes_out == 2 * len(FRAME)


@pytest.mark.parametrize("path", PATHS)
def test_a_closed_endpoint_sends_nothing_and_takes_its_slot_back(path):
    endpoint = endpoint_on()
    sock = endpoint._sock
    endpoint.close()
    send_by(path, endpoint)
    assert sock.sent == [] and endpoint.metrics.frames_out == 0
    assert not endpoint._probes
    assert endpoint.ring.stats.acquires == endpoint.ring.stats.releases


@pytest.mark.parametrize("outcome", [
    "sent", "socket_full", "socket_error", "loss_injected",
])
def test_send_view_releases_its_slot_whatever_becomes_of_the_frame(outcome):
    """Sent, deferred (the backlog holds a copy), refused or lost on
    purpose: the slot is back in the ring when ``send_view`` returns."""
    impairments = Impairments(
        loss_rate=1.0 if outcome == "loss_injected" else 0.0, seed=7
    )
    endpoint = endpoint_on(impairments=impairments)
    endpoint._sock.refuse = {
        "socket_full": BlockingIOError, "socket_error": OSError,
    }.get(outcome)
    view = slot_view(endpoint.ring, FRAME)
    endpoint.send_view(view, PEER)
    assert endpoint.ring.stats.acquires == endpoint.ring.stats.releases == 1
    assert free_slots(endpoint.ring) == len(endpoint.ring._slots)
    backlog = list(endpoint._tx_backlog)
    if outcome == "socket_full":
        assert backlog == [(FRAME, PEER)]
        assert type(backlog[0][0]) is bytes
    else:
        assert backlog == []
    if outcome == "sent":
        assert wire_bytes(endpoint._sock.sent[0]) == FRAME
    else:
        assert endpoint._sock.sent == []
    if outcome in ("socket_error", "loss_injected"):
        assert endpoint.metrics.drops.get(outcome, 0) == 1


def test_a_probe_lost_on_the_wire_still_climbs_the_ladder():
    """Injected loss takes data and probe frames alike, never the
    ladder's count: a peer every frame to which is lost is declared dead
    after ``1 + max_retries`` rungs, as a peer that never answers is."""
    endpoint = LiveEndpoint(
        "lossy",
        liveness=LivenessConfig(ack_timeout_s=TIMEOUT_S, max_retries=3),
        impairments=Impairments(loss_rate=1.0, seed=3),
    )
    loop = endpoint._loop = FakeLoop()
    endpoint._sock = RecordingSocket()
    dead = []
    endpoint.on_peer_dead = lambda addr: dead.append((loop.now, addr))
    for _ in range(20):
        endpoint.send(FRAME, PEER)
        loop.advance(0.01)
    assert endpoint._sock.sent == []
    # 20 data frames and the three probe frames of the ladder's rungs.
    assert endpoint.metrics.drops.get("loss_injected", 0) == 23
    assert [(round(at - 1000.0, 9), addr) for at, addr in dead] == [
        (4 * TIMEOUT_S, PEER),
    ]
