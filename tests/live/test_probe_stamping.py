"""The three send paths and the probe they may carry.

``send``, ``send_view`` and ``send_parts`` each make the first frame to a
peer with no probe out that peer's probe, stamp the preamble's hop
sequence (0, or the number of a probe to a peer silent through the last
one) and leave every later frame in the window to the fast path: no
clock read, no timer, no copy.  ``send_view`` gives its slot back
whatever becomes of the frame — the endpoint never pins one.  These run
on ``tests/live/oracle.py::FakeLoop`` with a socket that records.
"""

import pytest

from repro.live.frames import (
    FRAME_DATA,
    SEQ_NONE,
    decode_preamble,
    encode_preamble,
)
from repro.live.link import Impairments, LiveEndpoint, LivenessConfig
from tests.live.oracle import FakeLoop, slot_view

PEER = ("127.0.0.1", 9001)
FRAME = encode_preamble(FRAME_DATA, SEQ_NONE, 0, 4) + b"body"
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
    clock, arm nothing and go out with hop sequence 0."""
    endpoint = endpoint_on()
    loop = endpoint._loop
    assert send_by(path, endpoint) == SEQ_NONE
    assert endpoint._probes == {PEER: (SEQ_NONE, loop.now)}
    assert endpoint._probe_timer.when() == loop.now + TIMEOUT_S
    reads, handles = loop.time_reads, len(loop.handles)
    for _ in range(9):
        loop.now += TIMEOUT_S / 20
        assert send_by(path, endpoint) == SEQ_NONE
    assert (loop.time_reads, len(loop.handles)) == (reads, handles)
    assert endpoint._probes == {PEER: (SEQ_NONE, 1000.0)}
    sent = endpoint._sock.sent
    assert len(sent) == 10 and endpoint.metrics.frames_out == 10
    assert {wire_bytes(record) for record in sent} == {FRAME}
    assert endpoint.ring.stats.acquires == endpoint.ring.stats.releases


@pytest.mark.parametrize("path", PATHS)
def test_a_peer_silent_through_its_probe_is_asked_with_a_number(path):
    """The unanswered probe's deadline passes; the next frame to the peer
    carries a fresh number on the wire — on every path, as one datagram
    — and the frames after it in its window carry 0 again."""
    endpoint = endpoint_on()
    send_by(path, endpoint)
    endpoint._loop.advance(TIMEOUT_S)
    assert not endpoint._probes and endpoint._unheard == {PEER: 1}
    assert send_by(path, endpoint) == 1
    assert send_by(path, endpoint) == SEQ_NONE
    first, numbered, after = endpoint._sock.sent
    assert decode_preamble(wire_bytes(numbered)).seq == 1
    assert wire_bytes(numbered)[len(FRAME) - 4:] == b"body"
    assert decode_preamble(wire_bytes(after)).seq == SEQ_NONE
    # A probe goes out through one buffer, whatever path it took.
    assert numbered[0] == first[0] == "sendto"
    assert endpoint._probes == {PEER: (1, endpoint._loop.now)}


def test_send_parts_gathers_once_its_peer_has_a_probe_out():
    """Past the probe, ``send_parts`` hands the kernel the parts
    themselves: no join copy."""
    endpoint = endpoint_on()
    parts = [FRAME[:5], FRAME[5:]]
    endpoint.send_parts(parts, PEER)
    endpoint.send_parts(parts, PEER)
    probe, gathered = endpoint._sock.sent
    assert probe == ("sendto", FRAME, PEER)
    assert gathered[0] == "sendmsg" and gathered[2] == PEER
    assert all(a is b for a, b in zip(gathered[1], parts))
    assert endpoint.metrics.bytes_out == 2 * len(FRAME)


def test_a_bytes_frame_goes_out_uncopied_and_a_bytearray_is_stamped_0():
    """A ``bytes`` frame that carries no number is the very object the
    socket gets; a ``bytearray`` frame is stamped in place, so a number
    left in its preamble by an earlier hop never leaks onward."""
    endpoint = endpoint_on()
    endpoint.send(FRAME, PEER)
    assert endpoint._sock.sent[-1][1] is FRAME
    stale = bytearray(encode_preamble(FRAME_DATA, 77, 0, 4) + b"body")
    endpoint.send(stale, PEER)
    assert endpoint._sock.sent[-1][1] is stale
    assert decode_preamble(stale).seq == SEQ_NONE


def test_a_runt_goes_out_as_it_is_and_probes_nothing():
    endpoint = endpoint_on()
    runt = FRAME[:5]
    assert endpoint.send(runt, PEER) == SEQ_NONE
    assert endpoint._sock.sent == [("sendto", runt, PEER)]
    assert not endpoint._probes and endpoint._probe_timer is None


@pytest.mark.parametrize("path", PATHS)
def test_a_closed_endpoint_sends_nothing_and_takes_its_slot_back(path):
    endpoint = endpoint_on()
    sock = endpoint._sock
    endpoint.close()
    assert send_by(path, endpoint) == SEQ_NONE
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
    assert endpoint.ring.available() == len(endpoint.ring)
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
        assert endpoint.metrics.dropped(outcome) == 1


def test_a_probe_lost_on_the_wire_still_climbs_the_ladder():
    """Injected loss takes the frame, not the probe: a peer every frame
    to which is lost is declared dead after ``1 + max_retries`` rungs,
    as a peer that never answers is."""
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
    assert endpoint.metrics.dropped("loss_injected") == 20
    assert [(round(at - 1000.0, 9), addr) for at, addr in dead] == [
        (4 * TIMEOUT_S, PEER),
    ]
