"""The tx backlog is bounded: a socket that stays full costs counted
drops, not memory."""

from repro.live import link
from repro.live.frames import FRAME_DATA, encode_preamble
from repro.live.link import TX_BACKLOG_MAX, LiveEndpoint
from tests.live.oracle import FakeLoop, slot_view

PEER = ("127.0.0.1", 9001)
FRAME = encode_preamble(FRAME_DATA, 0, 4) + b"body"


class FullSocket:
    """A socket whose send buffer never drains."""

    def __init__(self):
        self.attempts = 0

    def fileno(self):
        return -1

    def close(self):
        pass

    def sendto(self, datagram, addr):
        self.attempts += 1
        raise BlockingIOError

    def sendmsg(self, parts, ancdata, flags, addr):
        self.attempts += 1
        raise BlockingIOError


def full_endpoint():
    endpoint = LiveEndpoint("full")
    endpoint._loop = FakeLoop()
    endpoint._sock = FullSocket()
    return endpoint


def test_the_backlog_stops_at_its_cap_and_counts_every_refused_frame():
    endpoint = full_endpoint()
    extra = 7
    for n in range(TX_BACKLOG_MAX + extra):
        if n % 3 == 0:
            endpoint.send(FRAME, PEER)
        elif n % 3 == 1:
            endpoint.send_view(slot_view(endpoint.ring, FRAME), PEER)
        else:
            endpoint.send_parts([FRAME[:5], FRAME[5:]], PEER)
        assert len(endpoint._tx_backlog) == min(n + 1, TX_BACKLOG_MAX)
    assert endpoint._sock.attempts == TX_BACKLOG_MAX + extra
    assert endpoint.metrics.drops.get("tx_backlog_full", 0) == extra
    assert endpoint.metrics.frames_out == TX_BACKLOG_MAX + extra
    # A writable wakeup that still finds the socket full keeps them all.
    endpoint._on_writable()
    assert len(endpoint._tx_backlog) == TX_BACKLOG_MAX
    # Send views gave their slots back: the backlog holds copies.
    assert endpoint.ring.stats.acquires == endpoint.ring.stats.releases
    endpoint.close()
    assert not endpoint._tx_backlog


def test_the_cap_is_a_module_constant(monkeypatch):
    monkeypatch.setattr(link, "TX_BACKLOG_MAX", 2)
    endpoint = full_endpoint()
    for _ in range(5):
        endpoint.send(FRAME, PEER)
    assert len(endpoint._tx_backlog) == 2
    assert endpoint.metrics.drops.get("tx_backlog_full", 0) == 3


class DrainingSocket(FullSocket):
    """A full socket until ``accept`` is set; then it records each
    datagram, or raises ``OSError`` for one it is told to refuse."""

    def __init__(self, refuse=()):
        super().__init__()
        self.accept = False
        self.refuse = set(refuse)
        self.sent = []

    def sendto(self, datagram, addr):
        if not self.accept:
            return super().sendto(datagram, addr)
        if datagram in self.refuse:
            raise OSError("refused")
        self.sent.append(datagram)


def test_a_writable_socket_flushes_the_backlog_in_order():
    """Frames deferred by a full socket leave in the order they were
    refused once it drains; one the kernel refuses outright is counted
    ``socket_error`` and does not block those behind it; the writer is
    disarmed with the backlog empty."""
    frames = [FRAME[:-1] + bytes([n]) for n in range(5)]
    endpoint = full_endpoint()
    endpoint._sock = DrainingSocket(refuse=[frames[2]])
    for frame in frames:
        endpoint.send(frame, PEER)
    assert [datagram for datagram, _addr in endpoint._tx_backlog] == frames
    assert endpoint._writer_armed
    endpoint._sock.accept = True
    endpoint._on_writable()
    assert endpoint._sock.sent == frames[:2] + frames[3:]
    assert endpoint.metrics.drops.get("socket_error", 0) == 1
    assert not endpoint._tx_backlog and not endpoint._writer_armed
