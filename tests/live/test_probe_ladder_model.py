"""The probe ladder against a timer per probe, on generated scripts.

``LiveEndpoint`` keeps one probe per peer in a dict in send order under
one loop timer.  The plain design it stands for is a timer per probe:
each probe's deadline fires on its own, due probes in send order.  Both
run here on a virtual clock (``tests/live/oracle.py::FakeLoop`` fires a
handle exactly at its deadline) through generated scripts of sends to
two peers, clock advances, data and probe frames heard from a peer, and
acks — some echoing the other peer's probe, some a nonce nobody has out
— fed through the endpoint's own drain.  After every step they must
agree on every peer declared dead (instant, peer) and on every probe
frame on the wire, and the ladder's rules must hold:

* at most one probe in flight per peer, probe frames at least
  ``ack_timeout_s`` apart on the wire, each beside a data frame that
  leaves byte for byte as it was handed over;
* ``on_peer_dead`` fires exactly when ``1 + max_retries`` probes to a
  peer in a row went unanswered, the last of them a probe frame;
* an ack echoing another peer's probe counts ``stray_ack`` and changes
  nothing;
* the endpoint's one timer is armed for the oldest probe's deadline
  exactly while a probe is out.
"""

from hypothesis import given, settings, strategies as st

from repro.live.frames import (
    FRAME_DATA,
    encode_ack,
    encode_preamble,
    encode_probe,
)
from repro.live.link import LiveEndpoint, LivenessConfig
from tests.live.oracle import FakeLoop, probe_deadline
from tests.live.test_drain_differential import ScriptedSocket

PEERS = [("127.0.0.1", 9001), ("127.0.0.1", 9002)]
FRAME = encode_preamble(FRAME_DATA, 0, 4) + b"body"

#: A nonce no probe of these scripts carries.
STALE = 0xFFFFFF00


class TimerPerProbe:
    """The reference: every probe has its own deadline; a peer's
    unanswered probes are counted until it is heard from."""

    def __init__(self, config):
        self.config = config
        self.next_nonce = 1
        #: addr -> [deadline, nonce (None: no probe frame), send order]
        self.probes = {}
        self.sends = 0
        #: addr -> probes to it unanswered in a row; absent once heard.
        self.unheard = {}
        self.events = []

    def send(self, addr, now):
        """The nonce of the probe frame this send puts out, or None."""
        if addr in self.probes:
            return None
        nonce = None
        if self.unheard.get(addr, 0) >= 1:
            nonce, self.next_nonce = self.next_nonce, self.next_nonce + 1
        self.unheard.setdefault(addr, 0)
        self.sends += 1
        self.probes[addr] = [now + self.config.ack_timeout_s, nonce, self.sends]
        return nonce

    def hear(self, addr):
        self.unheard.pop(addr, None)

    def ack(self, nonce, addr):
        """True when the ack is stray."""
        for peer, (_deadline, sent, _order) in self.probes.items():
            if sent == nonce and peer != addr:
                return True
        self.hear(addr)
        return False

    def advance(self, now, seconds):
        target = now + seconds
        while True:
            due = sorted(
                (deadline, order, addr)
                for addr, (deadline, _nonce, order) in self.probes.items()
                if deadline <= target
            )
            if not due:
                return
            deadline, _order, addr = due[0]
            _deadline, nonce, _order = self.probes.pop(addr)
            missed = self.unheard.get(addr)
            if missed is None:
                continue
            if nonce is not None and missed + 1 >= 1 + self.config.max_retries:
                del self.unheard[addr]
                self.events.append((deadline, "dead", addr))
            else:
                self.unheard[addr] = missed + 1


steps = st.lists(
    st.one_of(
        st.tuples(st.just("send"), st.integers(0, 1)),
        st.tuples(st.just("wait"), st.sampled_from(
            [0.0, 0.005, 0.02, 0.05, 0.08, 0.15, 0.4]
        )),
        st.tuples(st.just("hear"), st.integers(0, 1)),
        # A probe frame from peer 0 or 1: it answers, and is acked.
        st.tuples(st.just("probe"), st.integers(0, 1),
                  st.integers(0, 0xFFFFFFFF)),
        # An ack from peer 0 or 1 echoing a probe frame in flight (picked
        # by index: possibly the other peer's), or a stale nonce.
        st.tuples(st.just("ack"), st.integers(0, 1), st.integers(0, 2),
                  st.booleans()),
    ),
    max_size=50,
)


def run_script(script, config):
    loop = FakeLoop()
    endpoint = LiveEndpoint("ladder-model", liveness=config)
    endpoint._loop = loop
    sock = endpoint._sock = ScriptedSocket()
    events = []
    endpoint.on_peer_dead = lambda addr: events.append((loop.now, "dead", addr))
    endpoint.on_batch = lambda batch: [view.release() for view, *_ in batch]
    model = TimerPerProbe(config)
    #: peer -> instant of the last probe frame put on the wire.
    probed_at = {}
    #: Datagrams the script's steps must have put on the wire.
    expected_out = 0
    for step in script:
        strays = endpoint.metrics.drops.get("stray_ack", 0)
        before = (dict(endpoint._probes), dict(endpoint._unheard))
        stray = False
        sent_before = len(sock.sent)
        if step[0] == "send":
            addr = PEERS[step[1]]
            endpoint.send(FRAME, addr)
            nonce = model.send(addr, loop.now)
            wire = [(FRAME, addr)]
            if nonce is not None:
                # The probe frame beside the data frame, which goes out
                # as it was handed over.
                wire.insert(0, (encode_probe(nonce), addr))
                last = probed_at.get(addr)
                assert last is None or (
                    loop.now - last >= config.ack_timeout_s - 1e-9
                )
                probed_at[addr] = loop.now
            assert sock.sent[sent_before:] == wire
        elif step[0] == "wait":
            model.advance(loop.now, step[1])
            loop.advance(step[1])
        elif step[0] == "hear":
            sock.queue.append((FRAME, PEERS[step[1]]))
            endpoint._on_readable()
            model.hear(PEERS[step[1]])
        elif step[0] == "probe":
            _kind, peer, nonce = step
            sock.queue.append((encode_probe(nonce), PEERS[peer]))
            endpoint._on_readable()
            model.hear(PEERS[peer])
            assert sock.sent[sent_before:] == [(encode_ack(nonce), PEERS[peer])]
        else:
            _kind, peer, pick, stale = step
            out = [n for n, _sent_at in endpoint._probes.values() if n is not None]
            nonce = out[pick] if pick < len(out) and not stale else STALE
            sock.queue.append((encode_ack(nonce), PEERS[peer]))
            endpoint._on_readable()
            stray = model.ack(nonce, PEERS[peer])
        expected_out += len(sock.sent) - sent_before
        # Dead peers, at the instants a timer per probe gives.
        assert events == model.events
        # At most one probe per peer, the model's ones.
        assert {a: (n, t + config.ack_timeout_s)
                for a, (n, t) in endpoint._probes.items()} == {
            a: (n, d) for a, (d, n, _o) in model.probes.items()
        }
        assert endpoint._unheard == model.unheard
        # A stray ack is counted and changes nothing.
        assert endpoint.metrics.drops.get("stray_ack", 0) == strays + stray
        if stray:
            assert (endpoint._probes, endpoint._unheard) == before
        # One timer, for the oldest probe's deadline, while one is out.
        timer = endpoint._probe_timer
        if endpoint._probes:
            assert timer is not None and not timer.cancelled()
            assert timer.when() == probe_deadline(endpoint)
        else:
            assert timer is None
    # Every datagram was one a step accounts for: its data frame and
    # maybe a probe frame per send, an ack per probe heard; nothing is
    # ever retransmitted.
    assert len(sock.sent) == expected_out
    assert endpoint.metrics.frames_out == sum(s[0] == "send" for s in script)
    assert endpoint.metrics.acks_out == sum(s[0] == "probe" for s in script)
    assert endpoint.metrics.retries == 0
    return events


@settings(max_examples=300, deadline=None)
@given(steps, st.sampled_from([0, 1, 3]))
def test_one_timer_walks_the_timer_per_probe_ladder(script, max_retries):
    run_script(script, LivenessConfig(ack_timeout_s=0.05, max_retries=max_retries))


def test_a_silent_peer_is_declared_dead_after_the_whole_ladder():
    """Sends every 10 ms to a peer that never answers: the first probe is
    the traffic itself, the next three are probe frames, and the verdict
    comes at the fourth deadline — four 50 ms rungs, each opened by the
    send that lands on the last one's deadline; then the ladder starts
    again."""
    config = LivenessConfig(ack_timeout_s=0.05, max_retries=3)
    events = run_script([("send", 0), ("wait", 0.01)] * 60, config)
    assert [(round(at - 1000.0, 9), peer) for at, _kind, peer in events] == [
        (0.2, PEERS[0]), (0.4, PEERS[0]), (0.6, PEERS[0]),
    ]


def test_traffic_back_keeps_a_peer_alive_without_a_single_ack():
    """Request/response traffic: every probe is answered by the reply,
    so no probe frame goes out and the endpoint sends nothing but data
    frames."""
    config = LivenessConfig(ack_timeout_s=0.05, max_retries=0)
    script = [("send", 0), ("wait", 0.02), ("hear", 0), ("wait", 0.02)] * 20
    assert run_script(script, config) == []


def test_with_no_retries_the_verdict_still_waits_for_a_probe_frame():
    """``max_retries=0``: the first probe is the traffic itself, which a
    silent peer cannot be judged on (it may have nothing to send back),
    so the verdict comes one rung later, when the probe frame goes
    unanswered too."""
    config = LivenessConfig(ack_timeout_s=0.05, max_retries=0)
    events = run_script([("send", 0), ("wait", 0.01)] * 30, config)
    assert [(round(at - 1000.0, 9), peer) for at, _kind, peer in events] == [
        (0.1, PEERS[0]), (0.2, PEERS[0]), (0.3, PEERS[0]),
    ]
