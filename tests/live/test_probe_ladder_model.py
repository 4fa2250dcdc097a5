"""The probe ladder against a timer per probe, on generated scripts.

``LiveEndpoint`` keeps one probe per peer in a dict in send order under
one loop timer.  The plain design it stands for is a timer per probe:
each probe's deadline fires on its own, due probes in send order.  Both
run here on a virtual clock (``tests/live/oracle.py::FakeLoop`` fires a
handle exactly at its deadline) through generated scripts of sends to
two peers, clock advances, data frames heard from a peer, and acks —
some naming the other peer's probe, some a number nobody has out — fed
through the endpoint's own drain.  After every step they must agree on
every peer declared dead (instant, peer) and on every numbered probe on
the wire, and the ladder's rules must hold:

* at most one probe in flight per peer, numbered ones at least
  ``ack_timeout_s`` apart on the wire;
* ``on_peer_dead`` fires exactly when ``1 + max_retries`` probes to a
  peer in a row went unanswered, the last of them numbered;
* an ack naming another peer's probe counts ``stray_ack`` and changes
  nothing;
* the endpoint's one timer is armed for the oldest probe's deadline
  exactly while a probe is out.
"""

from hypothesis import given, settings, strategies as st

from repro.live.frames import (
    FRAME_DATA,
    SEQ_NONE,
    decode_preamble,
    encode_ack,
    encode_preamble,
)
from repro.live.link import LiveEndpoint, LivenessConfig
from tests.live.oracle import FakeLoop, probe_deadline
from tests.live.test_drain_differential import ScriptedSocket

PEERS = [("127.0.0.1", 9001), ("127.0.0.1", 9002)]
FRAME = encode_preamble(FRAME_DATA, SEQ_NONE, 0, 4) + b"body"


class TimerPerProbe:
    """The reference: every probe has its own deadline; a peer's
    unanswered probes are counted until it is heard from."""

    def __init__(self, config):
        self.config = config
        self.next_seq = 1
        #: addr -> [deadline, seq, send order]
        self.probes = {}
        self.sends = 0
        #: addr -> probes to it unanswered in a row; absent once heard.
        self.unheard = {}
        self.events = []

    def send(self, addr, now):
        if addr in self.probes:
            return SEQ_NONE
        seq = SEQ_NONE
        if self.unheard.get(addr, 0) >= 1:
            seq, self.next_seq = self.next_seq, self.next_seq + 1
        self.unheard.setdefault(addr, 0)
        self.sends += 1
        self.probes[addr] = [now + self.config.ack_timeout_s, seq, self.sends]
        return seq

    def hear(self, addr):
        self.unheard.pop(addr, None)

    def ack(self, numbers, addr):
        """True when the ack is stray."""
        for peer, (_deadline, seq, _order) in self.probes.items():
            if seq and peer != addr and seq in numbers:
                return True
        self.hear(addr)
        return False

    def advance(self, now, seconds):
        target = now + seconds
        while True:
            due = sorted(
                (deadline, order, addr)
                for addr, (deadline, _seq, order) in self.probes.items()
                if deadline <= target
            )
            if not due:
                return
            deadline, _order, addr = due[0]
            _deadline, seq, _order = self.probes.pop(addr)
            missed = self.unheard.get(addr)
            if missed is None:
                continue
            if seq != SEQ_NONE and missed + 1 >= 1 + self.config.max_retries:
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
        # An ack from peer 0 or 1 naming numbered probes in flight (picked
        # by index: possibly the other peer's) and maybe a stale number.
        st.tuples(st.just("ack"), st.integers(0, 1),
                  st.lists(st.integers(0, 3), max_size=3),
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
    #: peer -> instant of the last numbered probe put on the wire.
    numbered_at = {}
    for step in script:
        strays = endpoint.metrics.dropped("stray_ack")
        before = (dict(endpoint._probes), dict(endpoint._unheard))
        stray = False
        if step[0] == "send":
            addr = PEERS[step[1]]
            seq = endpoint.send(FRAME, addr)
            assert seq == model.send(addr, loop.now)
            datagram, to = sock.sent[-1]
            assert to == addr and decode_preamble(datagram).seq == seq
            if seq:
                last = numbered_at.get(addr)
                assert last is None or (
                    loop.now - last >= config.ack_timeout_s - 1e-9
                )
                numbered_at[addr] = loop.now
        elif step[0] == "wait":
            model.advance(loop.now, step[1])
            loop.advance(step[1])
        elif step[0] == "hear":
            sock.queue.append((FRAME, PEERS[step[1]]))
            endpoint._on_readable()
            model.hear(PEERS[step[1]])
        else:
            _kind, peer, picks, stale = step
            out = [seq for seq, _sent_at in endpoint._probes.values() if seq]
            numbers = [out[i] for i in picks if i < len(out)]
            numbers += [0xFFFFFF00] if stale or not numbers else []
            sock.queue.append((encode_ack(numbers[0], numbers[1:]), PEERS[peer]))
            endpoint._on_readable()
            stray = model.ack(numbers, PEERS[peer])
        # Dead peers, at the instants a timer per probe gives.
        assert events == model.events
        # At most one probe per peer, the model's ones.
        assert {a: (s, t + config.ack_timeout_s)
                for a, (s, t) in endpoint._probes.items()} == {
            a: (s, d) for a, (d, s, _o) in model.probes.items()
        }
        assert endpoint._unheard == model.unheard
        # A stray ack is counted and changes nothing.
        assert endpoint.metrics.dropped("stray_ack") == strays + stray
        if stray:
            assert (endpoint._probes, endpoint._unheard) == before
        # One timer, for the oldest probe's deadline, while one is out.
        timer = endpoint._probe_timer
        if endpoint._probes:
            assert timer is not None and not timer.cancelled()
            assert timer.when() == probe_deadline(endpoint)
        else:
            assert timer is None
    # One datagram per send (nothing heard was numbered, so nothing is
    # acked), and nothing is ever retransmitted.
    assert len(sock.sent) == sum(step[0] == "send" for step in script)
    assert endpoint.metrics.retries == 0
    return events


@settings(max_examples=300, deadline=None)
@given(steps, st.sampled_from([0, 1, 3]))
def test_one_timer_walks_the_timer_per_probe_ladder(script, max_retries):
    run_script(script, LivenessConfig(ack_timeout_s=0.05, max_retries=max_retries))


def test_a_silent_peer_is_declared_dead_after_the_whole_ladder():
    """Sends every 10 ms to a peer that never answers: the first probe is
    the traffic itself, the next three are numbered, and the verdict
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
    so no probe is numbered and the endpoint sends nothing but frames."""
    config = LivenessConfig(ack_timeout_s=0.05, max_retries=0)
    script = [("send", 0), ("wait", 0.02), ("hear", 0), ("wait", 0.02)] * 20
    assert run_script(script, config) == []


def test_with_no_retries_the_verdict_still_waits_for_a_numbered_probe():
    """``max_retries=0``: the first probe is the traffic itself, which a
    silent peer cannot be judged on (it may have nothing to send back),
    so the verdict comes one rung later, when the numbered probe goes
    unanswered too."""
    config = LivenessConfig(ack_timeout_s=0.05, max_retries=0)
    events = run_script([("send", 0), ("wait", 0.01)] * 30, config)
    assert [(round(at - 1000.0, 9), peer) for at, _kind, peer in events] == [
        (0.1, PEERS[0]), (0.2, PEERS[0]), (0.3, PEERS[0]),
    ]
