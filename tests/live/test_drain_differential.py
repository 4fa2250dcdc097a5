"""The endpoint's rx drain against the reference drain, wakeup by wakeup.

``LiveEndpoint._on_readable`` runs once per loop wakeup on every live
node; ``tests/live/oracle.py::drain_reference`` is the same wakeup done
the plain way.  Two socket-free endpoints — a scripted object stands in
for the UDP socket and hands out the datagrams of a generated script —
take identical steps, one drained by its own method and one by the
reference, and must agree after every step on everything an observer can
see: the batches handed to the consumer (bytes, source, ``Preamble``),
every datagram sent (probes, acks and forwards: bytes, address, order),
every counter and drop reason, the probe ladder (probes out, peers
unheard), the wakeup accounting, and the ring's books.  The endpoint
decodes a preamble exactly once per datagram that is not an untraced
data frame repeating its own peer's last data preamble bytes
(:func:`expected_decodes`); the reference decodes every one.  Both sides run
on a virtual clock (``oracle.FakeLoop``), so a script's waits let
probes go unanswered and later sends put probe frames on the wire.

Ring conservation is stated so that it holds whoever drains: slots
acquired and not yet released are exactly those a batch consumer still
holds and the (at most one) receive slot the endpoint itself keeps
between wakeups.
"""

import dataclasses
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.live import link
from repro.live.frames import (
    FLAG_TRACED,
    FRAME_ACK,
    FRAME_DATA,
    FRAME_PROBE,
    PREAMBLE_BYTES,
    decode_preamble,
    encode_ack,
    encode_preamble,
    encode_probe,
)
from repro.live.link import LiveEndpoint, LivenessConfig
from repro.viper.errors import ViperDecodeError
from repro.viper.ring import BufferRing
from repro.viper.wire import MAX_SEGMENTS
from tests.live.oracle import (
    alive,
    INTERRUPTED,
    SOCKET_ERROR,
    FakeLoop,
    ScriptedSocket,
    drain_reference,
    probe_deadline,
    slot_view,
)

PEERS = [("127.0.0.1", 9001), ("127.0.0.1", 9002), ("127.0.0.1", 9003)]


class LoggingSocket(ScriptedSocket):
    """The scripted socket, keeping every datagram that fit a slot and
    its source, in the order it was handed out."""

    def __init__(self):
        super().__init__()
        self.fitted = []

    def recvmsg_into(self, buffers):
        nbytes, anc, flags, addr = super().recvmsg_into(buffers)
        if not flags:
            self.fitted.append((bytes(buffers[0][:nbytes]), addr))
        return nbytes, anc, flags, addr


def expected_decodes(arrivals, bound=None):
    """Preamble decodes a drain owes ``arrivals`` (``(datagram, source)``
    that fit a slot, in order): one for each, except an untraced data
    frame whose first 7 bytes are those of the last untraced data frame
    decoded from its own source — of at most ``bound`` sources, the one
    remembered first forgotten when another comes."""
    bound = link.PREAMBLE_MEMO_PEERS if bound is None else bound
    memo = {}
    decodes = 0
    for datagram, source in arrivals:
        head = datagram[:PREAMBLE_BYTES]
        if len(head) == PREAMBLE_BYTES and memo.get(source) == head:
            continue
        decodes += 1
        try:
            preamble = decode_preamble(datagram)
        except ViperDecodeError:
            continue
        if preamble.kind == FRAME_DATA and not preamble.trace_id:
            if source not in memo and len(memo) >= bound:
                del memo[next(iter(memo))]
            memo[source] = head
    return decodes


class Side:
    """One endpoint under the script, drained by ``drain``."""

    def __init__(self, drain, config):
        self.config = config
        self.loop = FakeLoop()
        endpoint = self.endpoint = LiveEndpoint(
            "under-test",
            liveness=LivenessConfig(ack_timeout_s=0.05, max_retries=1),
            ring=BufferRing(
                slots=config["slots"], slot_bytes=config["slot_bytes"]
            ),
            rx_batch=config["rx_batch"],
        )
        self.sock = LoggingSocket()
        endpoint._sock = self.sock
        endpoint._loop = self.loop
        self.drain = drain
        #: Every batch delivered: [(bytes, source, Preamble), ...].
        self.batches = []
        #: Views a holding consumer still owns.
        self.held = []
        #: Peers declared dead, in order.
        self.dead = []
        endpoint.on_peer_dead = self.dead.append
        consumer = config["consumer"]
        if consumer != "none":
            endpoint.on_batch = getattr(self, "_" + consumer)

    # -- consumers -------------------------------------------------------

    def _record(self, batch):
        self.batches.append([
            (view.tobytes(), source, preamble)
            for view, source, preamble in batch
        ])

    def _release(self, batch):
        self._record(batch)
        for view, _source, _preamble in batch:
            view.release()

    def _hold(self, batch):
        self._record(batch)
        self.held.extend(view for view, _source, _preamble in batch)

    def _forward(self, batch):
        """What a router does with a frame: on to the next peer."""
        self._record(batch)
        for view, source, _preamble in batch:
            onward = PEERS[(PEERS.index(source) + 1) % self.config["peers"]]
            self.endpoint.send_view(view, onward)

    # -- steps -----------------------------------------------------------

    def send(self, peer, via_view, body):
        frame = data_frame(body)
        if via_view:
            view = slot_view(self.endpoint.ring, frame)
            self.endpoint.send_view(view, PEERS[peer])
        else:
            self.endpoint.send(frame, PEERS[peer])

    def wait(self, seconds):
        self.loop.advance(seconds)

    def wakeup(self, arrivals):
        self.sock.queue.extend(arrivals)
        self.drain(self.endpoint)

    def finish(self):
        for view in self.held:
            view.release()
        self.held = []
        self.endpoint.close()

    # -- what an observer can see ------------------------------------------

    def observed(self):
        endpoint = self.endpoint
        return {
            "batches": self.batches,
            "sent": self.sock.sent,
            "metrics": dataclasses.asdict(endpoint.metrics),
            "probes": list(endpoint._probes.items()),
            "unheard": dict(endpoint._unheard),
            "dead": self.dead,
            "held_alive": [alive(view) for view in self.held],
            "rx_batches": endpoint.rx_batches,
            "rx_datagrams": endpoint.rx_datagrams,
            "left_in_socket": len(self.sock.queue),
        }

    def check_books(self):
        """Ring conservation and the one-timer invariant."""
        endpoint = self.endpoint
        stats = endpoint.ring.stats
        # getattr: the reference's side of the rule holds at a commit
        # whose endpoint keeps no receive slot at all.
        rx_slot = getattr(endpoint, "_rx_slot", None)
        assert stats.acquires - stats.releases == (
            len(self.held) + (rx_slot is not None)
        )
        assert all(alive(view) for view in self.held)
        assert rx_slot is None or not rx_slot.free
        # The one timer is armed for the oldest probe's deadline exactly
        # while a probe is out.
        timer = endpoint._probe_timer
        if endpoint._probes:
            assert not timer.cancelled()
            assert timer.when() == probe_deadline(endpoint)
        else:
            assert timer is None


def run_case(config, steps):
    """Both sides through ``steps``; equal after each, books balanced.
    Returns the subject's side, its preamble decodes in ``decodes``."""
    decodes = []

    def counting_decode(datagram):
        decodes.append(1)
        return decode_preamble(datagram)

    subject = Side(LiveEndpoint._on_readable, config)
    reference = Side(drain_reference, config)
    try:
        # The reference decodes through its own import: only the
        # endpoint's calls are counted.
        with mock.patch.object(link, "decode_preamble", counting_decode):
            steps = list(steps)
            while True:
                # What a burst longer than ``rx_batch`` leaves in the
                # socket is drained by wakeups of its own; every script
                # ends on a wakeup that finds nothing.
                last = not steps and not subject.sock.queue
                step = steps.pop(0) if steps else ("wakeup", [])
                for side in (subject, reference):
                    if step[0] == "send":
                        side.send(*step[1:])
                    elif step[0] == "wait":
                        side.wait(step[1])
                    else:
                        side.wakeup(step[1])
                    side.check_books()
                assert subject.observed() == reference.observed()
                if last:
                    break
        # One preamble decode per datagram that fit a slot, but for an
        # untraced data frame repeating its peer's last data preamble.
        fitted = subject.sock.fitted
        assert len(fitted) == subject.sock.handed_out - subject.sock.truncated
        assert len(decodes) == expected_decodes(fitted)
        subject.decodes = len(decodes)
    finally:
        subject.finish()
        reference.finish()
    for side in (subject, reference):
        stats = side.endpoint.ring.stats
        assert stats.acquires == stats.releases
        assert getattr(side.endpoint, "_rx_slot", None) is None
    return subject


# -- the generated script -----------------------------------------------------


def data_frame(body=b"body", seg_count=0, trace_id=0):
    return encode_preamble(FRAME_DATA, seg_count, len(body), trace_id) + body


def preamble_bytes(magic=b"VL", version=2, kind=FRAME_DATA, seg_count=0,
                   payload_len=0):
    """A 7-byte preamble with any field out of range."""
    return (
        magic + bytes((version, kind, seg_count))
        + payload_len.to_bytes(2, "big")
    )


def version_1(kind=FRAME_DATA, seq=0, seg_count=0, body=b""):
    """A datagram of the retired wire: an 11-byte preamble carrying a
    32-bit hop sequence number between kind and segCount."""
    return (
        b"VL" + bytes((1, kind)) + seq.to_bytes(4, "big")
        + bytes((seg_count,)) + len(body).to_bytes(2, "big") + body
    )


#: Small nonces collide: duplicates, acks that echo a probe out (the
#: endpoint's own nonces start at 1) and acks that echo none.
nonces = st.one_of(st.integers(0, 12), st.integers(0, 0xFFFFFFFF))

data_frames = st.builds(
    data_frame,
    body=st.binary(max_size=24),
    seg_count=st.integers(0, 3),
    trace_id=st.one_of(st.just(0), st.integers(1, (1 << 64) - 1)),
)

probes = st.builds(encode_probe, nonces)

acks = st.builds(encode_ack, nonces)

control_kinds = st.sampled_from([FRAME_ACK, FRAME_PROBE])

malformed = st.one_of(
    st.binary(max_size=30),
    st.binary(max_size=6),                           # shorter than a preamble
    st.builds(preamble_bytes, magic=st.sampled_from([b"VX", b"LV", b"\0\0"])),
    st.builds(preamble_bytes, version=st.sampled_from([0, 1, 3, 255])),
    st.builds(preamble_bytes, kind=st.sampled_from([3, 0x7F, 0x83])),
    st.builds(preamble_bytes, seg_count=st.integers(MAX_SEGMENTS + 1, 255)),
    # The retired 11-byte wire, whatever it carries.
    st.builds(
        version_1, kind=st.sampled_from([FRAME_DATA, FRAME_ACK]),
        seq=nonces, seg_count=st.integers(0, 3), body=st.binary(max_size=12),
    ),
    # The traced option belongs to data frames.
    st.builds(
        lambda kind, nonce: preamble_bytes(kind=kind | FLAG_TRACED)
        + nonce.to_bytes(8, "big"),
        control_kinds, st.integers(1, (1 << 64) - 1),
    ),
    # Traced data frames without (all of) a trace id.
    st.builds(
        lambda tail: preamble_bytes(kind=FRAME_DATA | FLAG_TRACED) + tail,
        st.sampled_from([b"", bytes(3), bytes(8)]),
    ),
    # Probes and acks that do not frame exactly.
    st.builds(
        lambda kind, nonce, extra: encode_preamble(kind, 0, 4)
        + nonce.to_bytes(4, "big") + extra,
        control_kinds, nonces, st.binary(min_size=1, max_size=4),
    ),
    st.builds(
        lambda kind, nonce, cut: (encode_preamble(kind, 0, 4)
                                  + nonce.to_bytes(4, "big"))[:-cut],
        control_kinds, nonces, st.integers(1, 4),
    ),
    st.builds(
        lambda kind, length, nonce: preamble_bytes(kind=kind, payload_len=length)
        + nonce.to_bytes(4, "big"),
        control_kinds, st.sampled_from([0, 3, 5, 8]), nonces,
    ),
    st.builds(
        lambda kind, segs, nonce: preamble_bytes(
            kind=kind, seg_count=segs, payload_len=4,
        ) + nonce.to_bytes(4, "big"),
        control_kinds, st.integers(1, 3), nonces,
    ),
)


@st.composite
def cases(draw):
    config = {
        "peers": draw(st.integers(1, 3)),
        "rx_batch": draw(st.sampled_from([1, 3, 32])),
        # 15 bytes hold a probe, an ack and the longest frame a send
        # step makes, little else; 40 make most data frames oversize;
        # 4096 is the default.
        "slot_bytes": draw(st.sampled_from([15, 40, 4096])),
        "slots": draw(st.sampled_from([2, 8])),
        "consumer": draw(st.sampled_from(["none", "release", "hold", "forward"])),
    }
    peer = st.integers(0, config["peers"] - 1)
    oversize = st.builds(
        lambda extra: data_frame(bytes(config["slot_bytes"] + extra)),
        st.integers(0, 3),
    )
    datagram = st.one_of(
        data_frames, data_frames, data_frames, probes, acks, acks, malformed,
        oversize,
    )
    arrival = st.one_of(
        st.tuples(datagram, peer.map(PEERS.__getitem__)),
        st.tuples(datagram, peer.map(PEERS.__getitem__)),
        st.tuples(datagram, peer.map(PEERS.__getitem__)),
        st.tuples(datagram, peer.map(PEERS.__getitem__)),
        st.sampled_from([SOCKET_ERROR, INTERRUPTED]),
    )
    step = st.one_of(
        st.tuples(st.just("wakeup"), st.lists(arrival, max_size=8)),
        st.tuples(st.just("wakeup"), st.lists(arrival, max_size=8)),
        st.tuples(st.just("send"), peer, st.booleans(), st.binary(max_size=8)),
        st.tuples(st.just("wait"), st.sampled_from([0.01, 0.05, 0.12])),
    )
    return config, draw(st.lists(step, min_size=1, max_size=10))


@settings(max_examples=600, deadline=None)
@given(cases())
def test_drain_equals_reference_on_generated_wakeups(case):
    config, steps = case
    run_case(config, steps)


# -- named scripts: each arm at least once, whatever the generator draws ------------

A, B, C = PEERS
DEFAULTS = {
    "peers": 3, "rx_batch": 32, "slot_bytes": 4096, "slots": 8,
    "consumer": "release",
}


def scripted(**overrides):
    return dict(DEFAULTS, **overrides)


NAMED = {
    "one probe, one ack echoing its nonce": (
        scripted(), [("wakeup", [(encode_probe(7), A)])],
    ),
    "one peer, several probes, duplicates acked again": (
        scripted(),
        [("wakeup", [(encode_probe(n), A) for n in (1, 2, 2, 3, 1)]),
         ("wakeup", [(encode_probe(2), A)])],
    ),
    "three peers interleaved, data frames between": (
        scripted(),
        [("wakeup", [
            (encode_probe(1), A), (data_frame(), B), (encode_probe(1), B),
            (encode_probe(2), A), (encode_probe(9), C), (encode_probe(2), B),
            (data_frame(), A),
        ])],
    ),
    "probes and acks fit an 11-byte slot; a data frame does not": (
        scripted(slot_bytes=11, slots=16),
        [("wakeup", [(encode_probe(n), A) for n in range(1, 4)]
          + [(data_frame(b""), B), (encode_ack(5), B),
             (data_frame(b"body!"), A)])],
    ),
    "version-1 frames are undecodable and release nothing": (
        scripted(consumer="hold"),
        [("send", 0, False, b"a"), ("wait", 0.06), ("send", 0, False, b"b"),
         ("wakeup", [
             (version_1(), A),
             (version_1(FRAME_DATA, 7, 1, bytes(4) + b"body"), A),
             (version_1(FRAME_ACK, 1), A),
             (data_frame(), B),
             (version_1(FRAME_DATA, 0, 0, b"\x00\x04" + b"body"), B),
         ])],
    ),
    "probes and acks that do not frame exactly are dropped": (
        scripted(),
        [("send", 0, True, b"a"), ("wait", 0.06), ("send", 0, True, b"b"),
         ("wakeup", [
             (encode_probe(4) + b"\x00", A),
             (encode_ack(1)[:-1], A),
             (preamble_bytes(kind=FRAME_PROBE, payload_len=8) + bytes(8), A),
             (preamble_bytes(kind=FRAME_ACK, seg_count=1, payload_len=4)
              + (1).to_bytes(4, "big"), A),
             (encode_probe(5), B),
         ])],
    ),
    "duplicates are delivered: the transport drops them": (
        scripted(),
        [("wakeup", [(data_frame(b), A) for b in (b"1", b"2", b"3", b"1", b"3")])],
    ),
    "burst longer than rx_batch spills into the next wakeups": (
        scripted(rx_batch=3),
        [("wakeup", [
            (encode_probe(n) if n % 3 else data_frame(), PEERS[n % 2])
            for n in range(1, 11)
        ])],
    ),
    "acks: lone, stray, unknown, between data": (
        scripted(consumer="hold"),
        # Three silent peers: their second sends put probes 1-3 out.
        [("send", 0, True, b"a"), ("send", 1, False, b"b"),
         ("send", 2, True, b"c"), ("wait", 0.06),
         ("send", 0, True, b"d"), ("send", 1, False, b"e"),
         ("send", 2, True, b"f"),
         ("wakeup", [
             (encode_ack(2), A),            # B's probe acked by A: stray
             (data_frame(b"5"), A),
             (encode_ack(1), A),            # A's own
             (encode_ack(77), A),           # a nonce nobody has out
             (encode_ack(3), C),
             (data_frame(b"6"), A),
             (encode_ack(2), B),
         ])],
    ),
    "a silent peer's ladder ends in a verdict": (
        scripted(peers=2),
        [("send", 0, True, b"a"), ("wait", 0.05), ("send", 0, False, b"b"),
         ("send", 1, True, b"c"),
         ("wakeup", [(encode_ack(1), B)]),      # B echoes A's probe: stray
         ("wait", 0.05)],
    ),
    "a probe from a silent peer answers the probe out to it": (
        scripted(peers=2),
        [("send", 0, True, b"a"), ("wait", 0.05), ("send", 0, False, b"b"),
         ("wakeup", [(encode_probe(1), A)]),
         ("wait", 0.05)],
    ),
    "socket error ends the drain, the rest waits": (
        scripted(),
        [("wakeup", [(encode_probe(1), A), SOCKET_ERROR, (encode_probe(2), A)])],
    ),
    "interrupted receive ends the drain like an empty socket": (
        scripted(),
        [("wakeup", [(data_frame(), A), INTERRUPTED, (encode_probe(2), B)])],
    ),
    "oversize and undecodable between frames, nothing acked for them": (
        scripted(slot_bytes=40),
        [("wakeup", [
            (data_frame(bytes(40)), A), (b"noise", A), (encode_probe(2), A),
            (preamble_bytes(kind=FRAME_PROBE | FLAG_TRACED) + bytes(8), A),
            (encode_probe(3) + bytes(29), B), (b"", B), (encode_probe(3), B),
        ])],
    ),
    "no consumer: the endpoint releases the batch itself": (
        scripted(consumer="none"),
        [("wakeup", [(data_frame(), A), (data_frame(), B)])],
    ),
    "a forwarding consumer's sends give their slots back": (
        scripted(consumer="forward", peers=2, slots=2),
        [("wakeup", [(data_frame(b"10"), A), (data_frame(), A),
                     (encode_probe(11), A)]),
         ("wait", 0.06),
         ("wakeup", [(data_frame(), A), (encode_ack(2), A)]),
         ("wakeup", [(encode_ack(1), B), (data_frame(b"12", trace_id=99), B)])],
    ),
    "a wakeup with nothing to read": (scripted(), [("wakeup", [])]),
}


@pytest.mark.parametrize("name", NAMED)
def test_drain_equals_reference_on_named_script(name):
    config, steps = NAMED[name]
    run_case(config, steps)


def test_the_named_scripts_reach_what_they_name():
    """The harness itself: the scripted socket truncates, spills and
    raises the way the scripts assume."""
    side = run_case(*NAMED["burst longer than rx_batch spills into the next wakeups"])
    assert side.endpoint.rx_batches == 3
    assert [len(batch) for batch in side.batches] == [1, 1, 1]
    assert side.endpoint.metrics.acks_out == 7
    side = run_case(*NAMED["oversize and undecodable between frames, nothing acked for them"])
    assert side.endpoint.metrics.drops == {"oversize": 1, "undecodable": 4}
    assert [ack for ack, _addr in side.sock.sent] == [encode_ack(2), encode_ack(3)]
    side = run_case(*NAMED["socket error ends the drain, the rest waits"])
    assert side.endpoint.metrics.drops == {"socket_error": 1}
    assert [ack for ack, _addr in side.sock.sent] == [encode_ack(1), encode_ack(2)]
    side = run_case(*NAMED["acks: lone, stray, unknown, between data"])
    assert side.endpoint.metrics.drops == {"stray_ack": 1}
    assert side.endpoint.metrics.acks_in == 5
    assert side.endpoint.metrics.acks_out == 0
    # Three probe frames went out beside the second three data frames.
    assert [frame for frame, _addr in side.sock.sent[3:]] == [
        encode_probe(1), data_frame(b"d"), encode_probe(2), data_frame(b"e"),
        encode_probe(3), data_frame(b"f"),
    ]
    side = run_case(*NAMED["a silent peer's ladder ends in a verdict"])
    assert side.dead == [A]
    assert side.endpoint.metrics.drops == {"stray_ack": 1, "peer_dead": 1}
    side = run_case(*NAMED["a probe from a silent peer answers the probe out to it"])
    assert side.dead == []
    assert side.sock.sent[-1] == (encode_ack(1), A)
    side = run_case(*NAMED["probes and acks fit an 11-byte slot; a data frame does not"])
    assert side.endpoint.metrics.drops == {"oversize": 1}
    assert side.endpoint.metrics.acks_out == 3
    assert side.batches == [[(data_frame(b""), B, decode_preamble(data_frame(b"")))]]
    side = run_case(*NAMED["version-1 frames are undecodable and release nothing"])
    assert side.endpoint.metrics.drops == {"undecodable": 4}
    assert side.batches == [[(data_frame(), B, decode_preamble(data_frame()))]]
    assert side.endpoint.metrics.acks_out == side.endpoint.metrics.acks_in == 0
    side = run_case(*NAMED["probes and acks that do not frame exactly are dropped"])
    assert side.endpoint.metrics.drops == {"undecodable": 4}
    assert side.endpoint.metrics.acks_in == 0
    assert side.sock.sent[-1] == (encode_ack(5), B)


# -- the per-peer preamble memo: what is decoded, directed -------------------------


def decodes_of(steps, **overrides):
    """The subject's preamble decodes over ``steps`` (each checked against
    the reference and :func:`expected_decodes` by :func:`run_case`)."""
    return run_case(scripted(**overrides), steps).decodes


FRAME = data_frame(b"body")


@pytest.mark.parametrize("index", range(PREAMBLE_BYTES))
def test_a_datagram_differing_from_its_peers_memo_in_any_byte_is_decoded(index):
    changed = bytearray(FRAME)
    changed[index] ^= 0x01
    assert decodes_of([("wakeup", [(FRAME, A), (bytes(changed), A)])]) == 2
    # The memo still answers for the frame itself, unless the changed
    # one was a data frame of its own and took its place.
    try:
        replaced = decode_preamble(bytes(changed)).kind == FRAME_DATA
    except ViperDecodeError:
        replaced = False
    steps = [("wakeup", [(FRAME, A), (bytes(changed), A), (FRAME, A)])]
    assert decodes_of(steps) == 2 + replaced


def test_the_same_bytes_from_another_peer_are_decoded_once_for_that_peer():
    steps = [("wakeup", [(FRAME, A), (FRAME, B), (FRAME, B), (FRAME, A)]),
             ("wakeup", [(FRAME, C), (FRAME, A), (FRAME, B), (FRAME, C)])]
    assert decodes_of(steps) == 3


def test_traced_frames_probes_and_acks_are_decoded_every_time():
    traced = data_frame(b"body", trace_id=77)
    assert decodes_of([("wakeup", [(traced, A)] * 3)]) == 3
    assert decodes_of([("wakeup", [(encode_probe(5), A)] * 3)]) == 3
    assert decodes_of([("wakeup", [(encode_ack(5), A)] * 3)]) == 3
    # None of them takes the place of the peer's data preamble.
    between = [traced, encode_probe(6), encode_ack(6)]
    steps = [("wakeup", [(FRAME, A)] + [(d, A) for d in between] + [(FRAME, A)])]
    assert decodes_of(steps) == 4


@pytest.mark.parametrize("length", range(PREAMBLE_BYTES))
def test_a_prefix_of_the_memo_shorter_than_a_preamble_is_undecodable(length):
    """The short datagram lands in a slot that still holds the memoised
    frame's bytes: only a compare bounded by the datagram's length
    tells it from that frame."""
    other = data_frame(b"other!")
    side = run_case(scripted(slots=2), [
        ("wakeup", [(FRAME, A)]),   # into slot 1; slot 2 receives next
        ("wakeup", [(other, B)]),   # into slot 2; slot 1 receives next
        ("wakeup", [(FRAME[:length], A)]),
    ])
    assert side.endpoint.metrics.drops == {"undecodable": 1}
    assert [[frame for frame, _s, _p in batch] for batch in side.batches] == [
        [FRAME], [other],
    ]
    assert side.decodes == 3


def test_the_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(link, "PREAMBLE_MEMO_PEERS", 2)
    side = run_case(scripted(), [
        ("wakeup", [(FRAME, A), (FRAME, B), (FRAME, C)]),  # A forgotten
        ("wakeup", [(FRAME, C), (FRAME, A), (FRAME, A)]),  # B forgotten
        ("wakeup", [(FRAME, B)]),
    ])
    assert side.decodes == 5
    assert len(side.endpoint._preambles) <= 2


def test_close_forgets_the_memo():
    side = Side(LiveEndpoint._on_readable, scripted())
    endpoint = side.endpoint
    side.wakeup([(FRAME, A), (data_frame(b"x", trace_id=3), B)])
    assert list(endpoint._preambles) == [A]
    assert endpoint._preambles[A] == (FRAME[:PREAMBLE_BYTES], decode_preamble(FRAME))
    side.finish()
    assert endpoint._preambles == {}
