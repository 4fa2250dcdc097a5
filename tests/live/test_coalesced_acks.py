"""Per-hop acks: one datagram per peer per wakeup, matched on (peer, seq).

A receiving endpoint acks every numbered probe it drains.  An ack names
its preamble's sequence number plus ``payloadLen / 4`` further ones
(ARCHITECTURE §7).  A lone ack is still the bare 11-byte preamble.  The
probing side honours an ack only when it frames exactly, and one naming
a probe out to another peer answers nothing.
"""

import asyncio
import socket

import pytest

from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    PREAMBLE_BYTES,
    ack_seqs,
    decode_preamble,
    encode_ack,
    encode_preamble,
)
from repro.live.link import LiveEndpoint, LivenessConfig
from repro.viper.errors import ViperDecodeError
from repro.viper.ring import BufferRing

pytestmark = pytest.mark.live


def data_frame(seq: int, body: bytes = b"body") -> bytes:
    """A well-formed zero-segment data frame stamped ``seq``."""
    return encode_preamble(FRAME_DATA, seq, 0, len(body)) + body


class Neighbour:
    """A bare UDP socket standing in for an adjacent node: the test
    writes its datagrams by hand and reads what comes back."""

    def __init__(self):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self.sock.bind(("127.0.0.1", 0))
        self.sock.setblocking(False)
        self.addr = self.sock.getsockname()[:2]

    def send(self, datagram: bytes, addr) -> None:
        self.sock.sendto(datagram, addr)

    def drain(self) -> list:
        received = []
        while True:
            try:
                received.append(self.sock.recv(65536))
            except BlockingIOError:
                return received

    def close(self) -> None:
        self.sock.close()


async def until(condition, timeout_s: float = 2.0) -> None:
    deadline = asyncio.get_running_loop().time() + timeout_s
    while not condition():
        assert asyncio.get_running_loop().time() < deadline, "timed out"
        await asyncio.sleep(0.002)


# -- the codec ------------------------------------------------------------------


def test_a_lone_ack_is_the_bare_preamble_golden_bytes():
    assert encode_ack(0x01020304) == bytes.fromhex("564c0101" "01020304" "00" "0000")
    assert encode_ack(0x01020304) == encode_preamble(FRAME_ACK, 0x01020304, 0, 0)
    assert len(encode_ack(1)) == PREAMBLE_BYTES


def test_further_numbers_follow_the_preamble_golden_bytes():
    ack = encode_ack(7, [8, 0xFFFFFFFF])
    assert ack == bytes.fromhex(
        "564c0101" "00000007" "00" "0008" "00000008" "ffffffff"
    )
    assert ack_seqs(ack, decode_preamble(ack)) == (7, 8, 0xFFFFFFFF)
    full = encode_ack(1, range(2, 33))  # a whole default rx batch
    assert len(full) == 135
    assert ack_seqs(full, decode_preamble(full)) == tuple(range(1, 33))
    with pytest.raises(ValueError):
        encode_ack(1 << 32)
    with pytest.raises(ValueError):
        encode_ack(1, [-1])


#: Acks that must be dropped whole: (name, datagram).
MALFORMED = [
    ("trailing bytes", encode_ack(5) + b"\x00\x00\x00\x06"),
    ("announced numbers missing", encode_preamble(FRAME_ACK, 5, 0, 8) + bytes(4)),
    ("payloadLen not a multiple of 4", encode_preamble(FRAME_ACK, 5, 0, 3) + bytes(3)),
    ("segments on an ack", encode_preamble(FRAME_ACK, 5, 1, 0)),
]


@pytest.mark.parametrize("name,datagram", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_ack_does_not_decode(name, datagram):
    with pytest.raises(ViperDecodeError):
        ack_seqs(datagram, decode_preamble(datagram))


# -- the receiving side of an ack ---------------------------------------------------


async def numbered_probes(endpoint: LiveEndpoint, *peers) -> list:
    """Send to silent ``peers`` until a probe to each carries a number —
    the first after one went unanswered; returns the numbers."""
    for peer in peers:
        endpoint.send(data_frame(0), peer.addr)
    await until(lambda: all(
        endpoint._unheard.get(peer.addr) == 1 for peer in peers
    ))
    seqs = [endpoint.send(data_frame(0), peer.addr) for peer in peers]
    assert all(seqs)
    return seqs


@pytest.mark.parametrize("name,datagram", MALFORMED, ids=[m[0] for m in MALFORMED])
def test_malformed_ack_is_dropped_and_answers_nothing(name, datagram):
    async def scenario():
        endpoint = LiveEndpoint(
            "e", liveness=LivenessConfig(ack_timeout_s=0.02, max_retries=9)
        )
        addr = await endpoint.open()
        peer = Neighbour()
        try:
            (seq,) = await numbered_probes(endpoint, peer)
            # Re-aim the malformed ack at the probe really out.
            aimed = bytearray(datagram)
            aimed[4:8] = seq.to_bytes(4, "big")
            peer.send(bytes(aimed), addr)
            await until(lambda: endpoint.metrics.dropped("undecodable") == 1)
            assert peer.addr in endpoint._unheard
            assert endpoint.metrics.acks_in == 0
            peer.send(encode_ack(seq), addr)
            await until(lambda: peer.addr not in endpoint._unheard)
            assert endpoint.metrics.acks_in == 1
        finally:
            endpoint.close()
            peer.close()

    asyncio.run(scenario())


def test_ack_from_another_peer_does_not_answer_the_probe():
    """Regression: peer A acking a number out to peer B must not count as
    B's answer — nor as A's: it is counted ``stray_ack`` and changes
    nothing.  Each peer's own ack answers its own probe, and nothing is
    ever sent twice."""

    async def scenario():
        router = LiveEndpoint(
            "router",
            liveness=LivenessConfig(ack_timeout_s=0.3, max_retries=9),
        )
        addr = await router.open()
        a, b = Neighbour(), Neighbour()
        try:
            seq_a, seq_b = await numbered_probes(router, a, b)
            unheard = dict(router._unheard)
            assert unheard == {a.addr: 1, b.addr: 1}
            # A acks both numbers in one datagram: neither counts.
            a.send(encode_ack(seq_b, [seq_a]), addr)
            await until(lambda: router.metrics.dropped("stray_ack") == 1)
            assert router._unheard == unheard
            b.send(encode_ack(seq_b), addr)
            await until(lambda: b.addr not in router._unheard)
            assert a.addr in router._unheard
            a.send(encode_ack(seq_a), addr)
            await until(lambda: not router._unheard)
            assert router.metrics.dropped("stray_ack") == 1
            assert router.metrics.retries == 0
            assert a.drain() == [data_frame(0), data_frame(seq_a)]
            assert b.drain() == [data_frame(0), data_frame(seq_b)]
        finally:
            router.close()
            a.close()
            b.close()

    asyncio.run(scenario())


# -- the sending side of an ack -----------------------------------------------------


def test_one_wakeup_that_heard_two_peers_sends_one_ack_to_each():
    async def scenario():
        receiver = LiveEndpoint("r")
        acks_out_when_delivered = []
        delivered = []

        def on_batch(batch):
            acks_out_when_delivered.append(receiver.metrics.acks_out)
            for view, source, preamble in batch:
                delivered.append((source, preamble.seq))
                view.release()

        receiver.on_batch = on_batch
        addr = await receiver.open()
        a, b = Neighbour(), Neighbour()
        try:
            # All six are queued before the loop can wake the receiver.
            for seq in (11, 12, 13):
                a.send(data_frame(seq), addr)
                b.send(data_frame(seq + 100), addr)
            a.send(data_frame(0), addr)  # unreliable: never acked
            await until(lambda: len(delivered) == 7)
            assert receiver.rx_batches == 1
            # Both acks were on the wire before the consumer ran.
            assert acks_out_when_delivered == [2]
            assert receiver.metrics.acks_out == 2
            (ack_a,), (ack_b,) = a.drain(), b.drain()
            assert ack_a == encode_ack(11, [12, 13])
            assert ack_seqs(ack_b, decode_preamble(ack_b)) == (111, 112, 113)
        finally:
            receiver.close()
            a.close()
            b.close()

    asyncio.run(scenario())


def test_an_ack_never_outgrows_a_ring_slot():
    """Slots of 19 bytes hold an ack of 3 numbers: 7 owed numbers go
    out as 3 + 3 + 1, each datagram one the peer's ring could take."""

    async def scenario():
        receiver = LiveEndpoint("r", ring=BufferRing(slots=16, slot_bytes=19))
        addr = await receiver.open()
        peer = Neighbour()
        try:
            for seq in range(1, 8):
                peer.send(data_frame(seq), addr)
            await until(lambda: receiver.metrics.acks_out == 3)
            assert receiver.rx_batches == 1
            acks = peer.drain()
            assert [len(ack) for ack in acks] == [19, 19, 11]
            assert [ack_seqs(ack, decode_preamble(ack)) for ack in acks] == [
                (1, 2, 3), (4, 5, 6), (7,),
            ]
        finally:
            receiver.close()
            peer.close()

    asyncio.run(scenario())


def test_single_numbered_probe_is_acked_with_the_11_byte_frame():
    async def scenario():
        receiver = LiveEndpoint("r")
        addr = await receiver.open()
        peer = Neighbour()
        try:
            peer.send(data_frame(0x0A0B0C0D), addr)
            await until(lambda: receiver.metrics.acks_out == 1)
            assert peer.drain() == [bytes.fromhex("564c0101" "0a0b0c0d" "00" "0000")]
        finally:
            receiver.close()
            peer.close()

    asyncio.run(scenario())
