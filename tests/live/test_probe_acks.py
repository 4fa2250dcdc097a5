"""Probe and ack frames over real sockets: one ack per probe, matched on
(peer, nonce).

A probe frame is the preamble, no segments and one 32-bit nonce; the
receiving endpoint answers each one from its drain, inline, with one
ack echoing the nonce — both exactly 11 bytes (ARCHITECTURE §7).  Either
is honoured only when it frames exactly, and an ack echoing a probe out
to another peer answers nothing.
"""

import asyncio
import socket

import pytest

from repro.live.frames import (
    FRAME_ACK,
    FRAME_DATA,
    FRAME_PROBE,
    control_nonce,
    decode_preamble,
    encode_ack,
    encode_preamble,
    encode_probe,
)
from repro.live.link import LiveEndpoint, LivenessConfig
from repro.viper.errors import ViperDecodeError

pytestmark = pytest.mark.live


def data_frame(body: bytes = b"body") -> bytes:
    """A well-formed zero-segment data frame."""
    return encode_preamble(FRAME_DATA, 0, len(body)) + body


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


def _control(kind, nonce, seg_count=0, payload_len=4, extra=b""):
    return (
        encode_preamble(kind, seg_count, payload_len)
        + nonce.to_bytes(4, "big") + extra
    )


#: Control-frame framings that must be dropped whole: (name, builder).
MALFORMED = [
    ("trailing bytes", lambda kind, n: _control(kind, n, extra=b"\x00")),
    ("nonce cut short", lambda kind, n: _control(kind, n)[:-1]),
    ("payloadLen not 4", lambda kind, n: _control(kind, n, payload_len=8)
     + bytes(4)),
    ("segments on a control frame", lambda kind, n: _control(
        kind, n, seg_count=1)),
]
KINDS = {"probe": FRAME_PROBE, "ack": FRAME_ACK}
CASES = [(kind, name) for kind in KINDS for name, _build in MALFORMED]


def malformed(kind, name, nonce):
    return dict(MALFORMED)[name](KINDS[kind], nonce)


@pytest.mark.parametrize("kind,name", CASES)
def test_malformed_control_frame_does_not_decode(kind, name):
    datagram = malformed(kind, name, 5)
    with pytest.raises(ViperDecodeError):
        control_nonce(datagram, decode_preamble(datagram))


# -- the probing side -----------------------------------------------------------


async def probe_frames(endpoint: LiveEndpoint, *peers) -> list:
    """Send to silent ``peers`` until a probe frame is out to each — the
    send after one probe went unanswered; returns their nonces."""
    for peer in peers:
        endpoint.send(data_frame(), peer.addr)
    await until(lambda: all(
        endpoint._unheard.get(peer.addr) == 1 for peer in peers
    ))
    for peer in peers:
        endpoint.send(data_frame(), peer.addr)
    nonces = [endpoint._probes[peer.addr][0] for peer in peers]
    assert None not in nonces
    return nonces


@pytest.mark.parametrize("kind,name", CASES)
def test_malformed_control_frame_is_dropped_and_answers_nothing(kind, name):
    """Neither a malformed ack echoing the probe out nor a malformed
    probe from the peer answers the probe; neither is acked."""

    async def scenario():
        endpoint = LiveEndpoint(
            "e", liveness=LivenessConfig(ack_timeout_s=0.02, max_retries=9)
        )
        addr = await endpoint.open()
        peer = Neighbour()
        try:
            (nonce,) = await probe_frames(endpoint, peer)
            peer.send(malformed(kind, name, nonce), addr)
            await until(lambda: endpoint.metrics.drops.get("undecodable", 0) == 1)
            assert peer.addr in endpoint._unheard
            assert endpoint.metrics.acks_in == endpoint.metrics.acks_out == 0
            peer.send(encode_ack(nonce), addr)
            await until(lambda: peer.addr not in endpoint._unheard)
            assert endpoint.metrics.acks_in == 1
            assert encode_ack(nonce) not in peer.drain()
        finally:
            endpoint.close()
            peer.close()

    asyncio.run(scenario())


def test_ack_from_another_peer_does_not_answer_the_probe():
    """Regression: peer A acking the nonce out to peer B must not count
    as B's answer — nor as A's: it is counted ``stray_ack`` and changes
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
            nonce_a, nonce_b = await probe_frames(router, a, b)
            unheard = dict(router._unheard)
            assert unheard == {a.addr: 1, b.addr: 1}
            a.send(encode_ack(nonce_b), addr)
            await until(lambda: router.metrics.drops.get("stray_ack", 0) == 1)
            assert router._unheard == unheard
            b.send(encode_ack(nonce_b), addr)
            await until(lambda: b.addr not in router._unheard)
            assert a.addr in router._unheard
            a.send(encode_ack(nonce_a), addr)
            await until(lambda: not router._unheard)
            assert router.metrics.drops.get("stray_ack", 0) == 1
            assert router.metrics.retries == 0
            assert a.drain() == [data_frame(), encode_probe(nonce_a), data_frame()]
            assert b.drain() == [data_frame(), encode_probe(nonce_b), data_frame()]
        finally:
            router.close()
            a.close()
            b.close()

    asyncio.run(scenario())


# -- the answering side ---------------------------------------------------------


def test_each_probe_is_acked_inline_before_the_consumer_runs():
    """One wakeup drains probes from two peers between data frames: each
    probe is acked with its own nonce before the batch — data frames
    only — reaches the consumer."""

    async def scenario():
        receiver = LiveEndpoint("r")
        acks_out_when_delivered = []
        delivered = []

        def on_batch(batch):
            acks_out_when_delivered.append(receiver.metrics.acks_out)
            for view, source, preamble in batch:
                delivered.append((source, preamble.kind))
                view.release()

        receiver.on_batch = on_batch
        addr = await receiver.open()
        a, b = Neighbour(), Neighbour()
        try:
            # All six are queued before the loop can wake the receiver.
            for nonce in (11, 12):
                a.send(encode_probe(nonce), addr)
                b.send(encode_probe(nonce + 100), addr)
            a.send(data_frame(), addr)
            b.send(data_frame(), addr)
            await until(lambda: len(delivered) == 2)
            assert receiver.rx_batches == 1
            assert acks_out_when_delivered == [4]
            assert {kind for _source, kind in delivered} == {FRAME_DATA}
            assert a.drain() == [encode_ack(11), encode_ack(12)]
            assert b.drain() == [encode_ack(111), encode_ack(112)]
            ring = receiver.ring
            assert ring.stats.acquires - ring.stats.releases == 1
        finally:
            receiver.close()
            a.close()
            b.close()

    asyncio.run(scenario())


def test_a_probe_is_acked_with_the_11_byte_frame():
    async def scenario():
        receiver = LiveEndpoint("r")
        addr = await receiver.open()
        peer = Neighbour()
        try:
            peer.send(encode_probe(0x0A0B0C0D), addr)
            await until(lambda: receiver.metrics.acks_out == 1)
            assert peer.drain() == [
                bytes.fromhex("564c0201" "00" "0004" "0a0b0c0d")
            ]
            assert receiver.rx_batches == 0
        finally:
            receiver.close()
            peer.close()

    asyncio.run(scenario())
