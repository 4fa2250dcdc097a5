"""§4.1 and §4.2 on the live overlay: the machine's checks, over sockets.

Each test rewrites the first PDU of one kind on its way out of a host,
then checks that the receiving transactor counted and dropped it, and
that the transaction still completed — once — after the client
retransmitted.
"""

import asyncio

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import LiveOverlay, LiveTransactor, WallClock
from repro.live.host import LIVE_TRANSPORT, encode_pdu
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.transport.machine import PduKind
from repro.transport.rebind import RouteManager
from tests.live.oracle import decode_pdu

pytestmark = pytest.mark.live


def _line_topology():
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    topo.connect(client, r1)
    topo.connect(r1, server)
    return topo


def _rewrite_first(host, kind, rewrite):
    """Pass the first ``kind`` PDU ``host`` sends through ``rewrite``."""
    send = host.send
    pending = [True]

    def rewriting_send(route, payload, **kwargs):
        if pending and decode_pdu(payload).kind is kind:
            pending.clear()
            payload = rewrite(payload)
        return send(route, payload, **kwargs)

    host.send = rewriting_send


def _resealed(change):
    """A rewrite that applies ``change`` to the PDU and seals it afresh."""

    def rewrite(payload):
        pdu = decode_pdu(payload)
        change(pdu)
        return encode_pdu(pdu, pdu.user_data)

    return rewrite


async def _transact(side, kind, rewrite):
    overlay = LiveOverlay(_line_topology())
    await overlay.start()
    try:
        served = []
        server_tx = LiveTransactor(overlay.hosts["server"])
        server_tx.serve(lambda request: served.append(request) or b"echo:" + request)
        client_tx = LiveTransactor(overlay.hosts["client"])
        _rewrite_first(overlay.hosts[side], kind, rewrite)
        routes = overlay.routes(
            "client", "server", k=1, dest_socket=client_tx.config.socket,
        )
        # The client names the server's entity; the other live tests
        # send the wildcard.
        result = await client_tx.transact(
            RouteManager(WallClock(), routes), b"payload",
            server_entity=server_tx.entity,
        )
        assert result.ok and result.payload == b"echo:payload"
        assert served == [b"payload"], "the handler runs once, on the right bytes"
        assert result.retries == 1
        return client_tx, server_tx
    finally:
        overlay.stop()


def test_response_for_another_client_is_dropped_as_misdelivered():
    """§4.1: a response naming an entity the client does not own is
    discarded and counted, whichever route delivered it."""

    def readdress(pdu):
        pdu.dst_entity ^= 1 << 40

    client_tx, _server_tx = asyncio.run(
        _transact("server", PduKind.RESPONSE, _resealed(readdress))
    )
    assert client_tx.stats.misdelivered.count == 1
    assert client_tx.host.metrics.dropped("misdelivered") == 1


def test_pdu_older_than_the_packet_lifetime_is_rejected():
    """§4.2: a request stamped more than ``mpl.max_age_ms`` ago is
    discarded by the server and counted; the retransmission is fresh."""

    def age(pdu):
        pdu.timestamp = (
            pdu.timestamp - LIVE_TRANSPORT.mpl.max_age_ms - 1000
        ) % (1 << 32)

    _client_tx, server_tx = asyncio.run(
        _transact("client", PduKind.REQUEST, _resealed(age))
    )
    assert server_tx.stats.lifetime_rejects.count == 1


def test_flipped_payload_byte_fails_the_checksum_and_is_recovered():
    """§4.1: Sirpent has no header checksum, so the transport's CRC-32
    catches a damaged member before the handler could see it."""

    def flip(payload):
        damaged = bytearray(payload)
        damaged[30] ^= 0xFF  # inside the member's bytes
        return bytes(damaged)

    _client_tx, server_tx = asyncio.run(
        _transact("client", PduKind.REQUEST, flip)
    )
    assert server_tx.stats.checksum_failures.count == 1


def test_cancelled_transact_ignores_its_late_response():
    """The caller gives up just as its response lands: the task's
    cancellation has already settled its future when the response
    completes the transaction in the machine, and nothing raises in the
    host's delivery path — the next transaction goes through."""

    async def run():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda _loop, context: errors.append(context)
        )
        try:
            server_tx = LiveTransactor(overlay.hosts["server"])
            server_tx.serve(lambda request: b"echo:" + request)
            client = overlay.hosts["client"]
            client_tx = LiveTransactor(client)
            routes = overlay.routes(
                "client", "server", k=1, dest_socket=client_tx.config.socket,
            )
            manager = RouteManager(WallClock(), routes)
            task = asyncio.ensure_future(client_tx.transact(manager, b"first"))
            socket = client_tx.config.socket
            deliver = client.sockets[socket]

            def cancel_then_deliver(delivered):
                task.cancel()
                deliver(delivered)

            client.sockets[socket] = cancel_then_deliver
            with pytest.raises(asyncio.CancelledError):
                await task
            client.sockets[socket] = deliver
            assert client_tx.machine._client_txs == {}
            result = await client_tx.transact(manager, b"second")
            assert result.ok and result.payload == b"echo:second"
        finally:
            overlay.stop()
        return errors

    assert asyncio.run(run()) == []


def test_members_follow_the_routes_payload_budget():
    """A route that carries less than ``MAX_MEMBER_PAYLOAD`` per frame
    gets smaller members; each is encoded from its own offset, so the
    server reassembles the request's exact bytes."""
    budget = 200

    async def run():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            served = []
            server_tx = LiveTransactor(overlay.hosts["server"])
            server_tx.serve(lambda request: served.append(request) or b"ok")
            client_tx = LiveTransactor(overlay.hosts["client"])
            routes = overlay.routes(
                "client", "server", k=1, dest_socket=client_tx.config.socket,
            )
            config = client_tx.config
            routes[0].max_payload = (
                lambda: budget + config.header_bytes + config.trailer_bytes
            )
            payload = bytes(range(256)) * 4
            result = await client_tx.transact(
                RouteManager(WallClock(), routes), payload,
            )
            assert result.ok
            return served, client_tx, payload
        finally:
            overlay.stop()

    served, client_tx, payload = asyncio.run(run())
    assert served == [payload]
    assert client_tx.stats.sent_pdus.count == -(-len(payload) // budget)
