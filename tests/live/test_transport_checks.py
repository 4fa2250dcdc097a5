"""§4.1 and §4.2 on both substrates: the machine's checks, through the
one transactor IO (:class:`~repro.transport.transactor.TransactorIO`).

Each checks test rewrites the first PDU of one kind on its way out of a
host, then checks that the receiving transport counted and dropped it,
and that the transaction still completed — once — after the client
retransmitted.  Every such test runs on the simulator (unmarked, so the
``-m "not live"`` step runs it) and on the live overlay over sockets.
"""

import asyncio

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import LiveOverlay, LiveTransactor, WallClock
from repro.live.frames import decode_preamble, truncate_into
from repro.live.host import LIVE_TRANSPORT
from repro.net.topology import Topology
from repro.scenarios import build_sirpent_line
from repro.sim.engine import Simulator
from repro.transport.codec import HEADER_BYTES, OVERHEAD, PduKind, VmtpPdu, encode_pdu
from repro.transport.rebind import RouteManager
from benchmarks.bench_f03_transactor_pair import HostPair
from tests.live.oracle import decode_pdu

SUBSTRATES = ("sim", pytest.param("live", marks=pytest.mark.live))


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
        return encode_pdu(pdu)

    return rewrite


async def _live_transact(side, kind, rewrite):
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
        return result, served, client_tx, server_tx
    finally:
        overlay.stop()


def _sim_transact(side, kind, rewrite):
    scenario = build_sirpent_line(n_routers=1)
    served = []

    def serve(message):
        request = b"".join(message.payload_parts)
        served.append(request)
        return b"echo:" + request, len(request) + 5

    server_tx = scenario.transport("dst")
    entity = server_tx.create_entity(serve, "server")
    client_tx = scenario.transport("src")
    _rewrite_first(scenario.hosts["src" if side == "client" else "dst"], kind, rewrite)
    results = []
    client_tx.transact(
        RouteManager(scenario.sim, scenario.vmtp_routes("src", "dst")),
        entity, b"payload", 7, results.append,
    )
    scenario.sim.run(until=1.0)
    (result,) = results
    return result, served, client_tx, server_tx


def _transact(substrate, side, kind, rewrite):
    """One transaction whose first ``kind`` PDU, sent by ``side``, is
    rewritten: it completes once, after one retry.  Returns the client's
    and the server's transports."""
    if substrate == "live":
        outcome = asyncio.run(_live_transact(side, kind, rewrite))
    else:
        outcome = _sim_transact(side, kind, rewrite)
    result, served, client_tx, server_tx = outcome
    assert result.ok and result.payload == b"echo:payload"
    assert served == [b"payload"], "the handler runs once, on the right bytes"
    assert result.retries == 1
    return client_tx, server_tx


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_response_for_another_client_is_dropped_as_misdelivered(substrate):
    """§4.1: a response naming an entity the client does not own is
    discarded and counted, whichever route delivered it."""

    def readdress(pdu):
        pdu.dst_entity ^= 1 << 40

    client_tx, _server_tx = _transact(
        substrate, "server", PduKind.RESPONSE, _resealed(readdress),
    )
    assert client_tx.stats.misdelivered.count == 1
    assert client_tx.drops["misdelivered"] == 1


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_pdu_older_than_the_packet_lifetime_is_rejected(substrate):
    """§4.2: a request stamped more than ``mpl.max_age_ms`` ago is
    discarded by the server and counted; the retransmission is fresh."""

    def age(pdu):
        pdu.timestamp = (
            pdu.timestamp - LIVE_TRANSPORT.mpl.max_age_ms - 1000
        ) % (1 << 32)

    _client_tx, server_tx = _transact(
        substrate, "client", PduKind.REQUEST, _resealed(age),
    )
    assert server_tx.stats.lifetime_rejects.count == 1
    assert server_tx.drops["too_old"] == 1


@pytest.mark.parametrize("substrate", SUBSTRATES)
def test_flipped_payload_byte_fails_the_checksum_and_is_recovered(substrate):
    """§4.1: Sirpent has no header checksum, so the transport's CRC-32
    catches a damaged member before the handler could see it."""

    def flip(payload):
        damaged = bytearray(payload)
        damaged[HEADER_BYTES + 2] ^= 0xFF  # inside the member's bytes
        return bytes(damaged)

    _client_tx, server_tx = _transact(
        substrate, "client", PduKind.REQUEST, flip,
    )
    assert server_tx.stats.checksum_failures.count == 1
    assert server_tx.drops["checksum"] == 1


# -- a truncated member is ``truncated`` on both substrates -----------------------


def _request(transport, entity, size):
    """A one-member request of ``size`` bytes from ``transport``'s client."""
    return VmtpPdu(
        PduKind.REQUEST, 1, transport.machine._client_entity(), entity, 0, 1,
        transport.clock.stamp(), transport.config.socket, 0, size, bytes(size),
    )


def _assert_discarded_as_truncated(server_tx, served):
    assert server_tx.stats.truncated_rejects.count == 1
    assert server_tx.drops == {"truncated": 1}
    assert server_tx.stats.checksum_failures.count == 0
    assert served == []


def test_a_frame_the_network_truncated_is_discarded_as_truncated_sim():
    """§2: a router truncates a member too long for its next link and
    marks the trailer; the server's transport reads the mark and counts
    the member ``truncated``, not ``checksum``."""
    scenario = build_sirpent_line(n_routers=1, mtu=600)
    served = []
    server_tx = scenario.transport("dst")
    entity = server_tx.create_entity(lambda m: served.append(m) or (b"ok", 2))
    client_tx = scenario.transport("src")
    (route,) = scenario.vmtp_routes("src", "dst")
    client_tx.send(route, _request(client_tx, entity, 1000), 0)
    scenario.sim.run(until=1.0)
    assert scenario.hosts["dst"].received_truncated.count == 1
    _assert_discarded_as_truncated(server_tx, served)


@pytest.mark.live
def test_a_frame_the_network_truncated_is_discarded_as_truncated_live():
    """The live host reads the same trailer mark: a request member cut
    in flight by the router's own move is counted ``truncated``."""
    pair = HostPair(hops=1)
    served = []
    server_tx = LiveTransactor(pair.server)
    server_tx.serve(lambda request: served.append(request) or b"ok")
    client_tx = LiveTransactor(pair.client)
    client_tx.send(pair.route("server"), _request(client_tx, server_tx.entity, 1000), 0)
    (view, source, _preamble) = pair.queued["server"].pop()
    assert truncate_into(view, 600)
    pair.queued["server"].append((view, source, decode_preamble(view.mem)))
    pair.pump()
    _assert_discarded_as_truncated(server_tx, served)


@pytest.mark.live
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


@pytest.mark.live
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
            routes[0].max_payload = lambda: budget + OVERHEAD
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
