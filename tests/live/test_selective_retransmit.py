"""Selective retransmission in :class:`LiveTransactor` (§4.3), by NAK.

The live transactor runs the simulator's transaction machine: a server
missing request members NAKs exactly those once the member stream goes
quiet, and the client resends them alone; a client holding part of a
response NAKs the rest on its timeout, and the server replays it from
its cache without running the handler again; a client holding none of
it probes with its request's last member.
"""

import asyncio
from dataclasses import replace

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import LiveOverlay, LiveTransactor, WallClock
from repro.live.host import LIVE_TRANSPORT
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.transport.machine import (
    MAX_MEMBER_PAYLOAD,
    TIMEOUT_RTT_MULTIPLIER,
    PduKind,
)
from repro.transport.rebind import RouteManager
from tests.live.oracle import decode_pdu

pytestmark = pytest.mark.live

REQUEST, RESPONSE = PduKind.REQUEST, PduKind.RESPONSE

CONFIG = replace(LIVE_TRANSPORT, base_timeout=0.08)

#: Two full members: its echo, 5 bytes longer, is three.
PAYLOAD = bytes(range(256)) * (2 * MAX_MEMBER_PAYLOAD // 256)


def _line_topology():
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    topo.connect(client, r1)
    topo.connect(r1, server)
    return topo


class _Dropper:
    """Wraps ``host.send`` to drop chosen transactor PDUs once each and
    log every request or response member the host sends."""

    def __init__(self, host, doomed):
        #: (kind, member) pairs to drop on first sight.
        self.doomed = set(doomed)
        self.dropped = []
        self.sent = []
        self._original = host.send
        host.send = self._send

    def _send(self, route, payload, **kwargs):
        pdu = decode_pdu(payload)
        member = (pdu.kind, pdu.member_index)
        if pdu.kind in (REQUEST, RESPONSE):
            self.sent.append(member)
        if member in self.doomed:
            self.doomed.discard(member)
            self.dropped.append(member)
            return 0  # the datagram "vanishes"
        return self._original(route, payload, **kwargs)


async def _transact_with_drops(client_drops=(), server_drops=()):
    overlay = LiveOverlay(_line_topology())
    await overlay.start()
    try:
        client = overlay.hosts["client"]
        server = overlay.hosts["server"]
        served = []
        server_tx = LiveTransactor(server, CONFIG)
        server_tx.serve(lambda request: served.append(request) or b"echo:" + request)
        client_tx = LiveTransactor(client, CONFIG)
        client_dropper = _Dropper(client, client_drops)
        server_dropper = _Dropper(server, server_drops)
        routes = overlay.routes(
            "client", "server", k=1, dest_socket=client_tx.config.socket,
        )
        manager = RouteManager(WallClock(), routes)
        payload = PAYLOAD
        result = await client_tx.transact(manager, payload)
        assert result.ok
        assert result.payload == b"echo:" + payload
        assert served == [payload], "the handler runs exactly once"
        return result, client_tx, server_tx, client_dropper, server_dropper
    finally:
        overlay.stop()


def test_lost_request_member_is_resent_alone():
    """Drop one of two request members: the server NAKs the gap after
    its NAK delay and the client resends member 1 alone, before its own
    timeout ever fires."""
    result, client_tx, server_tx, client_d, _sd = asyncio.run(
        _transact_with_drops(client_drops=[(REQUEST, 1)])
    )
    assert client_d.dropped == [(REQUEST, 1)]
    assert client_d.sent == [(REQUEST, 0), (REQUEST, 1), (REQUEST, 1)]
    assert server_tx.stats.naks_sent.count == 1
    assert client_tx.stats.retransmissions.count == 1
    assert result.retries == 0


def test_fully_lost_group_is_recovered_by_a_probe_and_a_nak():
    """Both members lost: the server never heard of the transaction.
    The client's timeout probes with the last member alone; the server
    starts an assembly from it and NAKs member 0, which the client
    resends — the group is resent whole, one member at a time."""
    result, _ct, server_tx, client_d, _sd = asyncio.run(
        _transact_with_drops(client_drops=[(REQUEST, 0), (REQUEST, 1)])
    )
    assert client_d.sent == [
        (REQUEST, 0), (REQUEST, 1), (REQUEST, 1), (REQUEST, 0),
    ]
    assert server_tx.stats.naks_sent.count == 1
    assert result.retries == 1


def test_lost_response_member_is_replayed_without_reexecution():
    """Drop one of three response members: the client's timeout NAKs it
    and the server replays that member alone from its cache — the
    handler never runs twice (§4 exactly-once)."""
    result, client_tx, _st, _cd, server_d = asyncio.run(
        _transact_with_drops(server_drops=[(RESPONSE, 0)])
    )
    assert server_d.dropped == [(RESPONSE, 0)]
    assert server_d.sent == [
        (RESPONSE, 0), (RESPONSE, 1), (RESPONSE, 2), (RESPONSE, 0),
    ]
    assert client_tx.stats.naks_sent.count == 1
    assert result.retries == 1


def test_timeout_while_the_response_is_on_its_way_costs_one_member():
    """The response to a 16-member request is slower than the client's
    timeout (one and a half times the timeout the route's model sets for
    the request's size: it lands between the first timeout and the
    second, which a delay of twice the timeout raced).  The timeout
    sends one request member, not 16; the server hears one duplicate of
    an answered transaction and replays the response once — 16
    duplicates, each answered with the whole group, would put 16 x 16
    response members on the path."""

    async def run():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            server = overlay.hosts["server"]
            server_tx = LiveTransactor(server)
            server_tx.serve(lambda request: request)
            client_tx = LiveTransactor(overlay.hosts["client"])
            loop = asyncio.get_running_loop()
            send = server.send
            responses = []
            routes = overlay.routes(
                "client", "server", k=1, dest_socket=client_tx.config.socket,
            )
            payload = bytes(range(256)) * 64
            delay = 1.5 * max(
                LIVE_TRANSPORT.base_timeout,
                TIMEOUT_RTT_MULTIPLIER * routes[0].expected_rtt(len(payload)),
            )

            def slow_responses(route, payload, **kwargs):
                if decode_pdu(payload).kind is RESPONSE:
                    responses.append(payload)
                    loop.call_later(delay, lambda: send(route, payload, **kwargs))
                    return 0
                return send(route, payload, **kwargs)

            server.send = slow_responses
            result = await client_tx.transact(
                RouteManager(WallClock(), routes), payload,
            )
            assert result.ok and result.payload == payload
            return result, server_tx, responses
        finally:
            overlay.stop()

    result, server_tx, responses = asyncio.run(run())
    assert result.retries == 1
    assert server_tx.stats.duplicate_requests.count == 1
    assert len(responses) == 2 * 16
