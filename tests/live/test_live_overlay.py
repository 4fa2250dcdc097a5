"""The live overlay over real loopback sockets.

Marked ``live``: these tests bind UDP/TCP sockets on 127.0.0.1 and run
an asyncio loop.  They are fast (sub-second waits) but environment-
dependent, so CI runs them in a dedicated job.
"""

import asyncio

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.live import (
    LiveDirectoryClient,
    LiveEndpoint,
    LiveOverlay,
    LiveTransactor,
    LivenessConfig,
    WallClock,
    encode_live_frame,
)
from repro.live.frames import encode_ack
from repro.live.link import Impairments
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.transport.rebind import RouteManager
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment
from tests.live.oracle import free_slots, live_return_segments, slot_view

pytestmark = pytest.mark.live


async def _eventually(predicate, timeout_s: float = 2.0) -> None:
    """Poll ``predicate`` until true or fail the test."""
    loop = asyncio.get_running_loop()
    deadline = loop.time() + timeout_s
    while not predicate():
        assert loop.time() < deadline, "condition never became true"
        await asyncio.sleep(0.005)


def _line_topology():
    """client — r1 — r2 — server, point-to-point."""
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    r2 = SirpentRouter(sim, "r2")
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.connect(r2, server)
    return topo


def _three_router_topology():
    """client — r1 — r2 — r3 — server, point-to-point."""
    sim = Simulator()
    topo = Topology(sim)
    nodes = [SirpentHost(sim, "client")] + [
        SirpentRouter(sim, f"r{n}") for n in (1, 2, 3)
    ] + [SirpentHost(sim, "server")]
    for near, far in zip(nodes, nodes[1:]):
        topo.connect(near, far)
    return topo


async def _send_every(gap_s, send, gaps):
    """Call ``send()`` every ``gap_s`` until cancelled, recording the gaps
    the loop really kept."""
    loop = asyncio.get_running_loop()
    last = loop.time()
    while True:
        send()
        await asyncio.sleep(gap_s)
        now = loop.time()
        gaps.append(now - last)
        last = now


def _ladder_bound(liveness, gap_s):
    """The latest a silent peer can be declared dead after it fell silent:
    the probe window in progress, then ``1 + max_retries`` unanswered
    ones, each opened by the first send after the last closed."""
    rungs = 1 + liveness.max_retries
    return liveness.ack_timeout_s + rungs * (liveness.ack_timeout_s + gap_s)


def _diamond_topology():
    """client — r1 — {r2 | r4} — r3 — server: two disjoint mid paths."""
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    r2 = SirpentRouter(sim, "r2")
    r3 = SirpentRouter(sim, "r3")
    r4 = SirpentRouter(sim, "r4")
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.connect(r1, r4)
    topo.connect(r2, r3)
    topo.connect(r4, r3)
    topo.connect(r3, server)
    return topo


def test_udp_socketpair_roundtrip():
    """A live frame crosses a real UDP socketpair byte-for-byte."""

    async def scenario():
        sender = LiveEndpoint("a")
        receiver = LiveEndpoint("b")
        received = []

        def on_batch(batch):
            for view, _addr, _preamble in batch:
                received.append(view.tobytes())
                view.release()

        receiver.on_batch = on_batch
        await sender.open()
        addr = await receiver.open()
        payload = b"over a real socket"
        packet = SirpentPacket(
            segments=[HeaderSegment(port=3, token=b"t" * 28),
                      HeaderSegment(port=0)],
            payload_size=len(payload),
            payload=payload,
        )
        datagram = encode_live_frame(packet, payload)
        sender.send(datagram, addr)
        await _eventually(lambda: received)
        assert received[0] == datagram
        # Line noise on the same socket is dropped and counted, not raised.
        sender.send(b"\xde\xad\xbe\xef", addr)
        await _eventually(lambda: receiver.metrics.dropped("undecodable") == 1)
        sender.close()
        receiver.close()

    asyncio.run(scenario())


def test_probe_ladder_finds_a_closed_peer_dead():
    """A peer that sends nothing back is asked with numbered probes,
    whose acks keep it alive; once its socket closes, the ladder runs
    out and ``on_peer_dead`` names it — once, in time, with nothing
    retransmitted."""

    async def scenario():
        liveness = LivenessConfig(ack_timeout_s=0.02, max_retries=2)
        sender = LiveEndpoint("a", liveness=liveness)
        receiver = LiveEndpoint("b")
        receiver.on_batch = lambda batch: [
            view.release() for view, _addr, _preamble in batch
        ]
        loop = asyncio.get_running_loop()
        dead = []
        sender.on_peer_dead = lambda addr: dead.append((loop.time(), addr))
        await sender.open()
        addr = await receiver.open()
        payload = b"x"
        frame = encode_live_frame(SirpentPacket(
            segments=[HeaderSegment(port=0)], payload_size=1, payload=payload,
        ), payload)
        gaps = []
        traffic = asyncio.ensure_future(
            _send_every(0.005, lambda: sender.send(frame, addr), gaps)
        )
        await asyncio.sleep(0.2)
        # Ten windows of one-way traffic: every other probe is numbered,
        # and its ack resets the ladder.
        assert sender.metrics.acks_in >= 2 and dead == []
        receiver.close()
        closed_at = loop.time()
        await _eventually(lambda: dead, timeout_s=3.0)
        traffic.cancel()
        assert [peer for _at, peer in dead] == [addr]
        assert dead[0][0] - closed_at <= _ladder_bound(liveness, max(gaps)) + 0.03
        assert sender.metrics.dropped("peer_dead") == 1
        assert sender.metrics.retries == 0
        sender.close()

    asyncio.run(scenario())


def test_probe_nonces_wrap_within_32_bits():
    """Regression: the probe counter was once unbounded, so the 2**32-th
    probe raised ``ValueError`` out of ``send`` / ``send_view`` (inside a router's batch loop: the rest
    of the batch lost, its slots leaked).  After 0xFFFFFFFF comes 0, and
    each probe frame is acked with its own nonce."""

    async def scenario():
        sender = LiveEndpoint(
            "a", liveness=LivenessConfig(ack_timeout_s=0.02, max_retries=9)
        )
        receivers = [LiveEndpoint(f"b{n}") for n in range(4)]
        delivered = []

        def on_batch(batch):
            for view, _addr, _preamble in batch:
                delivered.append(view.tobytes())
                view.release()

        await sender.open()
        addrs = []
        for receiver in receivers:
            receiver.on_batch = on_batch
            addrs.append(await receiver.open())

        def frame_of(payload):
            return encode_live_frame(SirpentPacket(
                segments=[HeaderSegment(port=0)],
                payload_size=len(payload), payload=payload,
            ), payload)

        # Four silent peers: the next send to each puts a probe frame out.
        for addr in addrs:
            sender.send(frame_of(b"--"), addr)
        await _eventually(lambda: len(sender._unheard) == 4 and not sender._probes)
        del delivered[:]
        sender._nonce = 0xFFFFFFFD
        frames = [frame_of(p) for p in (b"m0", b"m1", b"m2", b"m3")]
        for n, (frame, addr) in enumerate(zip(frames, addrs)):
            if n in (0, 3):
                sender.send(frame, addr)
            else:
                sender.send_view(slot_view(sender.ring, frame), addr)
        assert [sender._probes[addr][0] for addr in addrs] == [
            0xFFFFFFFE, 0xFFFFFFFF, 0, 1,
        ]
        await _eventually(lambda: sender.metrics.acks_in == 4)
        await _eventually(lambda: len(delivered) == 4)
        assert sorted(delivered) == sorted(frames)
        assert [receiver.metrics.acks_out for receiver in receivers] == [1] * 4
        assert not sender._unheard
        assert sender.metrics.dropped("stray_ack") == 0
        sender.close()
        for receiver in receivers:
            receiver.close()

    asyncio.run(scenario())


def test_endpoint_drops_an_oversize_datagram_unacked():
    """A datagram larger than a ring slot is truncated by the kernel
    (``MSG_TRUNC``): counted ``oversize``, never delivered, never acked;
    one of exactly the slot size is an ordinary frame."""

    async def scenario():
        sender = LiveEndpoint("a")
        receiver = LiveEndpoint("b")
        received = []

        def on_batch(batch):
            for view, _addr, _preamble in batch:
                received.append(len(view))
                view.release()

        receiver.on_batch = on_batch
        await sender.open()
        addr = await receiver.open()
        slot_bytes = receiver.ring.slot_bytes

        def frame_of(size):
            # 7-byte preamble + one 4-byte segment + payload.
            payload = b"x" * (size - 11)
            frame = encode_live_frame(SirpentPacket(
                segments=[HeaderSegment(port=0)],
                payload_size=len(payload), payload=payload,
            ), payload)
            assert len(frame) == size
            return frame

        sender.send(frame_of(slot_bytes + 1), addr)
        await _eventually(lambda: receiver.metrics.dropped("oversize") == 1)
        assert received == [] and receiver.metrics.acks_out == 0
        sender.send(frame_of(slot_bytes), addr)
        await _eventually(lambda: received == [slot_bytes])
        assert receiver.metrics.acks_out == 0
        # Conservation: nothing is delivered-and-unreleased, so the only
        # slot out of the ring is the one the endpoint receives
        # into (ARCHITECTURE §14) — and close() gives that one back.
        ring = receiver.ring
        assert ring.stats.acquires - ring.stats.releases == 1
        assert receiver._rx_slot is not None and not receiver._rx_slot.free
        sender.close()
        receiver.close()
        assert free_slots(ring) == len(ring) and receiver._rx_slot is None

    asyncio.run(scenario())


def test_endpoint_owns_one_receive_slot_between_wakeups():
    """The drain keeps the slot it receives into: noise, an ack and the
    empty read that ends a wakeup take nothing from the ring; ``close()``
    gives the slot back and a reopened endpoint starts without one."""

    async def scenario():
        sender = LiveEndpoint("a")
        receiver = LiveEndpoint("b")
        received = []

        def on_batch(batch):
            for view, _addr, _preamble in batch:
                received.append(len(view))
                view.release()

        receiver.on_batch = on_batch
        await sender.open()
        addr = await receiver.open()
        ring, stats = receiver.ring, receiver.ring.stats
        assert receiver._rx_slot is None and free_slots(ring) == len(ring)
        frame = encode_live_frame(SirpentPacket(
            segments=[HeaderSegment(port=0)], payload_size=1, payload=b"x",
        ), b"x")
        sender.send(frame, addr)
        await _eventually(lambda: received == [len(frame)])
        # One slot went to the consumer and came back; one is kept.
        assert (stats.acquires, stats.releases) == (2, 1)
        kept = receiver._rx_slot
        sender.send(b"line noise", addr)
        sender.send(encode_ack(77), addr)
        await _eventually(lambda: receiver.metrics.acks_in == 1)
        assert receiver.metrics.dropped("undecodable") == 1
        assert (stats.acquires, stats.releases) == (2, 1)
        assert receiver._rx_slot is kept and not kept.free
        receiver.close()
        assert receiver._rx_slot is None and free_slots(ring) == len(ring)
        addr = await receiver.open()
        assert receiver._rx_slot is None and free_slots(ring) == len(ring)
        sender.send(frame, addr)
        await _eventually(lambda: len(received) == 2)
        assert stats.acquires - stats.releases == 1
        sender.close()
        receiver.close()
        assert stats.acquires == stats.releases

    asyncio.run(scenario())


def test_host_refuses_a_frame_no_endpoint_would_accept():
    """Regression: a 4,200-byte payload used to leave the host and be
    dropped ``oversize`` (unacked) by the first router, which the hop
    layer read as that router dying.  The host refuses such a frame; the
    largest that fits crosses both routers, and a numbered probe of that
    size is acked, so one-way traffic of it never loses the port."""

    async def scenario():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            client, server = overlay.hosts["client"], overlay.hosts["server"]
            client.endpoint.liveness = LivenessConfig(ack_timeout_s=0.01)
            dead, delivered = [], []
            client.endpoint.on_peer_dead = dead.append
            server.bind(5, delivered.append)
            route = overlay.routes("client", "server", dest_socket=5)[0]
            with pytest.raises(ValueError, match="exceeds the overlay"):
                client.send(route, b"x" * 4200)
            assert client.metrics.frames_out == 0
            # The largest payload that fits crosses both routers, one way
            # only, for well past the ladder (4 x 10 ms).
            for _ in range(40):
                client.send(route, b"y" * 4000)
                await asyncio.sleep(0.005)
            await _eventually(lambda: len(delivered) == 40)
            assert delivered[0].payload == b"y" * 4000
            assert dead == []
            assert client.metrics.acks_in >= 1
            assert overlay.routers["r1"].metrics.total_drops() == 0
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())


def test_lossy_overlay_keeps_its_ports_until_a_router_stops():
    """Three routers, 2 % loss on every endpoint, request/response
    traffic for two seconds: the replies answer every probe window, so no
    port is ever declared dead.  Then r2 stops, and r1's port to it goes
    down within the ladder's bound."""

    async def scenario():
        liveness = LivenessConfig()
        overlay = LiveOverlay(
            _three_router_topology(),
            impairments=Impairments(loss_rate=0.02, seed=7),
            liveness=liveness,
        )
        await overlay.start()
        loop = asyncio.get_running_loop()
        try:
            client, server = overlay.hosts["client"], overlay.hosts["server"]
            r1 = overlay.routers["r1"]
            replies = []
            client.bind(6, replies.append)
            server.bind(5, lambda delivered: server.send_return(
                delivered, b"pong", reply_socket=6,
            ))
            route = overlay.routes("client", "server", dest_socket=5)[0]
            down = []
            r1.on_link_down = lambda port: down.append((loop.time(), port))
            gaps = []
            traffic = asyncio.ensure_future(_send_every(
                0.002, lambda: client.send(route, b"ping"), gaps,
            ))
            await asyncio.sleep(2.0)
            assert len(gaps) > 100 and len(replies) > len(gaps) // 2
            nodes = [*overlay.routers.values(), *overlay.hosts.values()]
            assert sum(n.metrics.dropped("loss_injected") for n in nodes) > 0
            assert [n.name for n in nodes if n.metrics.dropped("peer_dead")] == []
            assert down == [] and not r1.dead_ports
            overlay.kill("r2")
            stopped_at = loop.time()
            await _eventually(lambda: down, timeout_s=3.0)
            traffic.cancel()
            (at, port), = down
            assert overlay.routers["r1"].ports[port] == overlay.addresses["r2"]
            assert at - stopped_at <= _ladder_bound(liveness, max(gaps)) + 0.05
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())


def test_two_router_e2e_return_route_works():
    """A delivered frame's trailer reverses into a *working* return route."""

    async def scenario():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            client, server = overlay.hosts["client"], overlay.hosts["server"]
            requests, replies = [], []
            client.bind(6, replies.append)

            def on_request(delivered):
                requests.append(delivered)
                server.send_return(delivered, b"pong", reply_socket=6)

            server.bind(5, on_request)
            route = overlay.routes("client", "server", dest_socket=5)[0]
            client.send(route, b"ping")
            await _eventually(lambda: replies)
            assert requests[0].payload == b"ping"
            # The return route the server used is the reversed hop list.
            request = requests[0]
            returned = live_return_segments(request.frame)
            return_ports = [s.port for s in returned]
            assert len(return_ports) == 2  # one per router crossed
            assert all(s.rpf for s in returned)
            assert replies[0].payload == b"pong"
            assert replies[0].socket == 6
            # Both routers forwarded once per direction, dropped nothing.
            for name in ("r1", "r2"):
                assert overlay.routers[name].metrics.forwarded == 2
                assert overlay.routers[name].metrics.total_drops() == 0
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())


def test_directory_over_tcp_matches_in_process():
    """The NDJSON TCP directory serves byte-identical routes."""

    async def scenario():
        overlay = LiveOverlay(_diamond_topology())
        await overlay.start()
        try:
            local = overlay.routes("client", "server", k=2, with_tokens=True)
            dir_client = LiveDirectoryClient("client")
            await dir_client.connect(overlay.directory_address)
            over_tcp = await dir_client.routes("server", k=2, with_tokens=True)
            assert [r.segments for r in over_tcp] == [
                r.segments for r in local
            ]
            assert [r.first_hop_port for r in over_tcp] == [
                r.first_hop_port for r in local
            ]
            dir_client.close()
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())


def test_transactor_survives_router_kill():
    """Killing the mid-path router rebinds the client to the alternate."""

    async def scenario():
        overlay = LiveOverlay(_diamond_topology())
        await overlay.start()
        try:
            client_tx = LiveTransactor(overlay.hosts["client"])
            server_tx = LiveTransactor(overlay.hosts["server"])
            server_tx.serve(lambda payload: b"echo:" + payload)
            routes = overlay.routes(
                "client", "server", k=2,
                dest_socket=client_tx.config.socket, with_tokens=True,
            )
            manager = RouteManager(WallClock(), routes)
            first = await client_tx.transact(manager, b"before")
            assert first.ok and first.payload == b"echo:before"
            # Kill whichever mid router the current route traverses.
            port_to_mid = {
                e.port_id: e.dst for e in overlay.topology.all_edges()
                if e.src == "r1" and e.dst in ("r2", "r4")
            }
            overlay.kill(port_to_mid[manager.current().segments[0].port])
            second = await client_tx.transact(manager, b"after")
            assert second.ok and second.payload == b"echo:after"
            assert manager.switches.count == 1
            assert second.retries >= 1
        finally:
            overlay.stop()
        await asyncio.sleep(0.05)

    asyncio.run(scenario())


def test_late_replay_is_counted_not_silently_ignored():
    """A request that reaches the server again after it was answered is
    replayed; the replay finds no transaction waiting at the client and
    is dropped ``stale_pdu`` — visible in the host's drop counters."""
    async def scenario():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            client = overlay.hosts["client"]
            client_tx = LiveTransactor(client)
            server_tx = LiveTransactor(overlay.hosts["server"])
            server_tx.serve(lambda payload: b"echo:" + payload)
            routes = overlay.routes(
                "client", "server", k=1,
                dest_socket=client_tx.config.socket, with_tokens=True,
            )
            manager = RouteManager(WallClock(), routes)
            sent = []
            send = client.send
            client.send = lambda route, payload, **kwargs: (
                sent.append(payload) or send(route, payload, **kwargs)
            )
            result = await client_tx.transact(manager, b"once")
            assert result.ok and result.retries == 0
            assert client.metrics.total_drops() == 0
            # Transaction 1's only request member, a second time.
            client.send(manager.current(), sent[0])
            await _eventually(lambda: client.metrics.dropped("stale_pdu") == 1)
            assert client.metrics.total_drops() == 1
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())
