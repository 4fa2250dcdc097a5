"""Live router crash -> restart re-derives soft state (§2.2).

"Routers contain only soft state": recovery keeps the configuration
(port wiring, mint secret, policy) and throws away every cache.  These
tests kill a live router mid-run and assert the reborn router (a) binds
the same UDP port so no peer needs rewiring, (b) comes back with empty
caches, and (c) carries traffic again without any client-side rewiring.
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
from repro.tokens.cache import TokenCacheEntry
from repro.transport.rebind import RouteManager

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


def test_restart_keeps_the_port_and_flushes_soft_state():
    """The reborn router answers on its old UDP port with empty caches:
    configuration survives the crash, soft state does not."""

    async def scenario():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            router = overlay.routers["r1"]
            old_address = router.address
            old_cache = router.token_cache
            old_pipeline = router.pipeline
            # Plant a sentinel cache entry the restart must NOT carry over.
            old_cache._entries[b"sentinel"] = TokenCacheEntry(
                claims=None, valid=True
            )
            overlay.kill("r1")
            # The transport releases its port on the next loop cycle;
            # a real crash->restart always has downtime between them.
            await asyncio.sleep(0.01)
            new_address = await overlay.restart_router("r1")
            return (
                old_address,
                new_address,
                old_cache is router.token_cache,
                old_pipeline is router.pipeline,
                dict(router.token_cache._entries),
                overlay.addresses["r1"],
            )
        finally:
            overlay.stop()

    (old_addr, new_addr, same_cache, same_pipeline, entries, registered) = (
        asyncio.run(scenario())
    )
    assert new_addr == old_addr, "restart must rebind the original port"
    assert registered == new_addr
    assert not same_cache, "token cache must be rebuilt, not reused"
    assert not same_pipeline, "pipeline must be rebuilt over fresh caches"
    assert entries == {}, "soft state must not survive the crash"


def test_transactions_resume_after_router_restart():
    """End-to-end: a transaction succeeds before the crash and another
    succeeds after the restart, with no client- or server-side rewiring."""

    async def scenario():
        overlay = LiveOverlay(_line_topology())
        await overlay.start()
        try:
            client = overlay.hosts["client"]
            server = overlay.hosts["server"]
            server_tx = LiveTransactor(server)
            server_tx.serve(lambda request: b"pong:" + request)
            client_tx = LiveTransactor(
                client, replace(LIVE_TRANSPORT, base_timeout=0.1)
            )
            routes = overlay.routes(
                "client", "server", k=1,
                dest_socket=client_tx.config.socket,
            )
            manager = RouteManager(WallClock(), routes)
            first = await client_tx.transact(manager, b"before")
            overlay.kill("r1")
            await asyncio.sleep(0.01)  # let the dead socket release its port
            await overlay.restart_router("r1")
            second = await client_tx.transact(manager, b"after")
            return first, second
        finally:
            overlay.stop()

    first, second = asyncio.run(scenario())
    assert first.ok
    assert first.payload == b"pong:before"
    assert second.ok
    assert second.payload == b"pong:after"
