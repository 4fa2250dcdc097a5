"""LiveDirectoryClient connection-loss handling: fail fast, reconnect.

Regression tests for the EOF-swallowing bug: a dropped TCP connection
used to leave every in-flight request hanging until its own timeout and
every later request writing into a dead writer.  Now loss fails pending
futures immediately and the next request reconnects behind a backoff.
"""

import asyncio

import pytest

from repro.directory.service import RouteQuery  # noqa: F401 (doc link)
from repro.live.directory import (
    RECONNECT_MAX_S,
    DirectoryError,
    LiveDirectoryClient,
    LiveDirectoryServer,
)

pytestmark = pytest.mark.live


def _server(routes=()):
    return LiveDirectoryServer(lambda client, query: list(routes))


def test_eof_fails_pending_requests_immediately():
    """A request in flight when the server hangs up must fail *now*,
    not after its multi-second timeout."""

    async def scenario():
        received = asyncio.Event()

        async def mute_handler(reader, writer):
            await reader.readline()  # swallow the request, answer nothing
            received.set()
            writer.close()  # hang up with the request still pending

        server = await asyncio.start_server(
            mute_handler, host="127.0.0.1", port=0
        )
        sockname = server.sockets[0].getsockname()
        client = LiveDirectoryClient("impatient")
        await client.connect((sockname[0], sockname[1]))
        loop = asyncio.get_running_loop()
        started = loop.time()
        task = loop.create_task(client.ping(timeout_s=30.0))
        await received.wait()
        with pytest.raises(DirectoryError):
            await task
        elapsed = loop.time() - started
        client.close()
        server.close()
        return elapsed, client.disconnects

    elapsed, disconnects = asyncio.run(scenario())
    assert elapsed < 5.0, f"pending request hung {elapsed:.1f}s after EOF"
    assert disconnects == 1


def test_client_reconnects_after_directory_restart():
    """§6.3 directory outage: stop the listener, restart it on the same
    port, and the same client object resumes service transparently."""

    async def scenario():
        server = _server()
        address = await server.start()
        client = LiveDirectoryClient("phoenix")
        await client.connect(address)
        assert await client.ping()

        server.stop()  # outage: connection drops
        await asyncio.sleep(0.05)
        # During the outage requests fail fast with a named error.
        with pytest.raises(DirectoryError):
            await client.ping(timeout_s=0.5)

        # Wait out the reconnect backoff, then restart on the old port.
        restarted = _server()
        await restarted.start(port=address[1])
        await asyncio.sleep(RECONNECT_MAX_S)
        pong = await client.ping(timeout_s=1.0)
        reconnects = client.reconnects
        client.close()
        restarted.stop()
        return pong, reconnects

    pong, reconnects = asyncio.run(scenario())
    assert pong
    assert reconnects >= 1


def test_reconnect_attempts_are_backoff_gated():
    """With the directory gone entirely, back-to-back requests must not
    hammer connect(): the second attempt is refused by the backoff."""

    async def scenario():
        server = _server()
        address = await server.start()
        client = LiveDirectoryClient("hammer")
        await client.connect(address)
        server.stop()
        await asyncio.sleep(0.05)
        errors = []
        for _ in range(3):
            try:
                await client.ping(timeout_s=0.2)
            except DirectoryError as exc:
                errors.append(str(exc))
        client.close()
        return errors

    errors = asyncio.run(scenario())
    assert len(errors) == 3
    assert any("backing off" in message for message in errors)


def test_a_long_failure_streak_backs_off_at_the_ceiling():
    """The 1,025th failed reconnect in a row is a :class:`DirectoryError`
    behind a ``RECONNECT_MAX_S`` backoff, like the 7th — the doubling
    saturates instead of overflowing the float power
    (``0.05 * 2.0 ** 1024`` raises ``OverflowError``)."""

    async def scenario():
        server = _server()
        address = await server.start()
        client = LiveDirectoryClient("persistent")
        await client.connect(address)
        server.stop()
        await asyncio.sleep(0.05)
        with pytest.raises(DirectoryError):
            await client.ping(timeout_s=0.2)  # notices the loss
        client._reconnect_attempts = 1024
        client._reconnect_blocked_until = 0.0
        loop = asyncio.get_running_loop()
        with pytest.raises(DirectoryError, match="reconnect failed"):
            await client.ping(timeout_s=0.2)
        blocked_for = client._reconnect_blocked_until - loop.time()
        client.close()
        return blocked_for

    blocked_for = asyncio.run(scenario())
    assert RECONNECT_MAX_S - 0.5 < blocked_for <= RECONNECT_MAX_S


def test_closed_client_refuses_requests():
    async def scenario():
        server = _server()
        address = await server.start()
        client = LiveDirectoryClient("done")
        await client.connect(address)
        client.close()
        with pytest.raises(DirectoryError):
            await client.ping(timeout_s=0.2)
        server.stop()

    asyncio.run(scenario())
