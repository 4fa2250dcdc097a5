"""The endpoint's one probe timer (ARCHITECTURE §14).

A peer's probe sits in ``LiveEndpoint._probes`` in send order, which is
deadline order, and the endpoint holds at most ONE loop timer, armed for
the oldest probe's deadline exactly while a probe is out.  These pin that
on a real loop: however many frames and peers, one handle; ``close()``
cancels it and a reopened endpoint starts with no probe out.
"""

import asyncio
import socket

import pytest

from repro.live.frames import FRAME_DATA, encode_preamble
from repro.live.link import LiveEndpoint
from tests.live.oracle import probe_deadline

pytestmark = pytest.mark.live

#: A well-formed data frame.
FRAME = encode_preamble(FRAME_DATA, 0, 4) + b"body"


class BlackHoles:
    """Bound UDP sockets nobody reads: frames vanish, nothing answers."""

    def __init__(self, count):
        self.count = count

    def __enter__(self):
        self.socks = []
        for _ in range(self.count):
            sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            sock.bind(("127.0.0.1", 0))
            self.socks.append(sock)
        return [sock.getsockname()[:2] for sock in self.socks]

    def __exit__(self, *exc_info):
        for sock in self.socks:
            sock.close()


def count_probe_timers(endpoint: LiveEndpoint) -> list:
    """Record every loop timer the endpoint's probe ladder creates from
    now on (``call_later`` lands in ``call_at`` too)."""
    loop = asyncio.get_running_loop()
    created = []
    call_at = loop.call_at

    def recording_call_at(when, callback, *args, **kwargs):
        handle = call_at(when, callback, *args, **kwargs)
        if callback == endpoint._on_probe_timer:
            created.append(handle)
        return handle

    loop.call_at = recording_call_at
    return created


def assert_timer_matches_probes(endpoint: LiveEndpoint) -> None:
    if endpoint._probes:
        assert endpoint._probe_timer is not None
        assert not endpoint._probe_timer.cancelled()
        assert endpoint._probe_timer.when() == probe_deadline(endpoint)
    else:
        assert endpoint._probe_timer is None


def test_one_timer_handle_whatever_is_sent():
    """Fifty frames to each of three silent peers: one probe per peer, and
    the loop armed exactly once, for the first probe's deadline."""

    async def scenario():
        sender = LiveEndpoint("one-timer")
        await sender.open()
        created = count_probe_timers(sender)
        with BlackHoles(3) as peers:
            for _ in range(50):
                for addr in peers:
                    sender.send(FRAME, addr)
                    assert_timer_matches_probes(sender)
            assert list(sender._probes) == peers
            assert len(created) == 1
            assert sum(not handle.cancelled() for handle in created) == 1
            sender.close()
        assert created[0].cancelled()

    asyncio.run(scenario())


def test_close_cancels_the_timer_and_reopen_starts_with_no_probe():
    async def scenario():
        sender = LiveEndpoint("reopen")
        await sender.open()
        with BlackHoles(1) as (addr,):
            for _ in range(5):
                sender.send(FRAME, addr)
            timer = sender._probe_timer
            assert timer is not None
            sender.close()
            assert timer.cancelled()
            assert sender._probe_timer is None
            assert not sender._probes and not sender._unheard
            await sender.open()
            assert sender._probe_timer is None and not sender._probes
            sender.send(FRAME, addr)
            assert len(sender._probes) == 1
            assert_timer_matches_probes(sender)
            sender.close()

    asyncio.run(scenario())
