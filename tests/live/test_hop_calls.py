"""The warm frame-hop's work, held by exact call counts.

A router hop is most of a live transaction's datagram handlings (six of
the eight on every live workload), and a frame of a warm flow crosses
one in a fixed sequence: the endpoint's drain
(``LiveEndpoint._on_readable``), ``LiveRouter._on_batch``,
``RouterCore.step``, the pipeline's warm arm, the in-place move and
``send_view``.  Timing that sequence moves with the box's load; counting
it does not.  Here a warm tokened flow is replayed through exactly that
sequence over a scripted socket (``tests/live/oracle.py``'s
``ScriptedSocket`` feeding the drain, ``sendto`` a no-op), under
cProfile, and the calls per frame-hop — Python and built-in, the
scripted socket's own included — are held as a ceiling at two batch
fills: 32 frames a wakeup, as a loaded router drains, and one.

Before the warm hop did each piece of work once (one find of the
leading segment, one charge, one preamble write), the same harness
counted 56.19 calls per frame-hop at fill 32 and 63.005 at fill 1; before
the drain decoded each peer's preamble once, 39.19 and 46.005.  A
change that brings per-frame work back fails here deterministically; a
change that removes work lowers the ceilings.
"""

import cProfile
import gc

import pytest

from repro.live.frames import encode_live_frame, hop_move_into, return_tail_of
from repro.live.router import LiveRouter
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment, PacketView
from tests.live.oracle import FakeLoop, ScriptedSocket

UPSTREAM = ("127.0.0.1", 9001)    # port 1: where the flow comes from
DOWNSTREAM = ("127.0.0.1", 9002)  # port 2: where it goes

#: Calls per warm frame-hop, by frames per wakeup.
CEILINGS = {32: 37.19, 1: 44.005}

#: Wakeups profiled per fill: 640 frame-hops at fill 32, 200 at fill 1.
WAKEUPS = {32: 20, 1: 200}


def middle_hop_frame(router):
    """A data frame as a middle router of a three-router route sees it:
    its own tokened segment leads, the next router's and the
    destination socket's follow, a 98-byte PDU rides behind them and the
    first router's return hop is already in the trailer."""
    segments = [
        HeaderSegment(port=1, token=b"u" * 32),  # the hop before, stripped below
        HeaderSegment(port=2, token=router.mint.mint(port=2, account=7)),
        HeaderSegment(port=3, token=b"n" * 32),
        HeaderSegment(port=9),
    ]
    body = bytes(98)
    datagram = encode_live_frame(
        SirpentPacket(segments=segments, payload_size=len(body), payload=body),
        body,
    )
    view = PacketView(bytearray(1024), 0, len(datagram))
    view.buffer[:len(datagram)] = datagram
    assert hop_move_into(view, return_tail_of(HeaderSegment(port=1)))
    return view.tobytes()


def replay(fill, wakeups):
    """Calls per frame-hop over ``wakeups`` wakeups of ``fill`` frames
    each, the flow warmed first; and the router, for its books."""
    router = LiveRouter("r2")
    endpoint = router.endpoint
    sock = ScriptedSocket()
    sock.sendto = lambda datagram, addr: None
    endpoint._sock = sock
    endpoint._loop = FakeLoop()
    router.connect_port(1, UPSTREAM)
    router.connect_port(2, DOWNSTREAM)
    arrivals = [(middle_hop_frame(router), UPSTREAM)] * fill
    queue, drain = sock.queue, endpoint._on_readable
    for _ in range(3):
        queue.extend(arrivals)
        drain()
    # No collection inside the window: one would count the gc callbacks
    # of whatever else the process has loaded (Hypothesis installs one),
    # which are not the hop's work.
    gc.collect()
    gc.disable()
    try:
        profile = cProfile.Profile()
        profile.enable()
        for _ in range(wakeups):
            queue.extend(arrivals)
            drain()
        profile.disable()
    finally:
        gc.enable()
    # Summed over the raw entries (pstats merges by file, line and name).
    calls = sum(entry.callcount for entry in profile.getstats())
    return calls / (fill * wakeups), router


@pytest.mark.parametrize("fill", sorted(CEILINGS))
def test_the_warm_hops_calls_per_frame_do_not_grow(fill):
    calls, router = replay(fill, WAKEUPS[fill])
    frames = fill * (3 + WAKEUPS[fill])
    # Every frame was forwarded warm: one cold install, the rest hits.
    assert router.metrics.forwarded == router.metrics.frames_out == frames
    assert router.metrics.drops == {}
    assert router.flow_cache.stats.hits == frames - 1
    assert router.token_cache.ledger.usage(7).packets == frames
    assert calls <= CEILINGS[fill], (
        f"fill {fill}: {calls:.2f} calls per warm frame-hop, more than "
        f"the {CEILINGS[fill]} this hop made; if the new work is meant, "
        "say why where the ceiling is raised"
    )
