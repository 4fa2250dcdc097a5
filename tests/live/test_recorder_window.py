"""The flight recorder keeps faults, not traffic.

The overlay's recorder is always on, and its ring holds
``DEFAULT_CAPACITY`` events.  A frame forwarded or delivered cleanly is
counted (``forwarded`` / ``delivered_local``) and, when traced, followed
by the tracer; it takes no ring slot.  So however much clean traffic
follows a ``link_down``, the ring still holds it, while a drop and a
Slick reroute are each still one event.  Socket-free: a live router
core and a :class:`~repro.live.host.LiveHost` share one recorder, as in
the overlay, and are handed ring slots directly.
"""

from repro.live.frames import decode_preamble
from repro.live.host import LiveHost
from repro.obs.recorder import DEFAULT_CAPACITY, FlightRecorder
from repro.viper.wire import HeaderSegment
from tests.live.oracle import capture_router, slot_view
from tests.live.test_run_forwarding import (
    ALT, DEAD, LIVE, PEER_A, PEER_DEAD, frame, token_for,
)

SOCKET = 7
#: Where the host hears the router from.
ROUTER = ("127.0.0.1", 9000 + LIVE)
#: Frames handed over per wakeup: the capture router's ring has 8 slots.
BATCH = 8


def _feed(endpoint, datagrams, source):
    endpoint.on_batch([
        (view, source, decode_preamble(view.mem))
        for view in (slot_view(endpoint.ring, d) for d in datagrams)
    ])


def test_clean_frames_leave_the_ring_to_the_faults():
    recorder = FlightRecorder(clock=lambda: 0.0)
    router, sent = capture_router("r", ports=(1, 2, LIVE, DEAD, ALT))
    local = []
    router.local_handler = lambda datagram, source: local.append(datagram)
    host = LiveHost("h")
    host.connect_port(1, ROUTER)
    delivered = []
    host.bind(SOCKET, delivered.append)
    router.set_recorder(recorder)
    host.set_recorder(recorder)

    router._on_peer_dead(PEER_DEAD)
    assert [event.name for event in recorder.events()] == ["link_down"]
    recorded = recorder.recorded

    through = frame(HeaderSegment(port=LIVE), rest=(HeaderSegment(port=SOCKET),))
    here = frame(HeaderSegment(port=0))
    clean = 2 * DEFAULT_CAPACITY
    for _ in range(clean // BATCH):
        _feed(router.endpoint, [through] * (BATCH - 1) + [here], PEER_A)
        _feed(host.endpoint, [datagram for datagram, _ in sent], ROUTER)
        sent.clear()
    assert len(delivered) == clean // BATCH * (BATCH - 1)
    assert len(local) == clean // BATCH
    assert router.metrics.forwarded == len(delivered)
    assert host.metrics.delivered_local == len(delivered)
    assert recorder.recorded == recorded
    assert [event.name for event in recorder.events()] == ["link_down"]

    # The token names another port: admitted optimistically while it is
    # verified, refused from the cache after.
    rejected = frame(HeaderSegment(port=LIVE, token=token_for(LIVE ^ 1)))
    _feed(router.endpoint, [rejected] * 2, PEER_A)
    assert len(sent) == 1
    sent.clear()
    assert recorder.recorded == recorded + 1
    drop = recorder.events()[-1]
    assert (drop.name, drop.fields["reason"]) == ("frame_dropped", "token_reject")

    _feed(router.endpoint, [frame(HeaderSegment(port=DEAD, slick=True))], PEER_A)
    assert [addr for _, addr in sent] == [("127.0.0.1", 9000 + ALT)]
    assert recorder.recorded == recorded + 2
    assert [event.name for event in recorder.events()] == [
        "link_down", "frame_dropped", "slick_reroute",
    ]
