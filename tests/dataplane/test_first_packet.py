"""A flow's first packet takes the decision every later packet takes.

The flow cache memoises one ``Decision`` per flow (§2.2 soft state).
The packet that installs the flow is handed that same object when it
leaves whole and waits for no token check, so its move is the warm
move: the memoised return tail appended by ``hop_move_into``.  Checked
on both substrates, each against the structural oracle of
``tests/live/oracle.py``: a simulator hop (its frame grows for the
return tail) and a live hop in a ring slot.
"""

import pytest

from repro.core.packet import FramePacket
from repro.live.frames import decode_preamble, encode_live_frame
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment, PacketView
from tests.core.test_sim_hop_differential import (
    Wired,
    frame_for,
    oracle_hop,
    sim_hop,
)
from tests.live.oracle import capture_router, expected_outcome, slot_view

PEER = ("127.0.0.1", 9001)   # a live frame arrives on port 1
OUT = 2


def recording_step(core):
    """Wrap ``core.step`` to keep every decision it returns."""
    decisions, step = [], core.step

    def recorded(*args, **kwargs):
        decisions.append(step(*args, **kwargs))
        return decisions[-1]

    core.step = recorded
    return decisions


@pytest.mark.parametrize("token, grows", [("valid", False), ("none", True)])
def test_a_sim_flows_first_and_second_packets(token, grows, monkeypatch):
    """Frames built with no room to spare: a tokenless lead is shorter
    than the return hop that replaces it, so each move grows its frame;
    a tokened one strips more than it appends."""
    wired, twin = Wired(require_tokens=False), Wired(require_tokens=False)
    init, grow, grown = FramePacket.__init__, FramePacket.grow, []

    def exact(packet, *args, **kwargs):
        init(packet, *args, **kwargs)
        packet.view = PacketView(bytearray(packet.view.mem), 0, len(packet.view.mem))

    monkeypatch.setattr(FramePacket, "__init__", exact)
    monkeypatch.setattr(
        FramePacket, "grow", lambda packet: grown.append(1) or grow(packet)
    )
    decisions = recording_step(wired.router.core)
    arrival = ("p2p", False, token, 3, [HeaderSegment(port=0)], [], False, 200, 0)
    datagram = frame_for(wired, arrival)
    for _ in range(2):
        expected = oracle_hop(twin, datagram, False, wired.sim.now)
        assert sim_hop(wired, datagram, False, monkeypatch) == expected
        assert expected[0][0] == "forward"
    first, second = decisions
    assert first is second and first.return_tail is not None
    assert len(grown) == (2 if grows else 0)
    assert wired.router.flow_cache.stats.hits == 1


def test_a_live_flows_first_and_second_packets():
    router, sent = capture_router("r", ports=(1, OUT))
    twin, _ = capture_router("r", ports=(1, OUT))
    decisions = recording_step(router.core)
    token = router.mint.mint(port=OUT, account=7, reverse_ok=True)
    datagram = encode_live_frame(SirpentPacket(
        segments=[HeaderSegment(port=OUT, token=token), HeaderSegment(port=0)],
        payload_size=64, payload=bytes(64),
    ), bytes(64))
    for _ in range(2):
        router._on_batch([(
            slot_view(router.endpoint.ring, datagram), PEER,
            decode_preamble(datagram),
        )])
    first, second = decisions
    assert first is second and first.return_tail is not None
    assert (sent, {}) == expected_outcome(twin, [(datagram, PEER)] * 2)
    assert router.flow_cache.stats.hits == 1
