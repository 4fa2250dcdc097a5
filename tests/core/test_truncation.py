"""Unit tests for truncation-instead-of-fragmentation (§2).

The one truncation move is :func:`repro.live.frames.truncate_into`, on
a frame's bytes; ``tests/live/oracle.py::truncate_structurally`` is the
structural reference it is checked against.
"""

import pytest

from repro.core.host import SirpentHost
from repro.core.packet import HEADER
from repro.core.router import SirpentRouter
from repro.live.frames import truncate_into
from repro.net.link import Channel
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.packet import SirpentPacket, TRUNCATION_MARK, encode_packet
from repro.viper.wire import HeaderSegment
from tests.live.oracle import sim_packet, structural, truncate_structurally


def make_packet(payload, n_segments=2, alternates=()):
    segments = [HeaderSegment(port=i + 1) for i in range(n_segments)]
    if alternates:
        segments[-1] = segments[-1].copy(slick=True)
    return SirpentPacket(
        segments=segments, payload_size=payload,
        alternates=[list(block) for block in alternates],
    )


def truncated(packet, mtu):
    """``packet`` cut to ``mtu`` by the frame move, checked byte for
    byte against the structural reference; returns the frame."""
    frame = sim_packet(packet)
    assert truncate_into(frame.view, mtu)
    truncate_structurally(packet, mtu)
    assert frame.view.tobytes()[HEADER:] == encode_packet(packet)
    return frame


def test_truncate_sizes_the_frame_by_its_bytes():
    packet = make_packet(100)  # 2*4 + 100 = 108
    assert sim_packet(packet).wire_size() == 108
    assert truncated(packet, 200).wire_size() == 110  # only the mark


def test_truncate_cuts_payload_to_fit():
    packet = make_packet(1000)
    frame = truncated(packet, 500)
    assert frame.wire_size() <= 500
    assert packet.truncated
    assert frame.payload_size == packet.payload_size < 1000


def test_truncate_reserves_room_for_mark():
    # header 8 + payload + mark 2 == 500 exactly
    assert truncated(make_packet(1000), 500).wire_size() == 500


def test_double_truncation_adds_one_mark():
    packet = make_packet(1000)
    frame = truncated(packet, 500)
    assert truncate_into(frame.view, 300)
    marks = sum(1 for e in structural(frame).trailer if e is TRUNCATION_MARK)
    assert marks == 1
    assert frame.wire_size() == 300


def test_untruncatable_packet_raises():
    """If even the headers do not fit, the source route was invalid —
    the directory's MTU attribute exists to prevent this (§3)."""
    frame = sim_packet(make_packet(10, n_segments=4))  # 16 bytes of headers
    before = frame.view.tobytes()
    with pytest.raises(ValueError):
        truncate_into(frame.view, 10)
    assert frame.view.tobytes() == before


def test_exact_fit_needs_no_cut():
    packet = make_packet(100)
    frame = truncated(packet, packet.wire_size() + 2)
    assert frame.payload_size == 100
    assert packet.truncated  # still marked: the router decided to truncate


def test_alternate_blocks_count_against_the_mtu():
    """3 segments, a 2-segment alternate block and 1,400 B of payload,
    cut for a 1,000 B link: the block's bytes are packet bytes too."""
    packet = make_packet(
        1400, n_segments=3,
        alternates=[[HeaderSegment(port=9), HeaderSegment(port=0)]],
    )
    assert truncated(packet, 1000).wire_size() == 1000


def test_a_slick_packet_leaves_a_router_within_the_link_mtu(monkeypatch):
    """Regression: truncation sized the segments and the trailer but not
    the alternate blocks, so a slick packet cut for a 1,000 B link went
    onto it 41 B too large."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    r1 = topo.add_node(SirpentRouter(sim, "r1"))
    r2 = topo.add_node(SirpentRouter(sim, "r2"))
    _, src_port, _ = topo.connect(src, r1)
    _, to_r2, _ = topo.connect(r1, r2, mtu=1000)
    _, to_dst, _ = topo.connect(r2, dst)
    got = []
    dst.bind(0, got.append)
    clocked = []
    transmit = Channel.transmit

    def record(self, packet, size, *args, **kwargs):
        clocked.append((size, self.mtu))
        return transmit(self, packet, size, *args, **kwargs)

    monkeypatch.setattr(Channel, "transmit", record)

    class SlickRoute:
        segments = [
            HeaderSegment(port=to_r2),
            HeaderSegment(port=to_dst, slick=True),
            HeaderSegment(port=0),
        ]
        alternates = [[HeaderSegment(port=to_dst), HeaderSegment(port=0)]]
        first_hop_port = src_port
        first_hop_mac = None

    src.send(SlickRoute, b"big".ljust(1400, b"\0"))
    sim.run(until=1.0)
    assert len(got) == 1 and got[0].trailer.truncated
    assert r1.stats.truncated.count == 1
    assert all(size <= mtu for size, mtu in clocked), clocked
