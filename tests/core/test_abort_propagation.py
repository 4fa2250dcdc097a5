"""Tests for abort propagation through cut-through chains (§2.1).

When a preemptive packet aborts a lower-priority transmission whose
head is already being cut-through forwarded downstream, the abort must
ripple down the chain — the truncated tail never arrives, so every
downstream hop's copy dies too.
"""

import gc
import weakref

import pytest

from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.flags import PRIORITY_PREEMPT_HIGH
from repro.viper.portinfo import EthernetInfo
from repro.viper.wire import HeaderSegment
from tests.sim.oracle import pending


def build_chain(n_routers=2, rate=1e6):
    """Slow links so packets are in flight long enough to preempt."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    routers = [
        topo.add_node(SirpentRouter(
            sim, f"r{i + 1}", config=RouterConfig(congestion_enabled=False),
        ))
        for i in range(n_routers)
    ]
    _, src_port, _ = topo.connect(src, routers[0], rate_bps=rate)
    ports = []
    for a, b in zip(routers, routers[1:]):
        _, pa, _ = topo.connect(a, b, rate_bps=rate)
        ports.append(pa)
    _, last, _ = topo.connect(routers[-1], dst, rate_bps=rate)
    ports.append(last)
    return sim, src, dst, routers, src_port, ports


def assert_nothing_survives(sim, packet_refs):
    """No per-packet tracking state outlives its transmission: the
    engine has nothing left to do, and nothing in the network still
    holds a packet the test itself let go of."""
    gc.collect()
    assert pending(sim) == 0
    assert [ref() for ref in packet_refs] == [None] * len(packet_refs)


def assert_no_packet_state(router):
    """Nothing per packet is left in the router: no stream still in
    flight, and no record keyed by packet (a frame cut through at its
    header has its completion cancelled, not remembered)."""
    assert [port.streaming for port in router.output_ports.values()] == [
        None
    ] * len(router.output_ports)
    assert [name for name, value in vars(router).items() if isinstance(value, set)] == []


def test_preemption_aborts_the_whole_cut_through_chain():
    sim, src, dst, routers, src_port, ports = build_chain()
    got = []
    dst.bind(0, got.append)
    route = Route(
        "dst", [HeaderSegment(port=p) for p in ports] + [HeaderSegment(port=0)],
        src_port, None,
    )
    # 5000B at 1 Mb/s = 40 ms on the wire; r1 starts cutting through at
    # ~0.1 ms.  Preempt at 10 ms: every downstream copy must die.
    victim = weakref.ref(src.send(route, b"victim".ljust(5000, b"\0"), priority=0))
    sim.at(10e-3, lambda: src.send(route, b"urgent".ljust(200, b"\0"),
                                   priority=PRIORITY_PREEMPT_HIGH))
    sim.run(until=1.0)
    payloads = [d.payload.rstrip(b"\0") for d in got]
    assert payloads == [b"urgent"]
    # Nothing stale remains of the aborted cut-through chain.
    got.clear()
    assert_nothing_survives(sim, [victim])


def test_abort_does_not_disturb_unrelated_traffic():
    sim, src, dst, routers, src_port, ports = build_chain()
    got = []
    dst.bind(0, got.append)
    route = Route(
        "dst", [HeaderSegment(port=p) for p in ports] + [HeaderSegment(port=0)],
        src_port, None,
    )
    src.send(route, b"victim".ljust(5000, b"\0"), priority=0)
    sim.at(10e-3, lambda: src.send(route, b"urgent".ljust(200, b"\0"),
                                   priority=PRIORITY_PREEMPT_HIGH))
    # A later normal packet flows normally after the dust settles.
    sim.at(100e-3, lambda: src.send(route, b"later".ljust(300, b"\0"), priority=0))
    sim.run(until=1.0)
    assert [d.payload.rstrip(b"\0") for d in got] == [b"urgent", b"later"]


def test_router_forwarding_records_cleaned_on_normal_delivery():
    sim, src, dst, routers, src_port, ports = build_chain(n_routers=1)
    dst.bind(0, lambda d: None)
    route = Route(
        "dst", [HeaderSegment(port=ports[0]), HeaderSegment(port=0)], src_port, None
    )
    sent = [weakref.ref(src.send(route, bytes(500))) for _ in range(3)]
    sim.run(until=1.0)
    # The cut-through tracking must not leak.
    assert_nothing_survives(sim, sent)


def test_abort_after_the_outbound_transmission_ended_aborts_nothing():
    """The tail-abort of a packet the router finished sending long ago
    must not touch whatever the port is streaming by then."""
    sim, src, dst, routers, src_port, ports = build_chain(n_routers=1)
    got = []
    dst.bind(0, got.append)
    route = Route(
        "dst", [HeaderSegment(port=ports[0]), HeaderSegment(port=0)], src_port, None
    )
    first = src.send(route, b"first".ljust(500, b"\0"))
    sim.run(until=50e-3)
    assert [d.payload.rstrip(b"\0") for d in got] == [b"first"]
    # 5000B at 1 Mb/s = 40 ms: 10 ms in, r1 is cutting "second" through.
    src.send(route, b"second".ljust(5000, b"\0"))
    sim.run(until=sim.now + 10e-3)
    upstream = next(
        a for a in routers[0].ports.values() if a.peer_name == "src"
    )
    routers[0].on_abort(first, upstream)
    sim.run(until=1.0)
    assert [d.payload.rstrip(b"\0") for d in got] == [b"first", b"second"]


def test_link_failure_mid_frame_aborts_the_chain_downstream():
    """A frame cut in half by a link failure must not be delivered whole:
    r2 already cut its header through when r1's outbound link died, so
    the abort has to reach it (and ripple on) just as a preemption's does."""
    sim, src, dst, routers, src_port, ports = build_chain()
    got = []
    dst.bind(0, got.append)
    route = Route(
        "dst", [HeaderSegment(port=p) for p in ports] + [HeaderSegment(port=0)],
        src_port, None,
    )
    victim = weakref.ref(src.send(route, b"victim".ljust(5000, b"\0")))
    r1_to_r2 = routers[0].ports[ports[0]].tx_channel
    sim.at(10e-3, r1_to_r2.fail)
    sim.at(60e-3, r1_to_r2.restore)
    sim.at(100e-3, lambda: src.send(route, b"later".ljust(300, b"\0")))
    sim.run(until=1.0)
    assert [d.payload.rstrip(b"\0") for d in got] == [b"later"]
    assert r1_to_r2.packets_aborted.count == 1
    # r2 aborted its own half-sent copy instead of clocking it all out.
    assert routers[1].ports[ports[1]].tx_channel.packets_aborted.count == 1
    got.clear()
    assert_nothing_survives(sim, [victim])
    # Every frame r2 started cutting through was also finished or aborted.
    assert_no_packet_state(routers[1])


def test_link_failure_before_the_header_lands_is_silent():
    """r2 has seen nothing of the frame yet: nothing to abort there."""
    sim, src, dst, routers, src_port, ports = build_chain()
    aborts = []
    routers[1].on_abort = lambda packet, inport: aborts.append(packet)
    r1_to_r2 = routers[0].ports[ports[0]].tx_channel
    route = Route(
        "dst", [HeaderSegment(port=p) for p in ports] + [HeaderSegment(port=0)],
        src_port, None,
    )
    src.send(route, b"victim".ljust(5000, b"\0"))
    # A 4-byte header is 32 us of wire at 1 Mb/s: r1 has it (and starts
    # sending) at ~32 us + propagation, r2 another 32 us + propagation on.
    header_at_r1 = 32e-6 + r1_to_r2.propagation_delay
    sim.at(header_at_r1 + 10e-6, r1_to_r2.fail)
    sim.run(until=1.0)
    assert r1_to_r2.packets_aborted.count == 1
    assert aborts == []
    assert routers[1].stats.cut_through_forwards.count == 0


def build_ethernet_hop():
    """src --p2p-- r1 ==ethernet== dst: r1 cuts through onto the segment."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    r1 = topo.add_node(SirpentRouter(
        sim, "r1", config=RouterConfig(congestion_enabled=False),
    ))
    segment = topo.add_ethernet("eth", rate_bps=1e6)
    _, src_port, _ = topo.connect(src, r1, rate_bps=1e6)
    r1_tap = topo.attach_to_ethernet(r1, segment)
    dst_tap = topo.attach_to_ethernet(dst, segment)
    route = Route(
        "dst", [
            HeaderSegment(
                port=r1_tap.port_id,
                portinfo=EthernetInfo(
                    dst=dst_tap.mac, src=r1_tap.mac, ethertype=0
                ).to_bytes(),
            ),
            HeaderSegment(port=0),
        ],
        src_port, None,
    )
    return sim, src, dst, r1, segment, route


@pytest.mark.parametrize("fail_at", [
    pytest.param(0.0, id="sent-into-the-dead-segment"),
    pytest.param(170e-6, id="before-the-header-lands"),
    pytest.param(10e-3, id="mid-frame"),
])
def test_ethernet_failure_leaves_no_packet_behind(fail_at):
    """However a segment failure loses a cut-through frame, r1's record
    of it goes with it, just as after a completed transmission — no
    later send on the port is needed to displace it."""
    sim, src, dst, r1, segment, route = build_ethernet_hop()
    got = []
    dst.bind(0, got.append)
    # 5000 B at 1 Mb/s = 40 ms per medium.  r1 starts the frame onto the
    # segment 154.5 us after src starts it; dst has the 4-byte header
    # that is left 37 us later.
    sim.at(fail_at, segment.fail)
    lost = weakref.ref(src.send(route, b"lost".ljust(5000, b"\0")))
    sim.run(until=1.0)
    assert got == []
    assert r1.stats.cut_through_forwards.count == 1
    assert_nothing_survives(sim, [lost])
    assert_no_packet_state(r1)
