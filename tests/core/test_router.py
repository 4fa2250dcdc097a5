"""Unit tests for the Sirpent router pipeline (§2, §2.1)."""

import pytest

from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.packet import SirpentPacket
from repro.viper.wire import HeaderSegment
from tests.live.oracle import return_route, sim_packet, structural


def build_line(n_routers=1, config=None, rate=10e6, prop=10e-6, mtu=1500):
    """src -- r1 .. rn -- dst; returns (sim, topo, src, routers, dst, ports).

    ``ports[i]`` is the port on router i leading toward the destination.
    """
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    routers = [
        topo.add_node(SirpentRouter(sim, f"r{i + 1}", config=config))
        for i in range(n_routers)
    ]
    _, src_port, _ = topo.connect(src, routers[0], rate_bps=rate,
                                  propagation_delay=prop, mtu=mtu)
    forward_ports = []
    for a, b in zip(routers, routers[1:]):
        _, pa, _ = topo.connect(a, b, rate_bps=rate,
                                propagation_delay=prop, mtu=mtu)
        forward_ports.append(pa)
    _, last_port, _ = topo.connect(routers[-1], dst, rate_bps=rate,
                                   propagation_delay=prop, mtu=mtu)
    forward_ports.append(last_port)
    return sim, topo, src, routers, dst, src_port, forward_ports


class StaticRoute:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def route_through(forward_ports, src_port, dest_socket=0, token=b""):
    segments = [
        HeaderSegment(port=p, token=token) for p in forward_ports
    ] + [HeaderSegment(port=dest_socket)]
    return StaticRoute(segments, src_port)


def test_forwarding_strips_segment_and_builds_trailer():
    sim, _topo, src, routers, dst, src_port, fwd = build_line(2)
    got = []
    dst.bind(0, got.append)
    src.send(route_through(fwd, src_port), b"data".ljust(400, b"\0"))
    sim.run(until=1.0)
    assert len(got) == 1
    delivered = got[0]
    # Both routers consumed their segment; only the final one remains.
    packet = structural(delivered.packet)
    assert len(packet.segments) == 1
    assert len(packet.trailer) == 2
    # The return route walks back through both routers in reverse; on a
    # line each router's inbound port toward the source is port 1.
    assert len(return_route(delivered)) == 2
    assert all(s.rpf for s in return_route(delivered))


def test_cut_through_beats_store_and_forward():
    """§6.1: per-hop serialization disappears with cut-through."""
    results = {}
    for label, config in (
        ("cut", RouterConfig(cut_through=True, decision_delay=0.5e-6)),
        ("sf", RouterConfig(cut_through=False,
                            store_forward_process_delay=50e-6)),
    ):
        sim, _t, src, _r, dst, src_port, fwd = build_line(3, config=config)
        got = []
        dst.bind(0, got.append)
        src.send(route_through(fwd, src_port), bytes(1000))
        sim.run(until=1.0)
        results[label] = got[0].arrived_at - got[0].packet.created_at
    serialization = 1000 * 8 / 10e6  # 0.8 ms
    # Store-and-forward pays ~3 extra serializations (+ processing).
    assert results["sf"] - results["cut"] > 2.5 * serialization
    assert results["cut"] < 1.5 * serialization


def test_router_counts_cut_through():
    sim, _t, src, routers, dst, src_port, fwd = build_line(1)
    dst.bind(0, lambda d: None)
    src.send(route_through(fwd, src_port), bytes(500))
    sim.run(until=1.0)
    assert routers[0].stats.cut_through_forwards.count == 1
    assert routers[0].stats.store_forwards.count == 0


def test_store_forward_mode_counted():
    config = RouterConfig(cut_through=False)
    sim, _t, src, routers, dst, src_port, fwd = build_line(1, config=config)
    dst.bind(0, lambda d: None)
    src.send(route_through(fwd, src_port), bytes(500))
    sim.run(until=1.0)
    assert routers[0].stats.store_forwards.count == 1
    assert routers[0].stats.cut_through_forwards.count == 0


def test_rate_mismatch_falls_back_to_store_forward():
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    router = topo.add_node(SirpentRouter(sim, "r1"))
    _, src_port, _ = topo.connect(src, router, rate_bps=10e6)
    _, out_port, _ = topo.connect(router, dst, rate_bps=100e6)  # faster out
    got = []
    dst.bind(0, got.append)
    src.send(route_through([out_port], src_port), bytes(500))
    sim.run(until=1.0)
    assert got
    assert router.stats.store_forwards.count == 1


def test_no_route_dropped():
    sim, _t, src, routers, dst, src_port, fwd = build_line(1)
    bad = StaticRoute([HeaderSegment(port=99), HeaderSegment(port=0)], src_port)
    src.send(bad, bytes(100))
    sim.run(until=1.0)
    assert routers[0].stats.dropped_no_route.count == 1


def test_route_exhausted_counted():
    sim, _t, src, routers, _d, src_port, fwd = build_line(1)
    empty = StaticRoute([], src_port)
    packet = sim_packet(SirpentPacket(segments=[], payload_size=50))
    src.output_ports[src_port].submit(packet, 50, 50)
    sim.run(until=1.0)
    assert routers[0].stats.route_exhausted.count == 1


def test_local_delivery_port_zero():
    sim, _t, src, routers, _d, src_port, fwd = build_line(1)
    received = []
    routers[0].local_handler = lambda packet, inport: received.append(packet)
    local = StaticRoute([HeaderSegment(port=0)], src_port)
    src.send(local, b"to-router".ljust(100, b"\0"))
    sim.run(until=1.0)
    assert len(received) == 1
    assert routers[0].stats.delivered_local.count == 1


def test_token_rejection_with_require_tokens():
    config = RouterConfig(require_tokens=True)
    sim, _t, src, routers, dst, src_port, fwd = build_line(1, config=config)
    got = []
    dst.bind(0, got.append)
    src.send(route_through(fwd, src_port), bytes(100))  # no token
    sim.run(until=1.0)
    assert got == []
    assert routers[0].stats.dropped_token.count == 1


def test_valid_token_admitted_and_charged():
    config = RouterConfig(require_tokens=True)
    sim, _t, src, routers, dst, src_port, fwd = build_line(1, config=config)
    token = routers[0].mint.mint(port=fwd[0], account=55)
    got = []
    dst.bind(0, got.append)
    src.send(route_through(fwd, src_port, token=token), bytes(100))
    sim.run(until=1.0)
    assert len(got) == 1
    assert routers[0].token_cache.ledger.usage(55).packets == 1


def test_reverse_authorized_token_survives_into_trailer():
    sim, _t, src, routers, dst, src_port, fwd = build_line(1)
    token = routers[0].mint.mint(port=fwd[0], account=1, reverse_ok=True)
    got = []
    dst.bind(0, got.append)
    src.send(route_through(fwd, src_port, token=token), bytes(100))
    sim.run(until=1.0)
    assert return_route(got[0])[0].token == token


def test_non_reverse_token_stripped_from_trailer():
    sim, _t, src, routers, dst, src_port, fwd = build_line(1)
    token = routers[0].mint.mint(port=fwd[0], account=1, reverse_ok=False)
    got = []
    dst.bind(0, got.append)
    src.send(route_through(fwd, src_port, token=token), bytes(100))
    sim.run(until=1.0)
    assert return_route(got[0])[0].token == b""


def test_mtu_truncation_on_forward():
    """Oversized packets are truncated, never fragmented (§2)."""
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    router = topo.add_node(SirpentRouter(sim, "r1"))
    _, src_port, _ = topo.connect(src, router, mtu=3000)
    _, out_port, _ = topo.connect(router, dst, mtu=576)
    got = []
    dst.bind(0, got.append)
    src.send(route_through([out_port], src_port), b"big".ljust(2000, b"\0"))
    sim.run(until=1.0)
    assert len(got) == 1
    assert got[0].trailer.truncated
    assert got[0].packet.wire_size() <= 576
    assert router.stats.truncated.count == 1


def _counting_grow(monkeypatch):
    """Count FramePacket.grow calls, each handing on the real result."""
    from repro.core.packet import FramePacket

    grown = []
    real = FramePacket.grow

    def grow(packet):
        grown.append(len(packet.view.buffer))
        return real(packet)

    monkeypatch.setattr(FramePacket, "grow", grow)
    return grown


def test_a_move_the_buffer_has_no_room_for_grows_the_frame(monkeypatch):
    """A transit splice longer than the frame's spare room: the router
    grows the frame's buffer, retries the move and forwards it whole."""
    sim, _t, src, routers, dst, src_port, fwd = build_line(3)
    transit = [
        HeaderSegment(port=fwd[0]),
        HeaderSegment(port=fwd[1], portinfo=b"\x01" * 60),
        HeaderSegment(port=fwd[2], portinfo=b"\x02" * 60),
    ]
    routers[0].logical.add_transit(150, transit)
    grown = _counting_grow(monkeypatch)
    got = []
    dst.bind(0, got.append)
    src.send(
        StaticRoute([HeaderSegment(port=150), HeaderSegment(port=0)], src_port),
        b"data".ljust(400, b"\0"),
    )
    sim.run(until=1.0)
    assert grown, "the splice must outgrow the frame's buffer"
    assert len(got) == 1
    assert got[0].payload == b"data".ljust(400, b"\0")
    assert got[0].packet.hop_log == ["r1", "r2", "r3"]
    assert len(return_route(got[0])) == 3
    assert routers[0].stats.forwarded.count == 1


def test_a_truncation_the_buffer_has_no_room_for_grows_the_frame(monkeypatch):
    """The truncation's retry: a buffer with no room for the truncation
    mark (stood in for by a first refusal) grows, and the frame leaves
    truncated to the egress MTU."""
    import repro.dataplane.router as core_module

    real = core_module.truncate_into
    refused = []

    def full_once(view, mtu):
        if not refused:
            refused.append(mtu)
            return False
        return real(view, mtu)

    monkeypatch.setattr(core_module, "truncate_into", full_once)
    grown = _counting_grow(monkeypatch)
    sim = Simulator()
    topo = Topology(sim)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    router = topo.add_node(SirpentRouter(sim, "r1"))
    _, src_port, _ = topo.connect(src, router, mtu=3000)
    _, out_port, _ = topo.connect(router, dst, mtu=576)
    got = []
    dst.bind(0, got.append)
    src.send(route_through([out_port], src_port), b"big".ljust(2000, b"\0"))
    sim.run(until=1.0)
    assert refused == [576] and len(grown) == 1
    assert len(got) == 1 and got[0].trailer.truncated
    assert got[0].packet.wire_size() <= 576
    assert router.stats.truncated.count == 1


def test_decision_delay_charged():
    config = RouterConfig(decision_delay=100e-6)
    sim, _t, src, routers, dst, src_port, fwd = build_line(1, config=config)
    got = []
    dst.bind(0, got.append)
    src.send(route_through(fwd, src_port), bytes(1000))
    sim.run(until=1.0)
    delay = routers[0].stats.router_delay
    assert delay.count == 1
    assert delay.mean == pytest.approx(100e-6, rel=0.01)


def test_hop_log_records_path():
    sim, _t, src, _r, dst, src_port, fwd = build_line(3)
    got = []
    dst.bind(0, got.append)
    src.send(route_through(fwd, src_port), bytes(100))
    sim.run(until=1.0)
    assert got[0].packet.hop_log == ["r1", "r2", "r3"]
    assert got[0].packet.hops_taken == 3


def test_sim_adapters_answer_the_whole_pipeline_driver_surface():
    """The pipeline's driver contract is a surface, not a class (see the
    ``HopInput`` and ``PortMap`` docstrings): the sim hands it its own
    attachments as port profiles, and the one hop reader finds every
    ``HopInput`` field in the frame's bytes."""
    import dataclasses

    from repro.dataplane import HopInput, PortProfile
    from repro.dataplane.router import FrameHop
    from repro.net.link import Transmission

    sim = Simulator()
    topo = Topology(sim)
    router = topo.add_node(SirpentRouter(sim, "r"))
    host = topo.add_node(SirpentHost(sim, "h"))
    _, p2p_port, _ = topo.connect(router, host)
    tap = topo.attach_to_ethernet(router, topo.add_ethernet("eth"))

    ports = router.pipeline.ports
    assert ports.profile(99) is None
    for port_id, kind in ((p2p_port, "p2p"), (tap.port_id, "ethernet")):
        profile = ports.profile(port_id)
        for field in dataclasses.fields(PortProfile):
            assert hasattr(profile, field.name), (kind, field.name)
        assert profile.kind == kind and profile.up is True

    packet = sim_packet(SirpentPacket(
        segments=[HeaderSegment(port=p2p_port), HeaderSegment(port=0)],
        payload_size=10,
    ))
    tx = Transmission(packet, packet.wire_size(), 0, None, None)
    seen = []
    decide = router.pipeline.decide

    def read(hop):
        assert isinstance(hop, FrameHop)
        for field in dataclasses.fields(HopInput):
            assert hasattr(hop, field.name), field.name
        seen.append((
            bytes(hop.lead), hop.segment.port, hop.seg_count, hop.wire_size,
            hop.in_port, hop.now_ms, hop.reverse_portinfo(), hop.alternate(),
        ))
        return decide(hop)

    router.pipeline.decide = read
    sim.run(until=0.007)
    router._process(packet, tap, tx, tx.size, 0.0)
    assert seen == [(
        HeaderSegment(port=p2p_port).wire, p2p_port, 2, tx.size, tap.port_id,
        7, b"", None,
    )]
