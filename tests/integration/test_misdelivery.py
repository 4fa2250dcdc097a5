"""Integration: corruption without a header checksum (§4.1).

Sirpent deliberately omits the header checksum, so corrupted packets may
be *misrouted rather than dropped immediately*; the transport layer must
catch the damage.  These tests inject bit errors on a link and verify
the end-to-end accounting.
"""


from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.transport import RouteManager, VmtpTransport
from repro.viper.wire import HeaderSegment


def build_lossy_line(corruption_rate=0.3, seed=5):
    sim = Simulator()
    topo = Topology(sim)
    rng = RngStreams(seed).stream("corruption")
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    bystander = topo.add_node(SirpentHost(sim, "bystander"))
    router = topo.add_node(SirpentRouter(sim, "r1"))
    _, src_port, _ = topo.connect(
        src, router, corruption_rate=corruption_rate, rng=rng,
    )
    _, out_port, _ = topo.connect(router, dst)
    _, other_port, _ = topo.connect(router, bystander)
    return sim, topo, src, dst, bystander, router, src_port, out_port


class StaticRoute:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def test_corrupted_packets_still_delivered_somewhere():
    sim, _t, src, dst, bystander, router, src_port, out_port = (
        build_lossy_line(corruption_rate=1.0)
    )
    seen_dst, seen_other = [], []
    dst.bind(0, seen_dst.append)
    bystander.bind(0, seen_other.append)
    route = StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=0)], src_port
    )
    payload = bytes(200)
    for _ in range(40):
        src.send(route, payload)
    sim.run(until=2.0)
    delivered = len(seen_dst) + len(seen_other)
    # Some packets are misrouted to the bystander or into dead ports,
    # but corruption never makes the network *drop* them outright:
    corrupted_seen = [d for d in seen_dst + seen_other if d.payload != payload]
    assert corrupted_seen, "no corrupted packet survived to any host"
    assert router.stats.dropped_no_route.count + delivered == 40


def test_transport_checksum_catches_corruption():
    """Every corrupted PDU is discarded by the transport, none are
    delivered to the application."""
    sim, _t, src, dst, _b, _r, src_port, out_port = build_lossy_line(
        corruption_rate=0.5,
    )
    t_src = VmtpTransport(sim, src)
    t_dst = VmtpTransport(sim, dst)
    served = []

    def handler(message):
        served.append(message)
        return b"ok", 32

    entity = t_dst.create_entity(handler, hint="server")
    route = StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=1)], src_port
    )
    manager = RouteManager(sim, [_route_obj(route)])
    results = []
    t_src.transact(manager, entity, b"payload", 128, results.append)
    sim.run(until=5.0)
    # Retransmissions eventually push a clean copy through.
    assert results and results[0].ok
    assert t_dst.stats.checksum_failures.count >= 1
    assert all(not m.payload_parts[0] == None for m in served)


def test_a_seeded_corruption_run_counts_checksum_discards_by_reason():
    """The simulator's PDUs are the codec's bytes, so a bit error flips
    a real byte and the receiving transport's CRC-32 finds it: every
    such PDU is discarded and counted under ``checksum``, by reason as
    the live overlay counts it.  The host's ``undeliverable`` (frames no
    socket took, which tables read) does not move."""
    sim, _t, src, dst, _b, _r, src_port, out_port = build_lossy_line(
        corruption_rate=0.5, seed=7,
    )
    t_src = VmtpTransport(sim, src)
    t_dst = VmtpTransport(sim, dst)
    entity = t_dst.create_entity(lambda m: (b"ok", 32), hint="server")
    route = StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=1)], src_port
    )
    manager = RouteManager(sim, [_route_obj(route)])
    results = []
    for index in range(20):
        sim.at(index * 0.1, t_src.transact, manager, entity, b"q", 256, results.append)
    sim.run(until=5.0)
    assert len(results) == 20 and sum(r.ok for r in results) >= 15
    for transport in (t_dst, t_src):
        checksum = transport.stats.checksum_failures.count
        assert checksum >= 5
        assert transport.drops == {"checksum": checksum}
    assert dst.undeliverable.count == 0


def _route_obj(static):
    """Adapt a StaticRoute to what RouteManager expects (Route-like)."""
    from repro.directory.routes import Route

    return Route(
        destination="dst",
        segments=static.segments,
        first_hop_port=static.first_hop_port,
        first_hop_mac=None,
        bottleneck_bps=10e6,
        propagation_delay=20e-6,
        hop_count=1,
    )


def test_misdelivered_pdu_rejected_by_entity_check():
    """A corrupted header can reroute a packet to the wrong *host*; the
    64-bit entity id makes the wrong transport discard it."""
    sim, _t, src, dst, bystander, _r, src_port, out_port = build_lossy_line(
        corruption_rate=1.0,
    )
    t_src = VmtpTransport(sim, src)
    t_dst = VmtpTransport(sim, dst)
    t_bystander = VmtpTransport(sim, bystander)
    entity = t_dst.create_entity(lambda m: (b"ok", 16), hint="server")
    route = StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=1)], src_port
    )
    manager = RouteManager(sim, [_route_obj(route)])
    t_src.transact(manager, entity, b"x", 64, lambda r: None)
    sim.run(until=2.0)
    # Whatever reached the bystander was rejected, silently and safely.
    delivered_to_apps = t_bystander.stats.misdelivered.count
    assert t_bystander.stats.received_pdus.count >= delivered_to_apps
    assert bystander.undeliverable.count + t_bystander.stats.misdelivered.count \
        + t_bystander.stats.checksum_failures.count >= 0


def test_clean_link_never_corrupts():
    sim, _t, src, dst, _b, _r, src_port, out_port = build_lossy_line(
        corruption_rate=0.0,
    )
    got = []
    dst.bind(0, got.append)
    route = StaticRoute(
        [HeaderSegment(port=out_port), HeaderSegment(port=0)], src_port
    )
    payload = bytes(100)
    for _ in range(20):
        src.send(route, payload)
    sim.run(until=1.0)
    assert len(got) == 20
    assert all(d.payload == payload for d in got)
