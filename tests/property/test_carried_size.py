"""The size a frame carries is the size it encodes to — always.

The simulator never serialises per hop: a :class:`HeaderSegment` fixes
its ``wire_bytes`` at construction, the router counts a packet once
after its transform, and that number rides the ``Transmission`` to the
next hop's decision.  These tests pin the arithmetic to the codec:
through every mutation the sim performs on a packet, and on every
frame a simulated channel clocks out, the carried size equals
``len(encode_packet(packet))``.  They also pin the aliasing rule that
makes sharing segments between a route and its packets safe.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.soak import chaos_scenario
from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.core.truncation import truncate_to_mtu
from repro.dataplane.multicast import TREE_PORT, TreeBranch, encode_tree_info
from repro.directory import RouteQuery
from repro.directory.routes import slickify_route
from repro.net.ethernet import EthernetSegment
from repro.net.link import Channel
from repro.net.topology import Topology
from repro.scenarios import build_sirpent_campus, build_sirpent_random
from repro.sim.engine import Simulator
from repro.transport import RouteManager, TransportConfig
from repro.viper.packet import SirpentPacket, encode_packet
from repro.viper.wire import HeaderSegment, encode_segment
from repro.workloads.apps import TransactionApp

# -- every mutation, one step at a time ---------------------------------------

#: Field lengths on both sides of the one-octet length escape (255).
field_bytes = st.one_of(
    st.binary(max_size=40),
    st.integers(250, 262).map(bytes),
)


def segment_strategy(slick=st.just(False)):
    return st.builds(
        HeaderSegment,
        port=st.integers(0, 255),
        priority=st.integers(0, 15),
        vnt=st.booleans(),
        dib=st.booleans(),
        rpf=st.booleans(),
        token=field_bytes,
        portinfo=field_bytes,
        slick=slick,
    )


plain_segments = segment_strategy()


@st.composite
def packets(draw):
    segments = draw(st.lists(
        segment_strategy(slick=st.booleans()), min_size=0, max_size=48
    ))
    alternates = [
        draw(st.lists(plain_segments, min_size=1, max_size=4))
        for segment in segments if segment.slick
    ]
    return SirpentPacket(
        segments=segments,
        payload_size=draw(st.integers(0, 4096)),
        alternates=alternates,
    )


STEPS = (
    "advance", "slick_reroute", "splice", "mark_truncated",
    "truncate_to_mtu", "corrupted_copy", "multicast_clone", "restamp",
)


def carried(packet):
    """The size the sim's drivers carry for ``packet``: one count after
    the transform, over sizes every part fixed when it was built."""
    for part in (
        packet.segments,
        [s for block in packet.alternates for s in block],
        packet.trailer_segments(),
    ):
        for segment in part:
            assert segment.wire_bytes == len(encode_segment(segment))
    return packet.wire_size()


def fan_out_clone(packet, branch):
    """The clone a group-multicast hop builds (``SirpentRouter._fan_out``)."""
    return SirpentPacket(
        segments=list(branch) + packet.segments[1:],
        payload_size=packet.payload_size,
        payload=packet.payload,
        trailer=list(packet.trailer),
        hops_taken=packet.hops_taken,
    )


@given(
    packets(),
    st.lists(
        st.tuples(
            st.sampled_from(STEPS),
            plain_segments,
            st.lists(plain_segments, min_size=1, max_size=3),
            st.integers(0, 2**32),
        ),
        max_size=12,
    ),
)
@settings(max_examples=150, deadline=None)
def test_every_mutation_keeps_the_carried_size_exact(packet, steps):
    assert carried(packet) == len(encode_packet(packet))
    for step, segment, tail, number in steps:
        if step == "advance":
            if not packet.segments:
                continue
            packet.advance(segment)
        elif step == "slick_reroute":
            # The router's move on a dead slick egress: the alternate
            # replaces the route, its first hop is taken, the rest spliced.
            if not (packet.segments and packet.segments[0].slick):
                continue
            alternate = packet.alternates[0]
            packet.apply_slick_reroute((alternate[0],))
            packet.advance(segment)
            packet.segments[0:0] = alternate[1:]
        elif step == "splice":
            packet.segments[0:0] = tail
        elif step == "mark_truncated":
            packet.mark_truncated(number % 5000)
        elif step == "truncate_to_mtu":
            overhead = carried(packet) - packet.payload_size
            truncate_to_mtu(packet, overhead + 2 + number % 1500)
        elif step == "corrupted_copy":
            before = carried(packet)
            packet = packet.corrupted_copy(random.Random(number))
            assert carried(packet) == before
        elif step == "multicast_clone":
            if not packet.segments or packet.alternates:
                continue  # multicast routes carry no slick blocks
            packet = fan_out_clone(packet, [segment.copy(slick=False)])
        elif step == "restamp":
            packet.segments[:] = [
                s.stamped(number % 16, bool(number & 16))
                for s in packet.segments
            ]
        assert carried(packet) == len(encode_packet(packet)), step


@given(plain_segments, st.integers(0, 15), st.booleans())
def test_stamping_shares_only_what_is_already_right(segment, priority, dib):
    stamped = segment.stamped(priority, dib)
    assert (stamped.priority, stamped.dib) == (priority, dib)
    assert stamped == segment.copy(priority=priority, dib=dib)
    assert (stamped is segment) == (
        segment.priority == priority and segment.dib == dib
    )
    keep_dib = segment.stamped(priority)
    assert keep_dib == segment.copy(priority=priority)


# -- every frame a channel clocks out ------------------------------------------


def check_every_frame(monkeypatch):
    """Check the carried size of every frame put on a simulated medium;
    returns the (growing) list of sizes checked."""
    seen = []

    def check(packet, size):
        if isinstance(packet, SirpentPacket):
            assert size == len(encode_packet(packet)), packet
            seen.append(size)

    channel_transmit = Channel.transmit
    ethernet_transmit = EthernetSegment.transmit

    def on_channel(self, packet, size, *args, **kwargs):
        check(packet, size)
        return channel_transmit(self, packet, size, *args, **kwargs)

    def on_ethernet(self, src, dst_mac, packet, size, *args, **kwargs):
        check(packet, size)
        return ethernet_transmit(self, src, dst_mac, packet, size, *args, **kwargs)

    monkeypatch.setattr(Channel, "transmit", on_channel)
    monkeypatch.setattr(EthernetSegment, "transmit", on_ethernet)
    return seen


@pytest.fixture
def framed(monkeypatch):
    return check_every_frame(monkeypatch)


CAMPUS_NAMES = {
    "milo": "milo.lcs.mit.edu", "gregorio": "gregorio.cs.stanford.edu",
}


def run_transactions(scenario, pairs, seconds, sizes=(64, 700, 2500), slick=False):
    apps = []
    for index, (source, destination) in enumerate(pairs):
        server = scenario.transport(destination)
        entity = server.create_entity(
            lambda message: (b"ok", 512), hint=f"svc-{index}"
        )
        routes = scenario.directory.query(source, RouteQuery(
            CAMPUS_NAMES.get(destination, f"{destination}.lab.edu"),
            k=2 if slick else 1, with_tokens=not slick,
            dest_socket=TransportConfig().socket,
        ))
        if slick:
            segments, blocks = slickify_route(
                routes[0].segments, {0: routes[1].segments}
            )
            routes = [replace(routes[0], segments=segments, alternates=blocks)]
        apps.append(TransactionApp(
            scenario.sim, scenario.transport(source),
            RouteManager(scenario.sim, routes), entity,
            random.Random(f"think:{index}"),
            request_size=sizes[index % len(sizes)], mean_think=1e-3,
        ))
    scenario.sim.run(until=seconds)
    return sum(app.completed.count for app in apps)


def test_frames_of_a_tokened_random_internetwork(framed):
    scenario = build_sirpent_random(
        n_routers=6, n_hosts=4, extra_edges=3,
        router_config=RouterConfig(require_tokens=True), seed=3,
    )
    names = sorted(scenario.hosts)
    completed = run_transactions(
        scenario, [(names[0], names[3]), (names[1], names[2]),
                   (names[2], names[0])], seconds=0.15,
    )
    assert completed > 20 and len(framed) > 200


def test_frames_across_ethernets(framed):
    """Ethernet hops append a 14-byte reversed portInfo per return hop."""
    scenario = build_sirpent_campus()
    completed = run_transactions(
        scenario, [("venus", "milo"), ("zermatt", "gregorio")], seconds=0.3,
    )
    assert completed > 5 and len(framed) > 50


def test_frames_of_a_slick_reroute(framed):
    scenario = chaos_scenario(7)
    scenario.sim.at(0.02, scenario.topology.fail_link, "rA--p1")
    completed = run_transactions(
        scenario, [("src", "dst")], seconds=0.1, slick=True,
    )
    rerouted = sum(
        r.stats.slick_reroutes.count for r in scenario.routers.values()
    )
    assert completed > 10 and rerouted > 0


class StaticRoute:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def star(leaves=3, leaf_mtu=1500):
    sim = Simulator()
    topo = Topology(sim)
    hub = topo.add_node(SirpentRouter(sim, "hub"))
    src = topo.add_node(SirpentHost(sim, "src"))
    _, src_port, _ = topo.connect(src, hub)
    ports, inboxes = [], []
    for index in range(leaves):
        leaf = topo.add_node(SirpentHost(sim, f"leaf{index}"))
        _, port, _ = topo.connect(hub, leaf, mtu=leaf_mtu)
        ports.append(port)
        inboxes.append([])
        leaf.bind(0, inboxes[-1].append)
    return sim, hub, src, src_port, ports, inboxes


@given(st.integers(0, 4096), st.binary(max_size=300))
@settings(max_examples=25, deadline=None)
def test_frames_of_multicast_clones(payload_size, filler):
    with pytest.MonkeyPatch.context() as patch:
        seen = check_every_frame(patch)
        sim, hub, src, src_port, ports, inboxes = star()
        hub.groups.add_group(240, ports)
        src.send(StaticRoute(
            [HeaderSegment(port=240, portinfo=filler), HeaderSegment(port=0)],
            src_port,
        ), b"group", payload_size)
        branches = [
            TreeBranch([HeaderSegment(port=p, portinfo=filler[:40]),
                        HeaderSegment(port=0)])
            for p in ports[:2]
        ]
        src.send(StaticRoute(
            [HeaderSegment(port=TREE_PORT, portinfo=encode_tree_info(branches))],
            src_port,
        ), b"tree", payload_size)
        sim.run(until=1.0)
        assert [len(box) for box in inboxes] == [2, 2, 1]
        assert len(seen) == 2 + 3 + 2


@given(st.integers(0, 4096))
@settings(max_examples=25, deadline=None)
def test_frames_of_truncated_packets(payload_size):
    with pytest.MonkeyPatch.context() as patch:
        seen = check_every_frame(patch)
        sim, hub, src, src_port, ports, inboxes = star(leaves=1, leaf_mtu=576)
        src.send(StaticRoute(
            [HeaderSegment(port=ports[0]), HeaderSegment(port=0)], src_port,
        ), b"big", payload_size)
        sim.run(until=1.0)
        (delivered,) = inboxes[0]
        assert delivered.truncated == (payload_size + 4 + 6 > 576)
        assert seen[-1] <= 576


# -- segments are shared, lists are not ----------------------------------------


def fields(segment):
    return (
        segment.port, segment.priority, segment.vnt, segment.dib,
        segment.rpf, segment.token, segment.portinfo, segment.slick,
    )


def test_a_forwarded_and_reversed_packet_leaves_its_route_untouched():
    """Two packets on one route: the first goes all the way there and its
    reply all the way back while the second waits, sharing the route's
    segment objects with both."""
    scenario = build_sirpent_random(
        n_routers=5, n_hosts=2, extra_edges=1,
        router_config=RouterConfig(require_tokens=True), seed=2,
    )
    sim = scenario.sim
    source, destination = sorted(scenario.hosts)
    (route,) = scenario.routes(source, destination, with_tokens=True)
    assert len(route.segments) >= 3
    before = [fields(s) for s in route.segments]
    segments_list = route.segments

    replies = []
    src, dst = scenario.hosts[source], scenario.hosts[destination]
    src.bind(0, replies.append)
    dst.bind(0, lambda delivered: dst.send_return(delivered, b"pong", 64))

    first = src.send(route, b"ping", 1200)
    second = src.send(route, b"ping", 1200)
    # Each packet owns its list and shares the route's segments.
    assert first.segments is not route.segments is not second.segments
    assert first.segments is not second.segments
    second_segments = list(second.segments)
    assert all(a is b for a, b in zip(second_segments, route.segments))
    assert all(a is b for a, b in zip(first.segments, route.segments))

    # Run until the first reply is home; the second request is behind it.
    while not replies:
        assert sim.step()
    assert first.hops_taken == len(before) - 1 and not first.segments[1:]
    reply = replies[0].packet
    assert reply.hops_taken == len(before) - 1

    assert route.segments is segments_list
    assert [fields(s) for s in route.segments] == before
    assert [fields(s) for s in second_segments] == before
    sim.run(until=sim.now + 0.1)
    assert len(replies) == 2
    assert [fields(s) for s in route.segments] == before
    assert [fields(s) for s in second_segments] == before


def test_a_corrupted_copy_does_not_touch_the_original():
    segments = [HeaderSegment(port=3, token=b"t" * 8), HeaderSegment(port=0)]
    packet = SirpentPacket(segments=list(segments), payload_size=10)
    before = [fields(s) for s in segments]
    for seed in range(20):
        clone = packet.corrupted_copy(random.Random(seed))
        assert clone.segments is not packet.segments
        assert clone.segments[1] is packet.segments[1]
    assert [fields(s) for s in packet.segments] == before
