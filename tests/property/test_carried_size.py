"""The size a frame carries is the size it encodes to — always.

The simulator carries every packet as its frame's bytes
(:class:`~repro.core.packet.FramePacket`) and moves them with the live
overlay's in-place moves, so a packet's size is ``len()`` of its frame
less the preamble, and that number rides the ``Transmission`` to the
next hop's decision.  These tests pin it to the structural codec:
through every move the sim makes on a frame, the frame is byte for byte
``encode_packet`` of the structural reference the same algebra
(``tests/live/oracle.py``) builds; and on every frame a simulated
channel clocks out, the carried size equals ``len(encode_packet(...))``
of the packet the frame decodes to.  They also pin that forwarding a
packet leaves its route's segments untouched.
"""

import random
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos.soak import chaos_scenario
from repro.core.host import SirpentHost
from repro.core.packet import HEADER, FramePacket
from repro.core.router import RouterConfig, SirpentRouter
from repro.dataplane.multicast import TREE_PORT, TreeBranch, encode_tree_info
from repro.directory import RouteQuery
from repro.directory.routes import slickify_route
from repro.directory.routes import Route
from repro.live.frames import (
    encode_route_header,
    hop_move_into,
    return_tail_of,
    slick_reroute_into,
    truncate_into,
)
from repro.net.ethernet import EthernetSegment
from repro.net.link import Channel
from repro.net.topology import Topology
from repro.scenarios import build_sirpent_campus, build_sirpent_random
from repro.sim.engine import Simulator
from repro.transport import RouteManager, TransportConfig
from repro.viper.packet import SirpentPacket, encode_packet
from repro.viper.wire import HeaderSegment, encode_alt_blocks, encode_segment
from repro.workloads.apps import TransactionApp
from tests.live.oracle import (
    advance,
    apply_slick_reroute,
    corrupted_copy,
    payload_size,
    sim_packet,
    structural,
    truncate_structurally,
)
from tests.sim.oracle import step

# -- every move, one step at a time -------------------------------------------

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
    "advance", "slick_reroute", "splice", "truncate", "corrupted_copy",
    "multicast_clone",
)


def carried(frame, reference):
    """The size the sim carries for ``frame``, checked against the
    encoding of the structural ``reference``, byte for byte."""
    body = frame.view.tobytes()[HEADER:]
    assert body == encode_packet(reference, reference.payload)
    assert (frame.seg_count, payload_size(frame)) == (
        len(reference.segments), reference.payload_size
    )
    return frame.wire_size()


def fan_out_clone(frame, reference, branch):
    """The clone a group-multicast hop re-frames
    (``SirpentRouter._fan_out``), and its structural twin."""
    first = encode_segment(reference.segments[0])
    clone = FramePacket(
        len(branch) + frame.seg_count - 1, payload_size(frame),
        b"".join(s.wire for s in branch) + frame.view.tobytes()[
            HEADER + len(first):
        ],
    )
    return clone, SirpentPacket(
        segments=list(branch) + reference.segments[1:],
        payload_size=reference.payload_size,
        payload=reference.payload,
        trailer=list(reference.trailer),
        alternates=reference.alternates,
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
def test_every_mutation_keeps_the_carried_size_exact(reference, steps):
    frame = sim_packet(reference)
    assert carried(frame, reference) == len(encode_packet(reference))
    for step, segment, tail, number in steps:
        view = frame.view
        if step in ("advance", "splice"):
            if not reference.segments:
                continue
            splice = tail if step == "splice" else ()
            while not hop_move_into(
                view, return_tail_of(segment), splice=splice
            ):
                frame.grow()
                view = frame.view
            advance(reference, segment)
            reference.segments[0:0] = splice
        elif step == "slick_reroute":
            # The router's move on a dead slick egress: the alternate
            # replaces the route and its first hop is taken.
            if not (reference.segments and reference.segments[0].slick):
                continue
            while not slick_reroute_into(view, return_tail_of(segment)):
                frame.grow()
                view = frame.view
            apply_slick_reroute(reference, reference.alternates[0])
            advance(reference, segment)
        elif step == "truncate":
            overhead = carried(frame, reference) - reference.payload_size
            mtu = overhead + 2 + number % 1500
            while not truncate_into(view, mtu):
                frame.grow()
                view = frame.view
            truncate_structurally(reference, mtu)
        elif step == "corrupted_copy":
            before = carried(frame, reference)
            frame = frame.corrupted_copy(random.Random(number))
            reference = corrupted_copy(reference, random.Random(number))
            assert carried(frame, reference) == before
        elif step == "multicast_clone":
            if not reference.segments or reference.segments[0].slick:
                continue  # a multicast segment carries no slick block
            frame, reference = fan_out_clone(
                frame, reference, [segment.copy(slick=False)]
            )
        assert carried(frame, reference) == len(
            encode_packet(reference, reference.payload)
        ), step


@given(
    st.lists(segment_strategy(slick=st.booleans()), min_size=1, max_size=12),
    st.integers(0, 15),
    st.booleans(),
)
def test_a_route_header_carries_the_type_of_service(segments, priority, dib):
    """A host stamps its priority (and DIB) into every segment, and the
    priority into every alternate (§2)."""
    alternates = [[HeaderSegment(port=9)] for s in segments if s.slick]
    header, seg_count = encode_route_header(
        segments, alternates, priority, dib
    )
    assert seg_count == len(segments)
    assert header == b"".join(
        encode_segment(s.copy(priority=priority, dib=dib)) for s in segments
    ) + encode_alt_blocks(
        [[s.copy(priority=priority) for s in block] for block in alternates]
    )


# -- every frame a channel clocks out ------------------------------------------


def check_every_frame(monkeypatch):
    """Check the carried size of every frame put on a simulated medium;
    returns the (growing) list of sizes checked."""
    seen = []

    def check(packet, size):
        if isinstance(packet, FramePacket):
            assert size == packet.wire_size()
            assert size == len(encode_packet(structural(packet)))
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
        src.send(Route(
            "dst", [HeaderSegment(port=240, portinfo=filler), HeaderSegment(port=0)],
            src_port, None,
        ), bytes(payload_size))
        branches = [
            TreeBranch([HeaderSegment(port=p, portinfo=filler[:40]),
                        HeaderSegment(port=0)])
            for p in ports[:2]
        ]
        src.send(Route(
            "dst", [HeaderSegment(port=TREE_PORT, portinfo=encode_tree_info(branches))],
            src_port, None,
        ), bytes(payload_size))
        sim.run(until=1.0)
        assert [len(box) for box in inboxes] == [2, 2, 1]
        assert len(seen) == 2 + 3 + 2


@given(st.integers(0, 4096))
@settings(max_examples=25, deadline=None)
def test_frames_of_truncated_packets(payload_size):
    with pytest.MonkeyPatch.context() as patch:
        seen = check_every_frame(patch)
        sim, hub, src, src_port, ports, inboxes = star(leaves=1, leaf_mtu=576)
        src.send(Route(
            "dst", [HeaderSegment(port=ports[0]), HeaderSegment(port=0)], src_port, None,
        ), bytes(payload_size))
        sim.run(until=1.0)
        (delivered,) = inboxes[0]
        assert delivered.trailer.truncated == (payload_size + 4 + 6 > 576)
        assert seen[-1] <= 576


# -- segments are shared, lists are not ----------------------------------------


def fields(segment):
    return (
        segment.port, segment.priority, segment.vnt, segment.dib,
        segment.rpf, segment.token, segment.portinfo, segment.slick,
    )


def test_a_forwarded_and_reversed_packet_leaves_its_route_untouched():
    """Two packets on one route: the first goes all the way there and its
    reply all the way back while the second waits.  Each packet owns its
    frame's bytes; the route's segments are only read."""
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
    dst.bind(0, lambda delivered: dst.send_return(delivered, b"pong".ljust(64, b"\0")))

    first = src.send(route, b"ping".ljust(1200, b"\0"))
    second = src.send(route, b"ping".ljust(1200, b"\0"))
    assert first.view.buffer is not second.view.buffer
    sent = second.view.tobytes()

    # Run until the first reply is home; the second request is behind it.
    while not replies:
        assert step(sim)
    assert first.hops_taken == len(before) - 1 and first.seg_count == 1
    reply = replies[0].packet
    assert reply.hops_taken == len(before) - 1
    assert structural(reply).segments[0].port == 0

    assert route.segments is segments_list
    assert [fields(s) for s in route.segments] == before
    sim.run(until=sim.now + 0.1)
    assert len(replies) == 2
    assert [fields(s) for s in route.segments] == before
    assert second.view.tobytes() != sent  # forwarded: its own bytes moved


def test_a_corrupted_copy_does_not_touch_the_original():
    segments = [HeaderSegment(port=3, token=b"t" * 8), HeaderSegment(port=0)]
    packet = sim_packet(SirpentPacket(segments=segments, payload_size=10))
    before = packet.view.tobytes()
    for seed in range(20):
        clone = packet.corrupted_copy(random.Random(seed))
        assert clone.view.buffer is not packet.view.buffer
        after = clone.view.tobytes()
        # The leading port may move and the payload's middle byte is
        # inverted; no other byte changes.
        assert after[HEADER + 4:-5] == before[HEADER + 4:-5]
        assert after[-5] == before[-5] ^ 0xFF
        assert after[-4:] == before[-4:]
    assert packet.view.tobytes() == before
