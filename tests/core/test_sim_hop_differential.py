"""Sim ≡ live on the per-hop transform, over generated frames.

A simulator router forwards a packet by running the live overlay's own
in-place moves on the packet's frame
(:func:`~repro.live.frames.forward_into`,
:func:`~repro.live.frames.truncate_into`).  This suite feeds the same
frame to one :class:`SirpentRouter` hop and to the structural reference
(``tests/live/oracle.py::hop_structurally`` — decode, apply the packet
algebra, re-encode) deciding with an identically wired twin router, and
asks for the same fate: the same bytes out of the same ports, the same
drops, the same local deliveries.

The frames cover routes of 1–48 segments, tokens on and off (valid,
forged and absent), Ethernet portInfo on arrival and egress, slick
segments with alternate blocks over a dead egress, a logical port's
transit splice, group and tree multicast, and egress MTUs that
truncate.  Each example is a sequence of arrivals, so the flow cache
answers warm as well as cold.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.host import SirpentHost
from repro.core.packet import HEADER, FramePacket
from repro.core.router import RouterConfig, SirpentRouter
from repro.dataplane import router as router_module
from repro.dataplane.multicast import TREE_PORT, TreeBranch, encode_tree_info
from repro.live.frames import decode_preamble, encode_live_frame
from repro.net.link import Transmission
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.packet import (
    TRUNCATION_MARK,
    SirpentPacket,
    TrailerElement,
)
from repro.viper.portinfo import EthernetInfo
from repro.viper.wire import HeaderSegment
from tests.live.oracle import hop_structurally

#: Logical (transit) and group port ids on the router under test.
TRANSIT_PORT = 200
GROUP_PORT = 240

#: Egress MTUs of the point-to-point ports: one never truncates, two do.
P2P_MTUS = (1500, 700, 300)


class Wired:
    """A router with every kind of port a hop can meet, and its ids."""

    def __init__(self, require_tokens):
        self.sim = Simulator()
        topo = Topology(self.sim)
        self.router = topo.add_node(SirpentRouter(
            self.sim, "r", RouterConfig(require_tokens=require_tokens),
        ))
        hosts = [topo.add_node(SirpentHost(self.sim, f"h{i}")) for i in range(5)]
        _, self.arrival, _ = topo.connect(hosts[0], self.router)
        self.p2p = [
            topo.connect(self.router, host, mtu=mtu)[1]
            for host, mtu in zip(hosts[1:4], P2P_MTUS)
        ]
        _, self.dead, _ = topo.connect(self.router, hosts[4], name="dead")
        topo.fail_link("dead")
        ethernet = topo.add_ethernet("lan", mtu=1500)
        self.eth = topo.attach_to_ethernet(self.router, ethernet)
        self.stations = [
            topo.attach_to_ethernet(
                topo.add_node(SirpentHost(self.sim, f"e{i}")), ethernet
            )
            for i in range(2)
        ]
        self.router.logical.add_transit(TRANSIT_PORT, [
            HeaderSegment(port=self.p2p[0]),
            HeaderSegment(port=9, token=b"transit"),
        ])
        self.router.groups.add_group(
            GROUP_PORT, [self.p2p[0], self.p2p[2], self.dead]
        )

    def inport(self, on_ethernet):
        port = self.eth.port_id if on_ethernet else self.arrival
        return self.router.ports[port]

    def transmission(self, packet, on_ethernet):
        tx = Transmission(packet, packet.wire_size(), 0, None, None)
        if on_ethernet:
            tx.src_mac = self.stations[0].mac
            tx.dst_mac = self.eth.mac
        return tx


# -- generated frames ----------------------------------------------------------

field_bytes = st.one_of(
    st.just(b""), st.binary(max_size=24), st.integers(250, 258).map(bytes),
)


@st.composite
def plain_segment(draw, port=st.integers(1, 255)):
    return HeaderSegment(
        port=draw(port), priority=draw(st.integers(0, 7)),
        vnt=draw(st.booleans()), dib=draw(st.booleans()),
        rpf=draw(st.booleans()), token=draw(field_bytes),
        portinfo=draw(field_bytes),
    )


KINDS = (
    "p2p", "ethernet", "local", "unknown", "dead", "transit", "group",
    "tree", "slick_dead", "slick_up",
)


@st.composite
def arrivals(draw):
    """``(kind, on_ethernet, token_choice, priority, rest, trailer,
    truncated_before, payload_size, pick)`` tuples — up to 47 segments
    behind the lead; :func:`frame_for` builds the frame."""
    return draw(st.lists(st.tuples(
        st.sampled_from(KINDS),
        st.booleans(),
        st.sampled_from(("none", "valid", "forged")),
        st.integers(0, 7),
        st.lists(plain_segment(), max_size=47),
        st.lists(plain_segment(), max_size=3),
        st.booleans(),
        st.integers(0, 1600),
        st.integers(0, 2),
    ), min_size=1, max_size=6))


def frame_for(wired, arrival):
    """The live frame for one generated arrival at ``wired.router``."""
    (kind, _on_ethernet, token_choice, priority, rest, trailer,
     truncated_before, payload_size, pick) = arrival
    router = wired.router
    p2p = wired.p2p[pick]
    port, portinfo, alternates = {
        "p2p": (p2p, b"", []),
        "ethernet": (wired.eth.port_id, EthernetInfo(
            dst=wired.stations[pick % 2].mac, src=wired.eth.mac,
        ).to_bytes(), []),
        "local": (0, b"", []),
        "unknown": (99, b"", []),
        "dead": (wired.dead, b"", []),
        "transit": (TRANSIT_PORT, b"", []),
        "group": (GROUP_PORT, b"", []),
        "tree": (TREE_PORT, encode_tree_info([
            TreeBranch([HeaderSegment(port=p, priority=priority),
                        HeaderSegment(port=0)])
            for p in wired.p2p[:pick + 1]
        ]), []),
        "slick_dead": (wired.dead, b"", [[
            HeaderSegment(port=p2p, priority=priority),
            HeaderSegment(port=0, priority=priority),
        ]]),
        "slick_up": (p2p, b"", [[
            HeaderSegment(port=wired.p2p[(pick + 1) % 3], priority=priority),
        ]]),
    }[kind]
    token = {
        "none": b"",
        "valid": router.mint.mint(port=port, account=7 + pick),
        "forged": bytes(40),
    }[token_choice]
    if alternates and token_choice == "valid" and pick < 2:
        first = alternates[0][0]
        alternates[0][0] = first.copy(
            token=router.mint.mint(port=first.port, account=7 + pick)
        )
    lead = HeaderSegment(
        port=port, priority=priority, token=token, portinfo=portinfo,
        slick=bool(alternates),
    )
    if kind in ("group", "tree"):
        rest = rest[:4]  # a multicast copy per branch: keep them small
    packet = SirpentPacket(
        segments=[lead] + rest,
        payload_size=payload_size,
        trailer=[TrailerElement(s) for s in trailer]
        + ([TRUNCATION_MARK] if truncated_before else []),
        alternates=alternates,
    )
    return encode_live_frame(packet, bytes(payload_size))


# -- one hop, both ways --------------------------------------------------------


def sim_hop(wired, datagram, on_ethernet, monkeypatch):
    """The fates ``wired.router`` gives ``datagram`` through ``_process``."""
    router, sim = wired.router, wired.sim
    preamble = decode_preamble(datagram)
    packet = FramePacket(
        preamble.seg_count, preamble.payload_len, datagram[HEADER:],
        packet_id=sim.new_packet_id(),
    )
    assert packet.view.tobytes() == datagram
    fates = []

    def forward(packet, size, port, *_rest):
        forwarded = packet.view.tobytes()
        assert size == len(forwarded) - HEADER
        fates.append(("forward", forwarded, port))

    monkeypatch.setattr(router, "_forward", forward)
    monkeypatch.setattr(
        router_module, "apply_drop",
        lambda _sink, decision: fates.append(("drop", decision.reason)),
    )
    router.local_handler = lambda packet, _inport: fates.append(
        ("deliver", packet.view.tobytes())
    )
    tx = wired.transmission(packet, on_ethernet)
    try:
        router._process(packet, wired.inport(on_ethernet), tx, tx.size, 0.0)
    except ValueError:
        # Copies a multicast hop made before the raise are the sim's
        # own business; the fate of the arrival is the raise.
        sim.run()
        return [("raise", "ValueError")]
    sim.run()
    return sorted(fates)


def oracle_hop(twin, datagram, on_ethernet, now):
    twin.sim.run(until=now)
    probe = FramePacket(0, 0, b"")
    try:
        fates = hop_structurally(
            twin.router, datagram, twin.inport(on_ethernet),
            twin.transmission(probe, on_ethernet),
        )
    except ValueError:
        fates = [("raise", "ValueError")]
    return sorted(fates)


@pytest.mark.parametrize("require_tokens", [False, True])
@given(steps=arrivals())
@settings(max_examples=120, deadline=None)
def test_a_sim_hop_is_the_structural_hop(require_tokens, steps):
    wired, twin = Wired(require_tokens), Wired(require_tokens)
    with pytest.MonkeyPatch.context() as patch:
        for arrival in steps:
            datagram = frame_for(wired, arrival)
            on_ethernet = arrival[1]
            expected = oracle_hop(twin, datagram, on_ethernet, wired.sim.now)
            assert sim_hop(wired, datagram, on_ethernet, patch) == expected


def test_the_generator_reaches_every_fate(monkeypatch):
    """The kinds above do land on every fate a hop has."""
    wired = Wired(require_tokens=True)
    reasons = set()
    for kind in KINDS:
        for token in ("none", "valid", "forged"):
            for payload, pick in ((0, 0), (1400, 1), (700, 2)):
                arrival = (kind, kind == "ethernet", token, 3,
                           [HeaderSegment(port=0)], [], False, payload, pick)
                for fate in sim_hop(
                    wired, frame_for(wired, arrival), arrival[1], monkeypatch
                ):
                    reasons.add(fate[1] if fate[0] == "drop" else fate[0])
    assert {
        "forward", "deliver", "no_route", "token_reject",
        "slick_fallback_exhausted",
    } <= reasons, reasons
    stats = wired.router.stats
    assert stats.truncated.count and stats.slick_reroutes.count
    assert stats.multicast_copies.count
