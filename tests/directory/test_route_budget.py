"""A route's header size counts everything the frame carries ahead of
its payload — the Slick-Packets blocks too — and follows the route's
segments when they change."""

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.directory.routes import Route, slickify_route
from repro.live.frames import encode_route_header
from repro.net.link import Channel
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment

SOCKET = 9
TOKEN = bytes(range(32))


def build():
    """client — r1 — r2 — server, and a detour r1 — d1 — d2 — d3 — server
    carried as r1's alternate block."""
    sim = Simulator()
    topology = Topology(sim)
    client, server = SirpentHost(sim, "client"), SirpentHost(sim, "server")
    r1, r2, d1, d2, d3 = (SirpentRouter(sim, n) for n in ("r1", "r2", "d1", "d2", "d3"))
    _, client_port, _ = topology.connect(client, r1)
    _, r1_r2, _ = topology.connect(r1, r2)
    _, r2_server, _ = topology.connect(r2, server)
    _, r1_d1, _ = topology.connect(r1, d1)
    _, d1_d2, _ = topology.connect(d1, d2)
    _, d2_d3, _ = topology.connect(d2, d3)
    _, d3_server, _ = topology.connect(d3, server)
    final = HeaderSegment(port=SOCKET)
    segments, blocks = slickify_route(
        [HeaderSegment(port=r1_r2, token=TOKEN),
         HeaderSegment(port=r2_server, token=TOKEN), final],
        {0: [HeaderSegment(port=p, token=TOKEN) for p in (r1_d1, d1_d2, d2_d3, d3_server)]
            + [final]},
    )
    route = Route(
        destination="server", segments=segments, alternates=blocks,
        first_hop_port=client_port, first_hop_mac=None, mtu=1500,
    )
    return sim, client, server, route


def test_header_overhead_is_the_encoded_header_with_its_blocks():
    _sim, _client, _server, route = build()
    header, _ = encode_route_header(route.segments, route.alternates)
    assert route.header_overhead() == len(header) == 225


def test_a_max_payload_member_on_a_slick_route_fits_every_link(monkeypatch):
    """The blocks ride in the first hop's frame: a payload sized by
    ``max_payload()`` must fit the MTU with them on every link it
    crosses, and arrive whole."""
    clocked = []
    transmit = Channel.transmit

    def record(channel, packet, size, header_bytes, **kwargs):
        clocked.append((channel.name, size, channel.mtu))
        return transmit(channel, packet, size, header_bytes, **kwargs)

    monkeypatch.setattr(Channel, "transmit", record)
    sim, client, server, route = build()
    got = []
    server.bind(SOCKET, got.append)
    client.send(route, b"member".ljust(route.max_payload(), b"\0"))
    sim.run(until=0.1)
    assert [(d.payload.rstrip(b"\0"), d.trailer.truncated) for d in got] == [
        (b"member", False)
    ]
    assert len(got[0].payload) == route.max_payload()
    assert [name for name, _, _ in clocked] == ["client--r1:a>b", "r1--r2:a>b", "r2--server:a>b"]
    assert all(size <= mtu for _, size, mtu in clocked), clocked


def test_header_overhead_follows_the_segments():
    _sim, _client, _server, route = build()
    slick = route.header_overhead()
    # Frozen: the route's sequences cannot be edited in place...
    with pytest.raises(TypeError):
        route.alternates[0] = route.alternates[0][:2]
    with pytest.raises(AttributeError):
        route.segments.append(HeaderSegment(port=2, token=TOKEN))
    # ...and a rebound one is frozen again and measured afresh.
    route.alternates = [route.alternates[0][:2]]
    assert route.header_overhead() == slick - 2 * (4 + len(TOKEN)) - 4
    assert isinstance(route.alternates[0], tuple)
    route.segments = [HeaderSegment(port=1)]
    route.alternates = []
    assert route.header_overhead() == 4
    route.segments = [HeaderSegment(port=1), HeaderSegment(port=2, token=TOKEN)]
    assert route.header_overhead() == 4 + 4 + len(TOKEN)
