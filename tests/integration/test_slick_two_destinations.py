"""Slick failover in the simulator: a reroute belongs to its packet.

Two servers sit behind one slick first hop::

                 ┌── p ──┬── s1
    client ── a ─┤       └── s2
                 ├── b1 ──── s1
                 └── b2 ──── s2

Both primary routes lead with the *same* segment at ``a`` (port → ``p``,
slick, tokenless) and arrive on the same port; they differ only behind
it, and in the alternate block each packet carries (via ``b1`` to ``s1``,
via ``b2`` to ``s2``).  With ``a--p`` down every packet must take its own
alternate.

Regression: the first packet's reroute used to be memoized under the
leading segment alone, and the packet for ``s2`` was delivered down the
backup route of the packet for ``s1``.
"""

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.directory.routes import Route, slickify_route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment

SOCKET = 9


def build():
    sim = Simulator()
    topology = Topology(sim)
    client = SirpentHost(sim, "client")
    servers = {name: SirpentHost(sim, name) for name in ("s1", "s2")}
    a, p, b1, b2 = (SirpentRouter(sim, name) for name in ("a", "p", "b1", "b2"))
    _, client_port, _ = topology.connect(client, a)
    _, a_to_p, _ = topology.connect(a, p, name="a--p")
    _, a_to_b1, _ = topology.connect(a, b1)
    _, a_to_b2, _ = topology.connect(a, b2)
    routes = {}
    for name, backup, a_to_backup in (("s1", b1, a_to_b1), ("s2", b2, a_to_b2)):
        _, p_to_server, _ = topology.connect(p, servers[name])
        _, backup_to_server, _ = topology.connect(backup, servers[name])
        final = HeaderSegment(port=SOCKET)
        segments, blocks = slickify_route(
            [HeaderSegment(port=a_to_p), HeaderSegment(port=p_to_server), final],
            {0: [
                HeaderSegment(port=a_to_backup),
                HeaderSegment(port=backup_to_server), final,
            ]},
        )
        routes[name] = Route(
            destination=name, segments=segments, alternates=blocks,
            first_hop_port=client_port, first_hop_mac=None,
        )
    return sim, topology, client, servers, routes


def exchange(link_down):
    """Send to s1 and s2 in turn, three rounds; each server echoes its
    own name.  Returns ``(requests seen per server, replies in order,
    hop logs of the requests)``."""
    sim, topology, client, servers, routes = build()
    assert routes["s1"].segments[0] == routes["s2"].segments[0]
    assert routes["s1"].alternates != routes["s2"].alternates
    seen = {name: [] for name in servers}
    replies, paths = [], []

    for name, server in servers.items():
        def serve(delivered, name=name, server=server):
            seen[name].append(delivered.payload.rstrip(b"\0").decode())
            paths.append(delivered.packet.hop_log)
            server.send_return(
                delivered, name.encode().ljust(16, b"\0"), reply_socket=SOCKET,
            )
        server.bind(SOCKET, serve)
    client.bind(SOCKET, lambda delivered: replies.append(
        delivered.payload.rstrip(b"\0").decode()
    ))

    if link_down:
        topology.fail_link("a--p")
    for round_no in range(3):
        for name in ("s1", "s2"):
            sim.at(
                1e-3 * (2 * round_no + (name == "s2")),
                client.send, routes[name], f"to {name}".encode().ljust(16, b"\0"),
            )
    sim.run(until=0.1)
    return seen, replies, paths


def test_each_reply_comes_from_its_own_server_over_its_own_backup():
    seen, replies, paths = exchange(link_down=True)
    assert seen == {"s1": ["to s1"] * 3, "s2": ["to s2"] * 3}
    assert replies == ["s1", "s2"] * 3
    assert paths == [["a", "b1"], ["a", "b2"]] * 3


def test_the_same_exchange_over_the_healthy_primary():
    seen, replies, paths = exchange(link_down=False)
    assert seen == {"s1": ["to s1"] * 3, "s2": ["to s2"] * 3}
    assert replies == ["s1", "s2"] * 3
    assert paths == [["a", "p"]] * 6
