#!/usr/bin/env python3
"""Policy-based routing, tokens and accounting (§2.2, §3).

A small internetwork with three qualitatively different paths between
two hosts:

* a fast path through a commercial carrier (cheap on delay, expensive
  and insecure),
* a government-approved secure path (slower, secure links only),
* a budget path (cheap, slow).

The client asks the directory for routes under different objectives,
obtains port tokens that authorize exactly the granted path, and the
carriers' ledgers show who got billed.  A forged token goes nowhere.

Run:  python examples/policy_routing.py
"""

from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.core.congestion import ControlPlane
from repro.directory import DirectoryService, RegionServer, RouteQuery
from repro.directory.pathfind import PathObjective
from repro.net.topology import Topology
from repro.sim.engine import Simulator


def build() -> tuple:
    sim = Simulator()
    topo = Topology(sim)
    plane = ControlPlane(sim, topo)
    config = RouterConfig(require_tokens=True)

    client = topo.add_node(SirpentHost(sim, "client", control_plane=plane))
    server = topo.add_node(SirpentHost(sim, "server", control_plane=plane))
    carriers = {}
    for name in ("commercial", "gov-secure", "budget"):
        carriers[name] = topo.add_node(
            SirpentRouter(sim, name, config=config, control_plane=plane)
        )
    # Commercial: fast but insecure and pricey.
    topo.connect(client, carriers["commercial"], propagation_delay=0.5e-3,
                 cost=10.0, secure=False)
    topo.connect(carriers["commercial"], server, propagation_delay=0.5e-3,
                 cost=10.0, secure=False)
    # Government: secure, moderate delay.
    topo.connect(client, carriers["gov-secure"], propagation_delay=2e-3,
                 cost=5.0, secure=True)
    topo.connect(carriers["gov-secure"], server, propagation_delay=2e-3,
                 cost=5.0, secure=True)
    # Budget: slow and cheap.
    topo.connect(client, carriers["budget"], propagation_delay=8e-3,
                 cost=1.0, secure=True)
    topo.connect(carriers["budget"], server, propagation_delay=8e-3,
                 cost=1.0, secure=True)

    directory = DirectoryService(sim, topo, root_server=RegionServer(sim))
    directory.register_host("client", "client.corp.example")
    directory.register_host("server", "server.corp.example")
    return sim, topo, directory, client, server, carriers


def main() -> None:
    sim, topo, directory, client, server, carriers = build()
    received = []
    server.bind(0, received.append)

    objectives = {
        "low delay": PathObjective.LOW_DELAY,
        "secure": PathObjective.SECURE,
        "low cost": PathObjective.LOW_COST,
    }
    accounts = {"low delay": 100, "secure": 200, "low cost": 300}

    for label, objective in objectives.items():
        routes = directory.query("client", RouteQuery(
            "server.corp.example", objective=objective,
            with_tokens=True, account=accounts[label],
        ))
        route = routes[0]
        carrier = [n for n in ("commercial", "gov-secure", "budget")
                   if any(n in str(e) for e in [route])] or ["?"]
        print(f"{label:9s} -> via propagation {route.propagation_delay * 1e3:4.1f} ms, "
              f"cost {route.cost:4.1f}, secure={route.secure}")
        client.send(route, f"{label} packet".encode().ljust(400, bytes(1)))
    sim.run(until=0.5)
    print(f"\nserver received {len(received)} packets:")
    for delivered in received:
        print(f"  {delivered.payload.rstrip(bytes(1))!r:24} via {delivered.packet.hop_log} "
              f"after {(delivered.arrived_at - delivered.packet.created_at) * 1e3:.2f} ms")

    print("\ncarrier ledgers (who billed which account):")
    for name, router in carriers.items():
        ledger = router.token_cache.ledger
        entries = {acct: ledger.usage(acct).bytes for acct in ledger.accounts()}
        print(f"  {name:11s}: {entries or 'no traffic'}")

    # A forged token: flip one byte of a real one and try the fast path.
    routes = directory.query("client", RouteQuery(
        "server.corp.example", with_tokens=True, account=666,
    ))
    segments = [
        s.copy(token=(bytes([s.token[0] ^ 0xFF]) + s.token[1:]) if s.token else b"")
        for s in routes[0].segments
    ]

    class Forged:
        pass

    Forged.segments = segments
    Forged.first_hop_port = routes[0].first_hop_port
    Forged.first_hop_mac = routes[0].first_hop_mac
    before = len(received)
    client.send(Forged, bytes(400))
    client.send(Forged, bytes(400))  # past the optimistic window
    sim.run(until=1.0)
    rejected = sum(r.stats.dropped_token.count for r in carriers.values())
    print(f"\nforged tokens: {len(received) - before} delivered past the "
          f"optimistic window, {rejected} rejected at carriers")


if __name__ == "__main__":
    main()
