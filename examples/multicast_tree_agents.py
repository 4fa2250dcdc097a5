#!/usr/bin/env python3
"""Combined multicast: tree segments + multicast agents (§2).

The paper: "A combination of these approaches can be used.  For
example, the tree approach might be used for a source to route a packet
to several wide-area broadcast networks which then deliver the packet
simultaneously to a number of multicast agents, which in turn then
handle local delivery."

Topology: one source, a WAN hub, two regional routers.  A single
tree-structured packet forks at the hub toward both regions; each
region hosts a multicast agent that explodes the payload to its three
local subscribers.  One packet leaves the source; six subscribers
receive it.

Run:  python examples/multicast_tree_agents.py
"""

from repro.core.host import SirpentHost
from repro.dataplane.multicast import (
    MulticastAgent,
    TREE_PORT,
    TreeBranch,
    encode_tree_info,
)
from repro.core.router import SirpentRouter
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment


class Route:
    def __init__(self, segments, first_hop_port, first_hop_mac=None):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac


def build_region(sim, topo, hub, region):
    """A regional router, its agent host, and three subscribers."""
    router = topo.add_node(SirpentRouter(sim, f"{region}-router"))
    _, hub_port, _ = topo.connect(hub, router)
    agent_host = topo.add_node(SirpentHost(sim, f"{region}-agent"))
    _, agent_hub_port, agent_host_port = topo.connect(router, agent_host)
    subscribers = []
    for index in range(3):
        subscriber = topo.add_node(SirpentHost(sim, f"{region}-sub{index}"))
        _, router_port, _ = topo.connect(router, subscriber)
        inbox = []
        subscriber.bind(0, inbox.append)
        subscribers.append((subscriber, router_port, inbox))

    agent = MulticastAgent(
        lambda route, payload: agent_host.send(route, payload),
        name=f"{region}-exploder",
    )
    for _sub, router_port, _inbox in subscribers:
        agent.add_member(Route(
            [HeaderSegment(port=router_port), HeaderSegment(port=0)],
            agent_host_port,
        ))
    AGENT_SOCKET = 9
    agent_host.bind(
        AGENT_SOCKET,
        lambda d: agent.on_payload(d.payload),
    )
    # The branch segments: hub -> regional router -> agent host socket.
    branch = TreeBranch([
        HeaderSegment(port=hub_port),
        HeaderSegment(port=agent_hub_port),
        HeaderSegment(port=AGENT_SOCKET),
    ])
    return branch, agent, subscribers


def main() -> None:
    sim = Simulator()
    topo = Topology(sim)
    hub = topo.add_node(SirpentRouter(sim, "wan-hub"))
    source = topo.add_node(SirpentHost(sim, "source"))
    _, src_port, _ = topo.connect(source, hub)

    regions = {}
    branches = []
    for region in ("west", "east"):
        branch, agent, subscribers = build_region(sim, topo, hub, region)
        branches.append(branch)
        regions[region] = (agent, subscribers)

    tree_route = Route(
        [HeaderSegment(port=TREE_PORT,
                       portinfo=encode_tree_info(branches))],
        src_port,
    )
    print("sending ONE 700-byte packet with a 2-branch tree header "
          f"({tree_route.segments[0].wire_size()}B of routing)...\n")
    source.send(tree_route, bytes(700))
    sim.run(until=1.0)

    total = 0
    for region, (agent, subscribers) in regions.items():
        delivered = sum(len(inbox) for _s, _p, inbox in subscribers)
        total += delivered
        arrival = [inbox[0].arrived_at for _s, _p, inbox in subscribers
                   if inbox]
        print(f"{region}: agent exploded x{agent.exploded}, "
              f"{delivered}/3 subscribers, "
              f"arrivals {min(arrival) * 1e3:.2f}–{max(arrival) * 1e3:.2f} ms")
    copies = hub.stats.multicast_copies.count
    print(f"\nhub made {copies} tree copies; total deliveries: {total}/6")
    print("one source transmission -> wide-area fork at the tree point ->")
    print("local explosion at each region's agent, exactly §2's combined "
          "scheme.")


if __name__ == "__main__":
    main()
