"""E12 — §2 the three multicast mechanisms.

Paper: multicast can be supported by (1) reserved port values naming
port groups (with broadcast as the simple case), (2) tree-structured
routes carrying one header segment per branch (after Blazenet), and
(3) multicast agents that "explode" a packet along per-member routes —
the agents receiving the full header, unlike the tree scheme.

Setup: one sender, a hub router with N leaf hosts.  Deliver one 512B
payload to every leaf with each mechanism; compare bytes transmitted on
the source's access link (the header-size trade §2 describes), total
bytes on all wires, and the delivery delay spread.
"""

from __future__ import annotations

from repro.core.host import SirpentHost
from repro.dataplane.multicast import (
    BROADCAST_PORT,
    MulticastAgent,
    TreeBranch,
    TREE_PORT,
    encode_tree_info,
)
from repro.core.router import SirpentRouter
from repro.directory.routes import Route
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment

from benchmarks._common import format_table, publish, us

PAYLOAD = 512


def build_star(n_leaves):
    sim = Simulator()
    topo = Topology(sim)
    hub = topo.add_node(SirpentRouter(sim, "hub"))
    src = topo.add_node(SirpentHost(sim, "src"))
    _, src_port, _ = topo.connect(src, hub, rate_bps=10e6)
    leaves, leaf_ports, inboxes = [], [], []
    for index in range(n_leaves):
        leaf = topo.add_node(SirpentHost(sim, f"leaf{index}"))
        _, hub_port, _ = topo.connect(hub, leaf, rate_bps=10e6)
        box = []
        leaf.bind(0, box.append)
        leaves.append(leaf)
        leaf_ports.append(hub_port)
        inboxes.append(box)
    return sim, topo, hub, src, src_port, leaf_ports, inboxes


def _measure(sim, topo, inboxes, n_leaves):
    sim.run(until=2.0)
    delivered = sum(len(box) for box in inboxes)
    arrivals = [box[0].arrived_at for box in inboxes if box]
    spread = (max(arrivals) - min(arrivals)) if arrivals else float("nan")
    total_bytes = sum(
        c.bytes_sent.count
        for link in topo.links.values()
        for c in (link.a_to_b, link.b_to_a)
    )
    access = topo.links["src--hub"].a_to_b.bytes_sent.count
    return {
        "delivered": delivered, "spread": spread,
        "total_bytes": total_bytes, "access_bytes": access,
    }


def run_group_port(n_leaves):
    sim, topo, hub, src, src_port, leaf_ports, inboxes = build_star(n_leaves)
    hub.groups.add_group(240, leaf_ports)
    route = Route(
        "group", [HeaderSegment(port=240), HeaderSegment(port=0)], src_port, None
    )
    src.send(route, bytes(PAYLOAD))
    return _measure(sim, topo, inboxes, n_leaves)


def run_broadcast(n_leaves):
    sim, topo, hub, src, src_port, _lp, inboxes = build_star(n_leaves)
    route = Route(
        "broadcast", [HeaderSegment(port=BROADCAST_PORT), HeaderSegment(port=0)],
        src_port, None,
    )
    src.send(route, bytes(PAYLOAD))
    return _measure(sim, topo, inboxes, n_leaves)


def run_tree(n_leaves):
    sim, topo, hub, src, src_port, leaf_ports, inboxes = build_star(n_leaves)
    branches = [
        TreeBranch([HeaderSegment(port=p), HeaderSegment(port=0)])
        for p in leaf_ports
    ]
    route = Route(
        "tree", [HeaderSegment(port=TREE_PORT, portinfo=encode_tree_info(branches))],
        src_port, None,
    )
    src.send(route, bytes(PAYLOAD))
    return _measure(sim, topo, inboxes, n_leaves)


def run_agent(n_leaves):
    sim, topo, hub, src, src_port, leaf_ports, inboxes = build_star(n_leaves)
    # The agent lives on leaf0's host and re-sends to every leaf via the
    # hub (member routes go back up through the agent's access link).
    agent_host = topo.nodes["leaf0"]
    agent_inport = 1  # its single attachment
    agent = MulticastAgent(
        lambda route, payload: agent_host.send(route, payload),
        name="exploder",
    )
    for index, port in enumerate(leaf_ports):
        agent.add_member(Route(
            f"leaf{index}", [HeaderSegment(port=port), HeaderSegment(port=0)],
            agent_inport, None,
        ))
    agent_socket = 9
    agent_host.bind(
        agent_socket,
        lambda delivered: agent.on_payload(delivered.payload),
    )
    route = Route(
        "leaf0", [HeaderSegment(port=leaf_ports[0]), HeaderSegment(port=agent_socket)],
        src_port, None,
    )
    src.send(route, bytes(PAYLOAD))
    return _measure(sim, topo, inboxes, n_leaves)


def run_all(n_leaves=6):
    return {
        "group port (mech 1)": run_group_port(n_leaves),
        "broadcast port (mech 1)": run_broadcast(n_leaves),
        "tree segments (mech 2)": run_tree(n_leaves),
        "multicast agent (mech 3)": run_agent(n_leaves),
    }


def bench_e12_multicast(benchmark):
    n_leaves = 6
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    table = format_table(
        f"E12  One 512B payload to {n_leaves} leaves, three mechanisms",
        ["mechanism", "delivered", "src-link bytes", "total wire bytes",
         "arrival spread (us)"],
        [
            (name, r["delivered"], r["access_bytes"], r["total_bytes"],
             us(r["spread"]))
            for name, r in results.items()
        ],
    )
    note = (
        "\nPaper: group/broadcast ports need one minimal segment; the\n"
        "tree carries per-branch segments up front; the agent delivers\n"
        "the full header to an exploder at the cost of extra traversals."
    )
    publish("e12_multicast", table + note)

    for name, r in results.items():
        assert r["delivered"] == n_leaves, f"{name} missed leaves"
    group = results["group port (mech 1)"]
    tree = results["tree segments (mech 2)"]
    agent = results["multicast agent (mech 3)"]
    # The tree header is bigger on the access link than a group port.
    assert tree["access_bytes"] > group["access_bytes"]
    # The agent costs the most total wire bytes (up and back down).
    assert agent["total_bytes"] > tree["total_bytes"]
    assert agent["total_bytes"] > group["total_bytes"]
    # Router-level replication delivers nearly simultaneously; the agent
    # serializes its explosion.
    assert group["spread"] < agent["spread"]
