"""Unit tests for the three multicast mechanisms (§2)."""

import pytest

from repro.dataplane.multicast import (
    BROADCAST_PORT,
    GROUP_PORT_BASE,
    GroupPortMap,
    MulticastAgent,
    TREE_PORT,
    TreeBranch,
    decode_tree_info,
    encode_tree_info,
)
from repro.viper.errors import DecodeError
from repro.viper.wire import HeaderSegment


class TestGroupPorts:
    def test_group_membership(self):
        groups = GroupPortMap()
        groups.add_group(240, [1, 2, 3])
        assert groups.is_group(240)
        assert groups.members(240) == [1, 2, 3]
        assert groups.members(241) == []

    def test_group_port_range_enforced(self):
        groups = GroupPortMap()
        with pytest.raises(ValueError):
            groups.add_group(10, [1])  # ordinary port range
        with pytest.raises(ValueError):
            groups.add_group(BROADCAST_PORT, [1])
        with pytest.raises(ValueError):
            groups.add_group(GROUP_PORT_BASE, [])

    def test_members_returns_copy(self):
        groups = GroupPortMap()
        groups.add_group(240, [1, 2])
        groups.members(240).append(99)
        assert groups.members(240) == [1, 2]


class TestTreeEncoding:
    def test_roundtrip(self):
        branches = [
            TreeBranch([HeaderSegment(port=1), HeaderSegment(port=0)]),
            TreeBranch([HeaderSegment(port=2, token=b"tk"),
                        HeaderSegment(port=0)]),
            TreeBranch([HeaderSegment(port=3)]),
        ]
        decoded = decode_tree_info(encode_tree_info(branches))
        assert len(decoded) == 3
        for original, parsed in zip(branches, decoded):
            assert parsed.segments == original.segments

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            encode_tree_info([])
        with pytest.raises(DecodeError):
            decode_tree_info(b"")

    def test_trailing_garbage_rejected(self):
        data = encode_tree_info([TreeBranch([HeaderSegment(port=1)])])
        with pytest.raises(DecodeError):
            decode_tree_info(data + b"\x00")

    def test_truncated_rejected(self):
        data = encode_tree_info([TreeBranch([HeaderSegment(port=1)])])
        with pytest.raises(DecodeError):
            decode_tree_info(data[:-1])

    def test_branch_needs_segments(self):
        with pytest.raises(ValueError):
            TreeBranch([])


class TestMulticastAgent:
    def test_explosion_to_all_members(self):
        sent = []
        agent = MulticastAgent(lambda route, payload: sent.append(route))
        agent.add_member("route-a")
        agent.add_member("route-b")
        agent.add_member("route-c")
        agent.on_payload(b"data")
        assert sent == ["route-a", "route-b", "route-c"]
        assert agent.exploded == 1

    def test_no_members_is_fine(self):
        agent = MulticastAgent(lambda *a: None)
        agent.on_payload(b"data")
        assert agent.exploded == 1


class TestRouterIntegration:
    """Mechanisms 1 and 2 exercised through a real router."""

    def _star(self):
        from repro.core.host import SirpentHost
        from repro.core.router import SirpentRouter
        from repro.net.topology import Topology
        from repro.sim.engine import Simulator

        sim = Simulator()
        topo = Topology(sim)
        router = topo.add_node(SirpentRouter(sim, "hub"))
        src = topo.add_node(SirpentHost(sim, "src"))
        leaves = [topo.add_node(SirpentHost(sim, f"leaf{i}")) for i in range(3)]
        _, src_port, _ = topo.connect(src, router)
        leaf_ports = []
        for leaf in leaves:
            _, router_port, _ = topo.connect(router, leaf)
            leaf_ports.append(router_port)
        inboxes = []
        for leaf in leaves:
            box = []
            leaf.bind(0, box.append)
            inboxes.append(box)
        return sim, router, src, src_port, leaf_ports, inboxes

    def _route(self, segments, first_hop_port):
        class R:
            pass

        route = R()
        route.segments = segments
        route.first_hop_port = first_hop_port
        route.first_hop_mac = None
        return route

    def test_group_port_duplicates_packet(self):
        sim, router, src, src_port, leaf_ports, inboxes = self._star()
        router.groups.add_group(240, leaf_ports)
        route = self._route(
            [HeaderSegment(port=240), HeaderSegment(port=0)], src_port
        )
        src.send(route, b"mc".ljust(200, b"\0"))
        sim.run(until=1.0)
        assert all(len(box) == 1 for box in inboxes)
        assert router.stats.multicast_copies.count == 3

    def test_broadcast_port_floods_other_ports(self):
        sim, router, src, src_port, leaf_ports, inboxes = self._star()
        route = self._route(
            [HeaderSegment(port=BROADCAST_PORT), HeaderSegment(port=0)],
            src_port,
        )
        src.send(route, b"bc".ljust(200, b"\0"))
        sim.run(until=1.0)
        # Delivered to the three leaves, not looped back to the source.
        assert all(len(box) == 1 for box in inboxes)

    def test_tree_segment_clones_per_branch(self):
        sim, router, src, src_port, leaf_ports, inboxes = self._star()
        branches = [
            TreeBranch([HeaderSegment(port=p), HeaderSegment(port=0)])
            for p in leaf_ports[:2]
        ]
        route = self._route(
            [HeaderSegment(port=TREE_PORT,
                           portinfo=encode_tree_info(branches))],
            src_port,
        )
        src.send(route, b"tree".ljust(200, b"\0"))
        sim.run(until=1.0)
        assert len(inboxes[0]) == 1 and len(inboxes[1]) == 1
        assert len(inboxes[2]) == 0

    def test_malformed_tree_counted(self):
        sim, router, src, src_port, _lp, inboxes = self._star()
        route = self._route(
            [HeaderSegment(port=TREE_PORT, portinfo=b"\xff\x00")], src_port
        )
        src.send(route, b"bad".ljust(50, b"\0"))
        sim.run(until=1.0)
        assert router.stats.dropped_bad_portinfo.count == 1
        assert all(len(box) == 0 for box in inboxes)
