"""Hierarchical switch fabrics (§5).

"Reserving 0 as a special port value meaning 'local', the effective
number of ports per switch is limited to 255.  We require that larger
fan-out switches be structured hierarchically as a series of switches,
each with a fan-out of at most 255.  The hierarchical structuring has a
number of advantages in the development of a switching fabric and
imposes no significant additional delay given the use of cut-through
routing at each stage."

:func:`build_fabric` composes Sirpent routers into a tree that behaves
as one big switch: external ports live on the leaves, the root/spine
stages relay between them.  :func:`fabric_route_segments` computes the
internal segments from one external port to another, so the caller can
splice a fabric crossing into a source route (typically behind a
logical transit port, §2.2 — which is exactly how a real deployment
would hide the fabric's internals from sources).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core.router import RouterConfig, SirpentRouter
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment


@dataclass
class Fabric:
    """A tree of stage routers acting as one high-fan-out switch."""

    root: SirpentRouter
    leaves: List[SirpentRouter]
    stages: int
    #: external index -> (leaf router, uplink port on leaf toward root)
    _uplink: Dict[str, int] = field(default_factory=dict)
    #: (parent name, child name) -> parent's port toward the child
    _downlink: Dict[Tuple[str, str], int] = field(default_factory=dict)
    _leaf_of: Dict[int, SirpentRouter] = field(default_factory=dict)
    _parent: Dict[str, str] = field(default_factory=dict)

    def leaf_for(self, external_index: int) -> SirpentRouter:
        return self._leaf_of[external_index]

    def internal_segments(
        self, src_external: int, dst_leaf_port: int, dst_external: int
    ) -> List[HeaderSegment]:
        """Segments carrying a packet from the source leaf to the
        destination leaf's external port ``dst_leaf_port``.

        The packet enters at ``leaf_for(src_external)``; the returned
        segments walk up to the common ancestor and back down, ending
        with the destination leaf's external port.
        """
        src_leaf = self.leaf_for(src_external)
        dst_leaf = self.leaf_for(dst_external)
        if src_leaf is dst_leaf:
            return [HeaderSegment(port=dst_leaf_port)]
        # Walk up from both leaves to the root, recording paths.
        up_path = []
        node = src_leaf.name
        while node != self.root.name:
            up_path.append(node)
            node = self._parent[node]
        down_path = []
        node = dst_leaf.name
        while node != self.root.name:
            down_path.append(node)
            node = self._parent[node]
        down_path.reverse()
        segments: List[HeaderSegment] = []
        # Up: each hop uses the current router's uplink port.
        for name in up_path:
            segments.append(HeaderSegment(
                port=self._uplink[name], vnt=True,
            ))
        # Down from the root: parent's port toward each child.
        previous = self.root.name
        for name in down_path:
            segments.append(HeaderSegment(
                port=self._downlink[(previous, name)], vnt=True,
            ))
            previous = name
        segments.append(HeaderSegment(port=dst_leaf_port))
        return segments


def build_fabric(
    sim: Simulator,
    topology: Topology,
    n_leaves: int = 4,
    rate_bps: float = 100e6,
    propagation_delay: float = 1e-6,
    router_config: Optional[RouterConfig] = None,
    name: str = "fabric",
) -> Fabric:
    """A two-stage (root + leaves) fabric; enough to measure the §5
    claim, and the same machinery composes deeper trees."""
    if n_leaves < 1:
        raise ValueError("need at least one leaf")
    config = router_config if router_config is not None else RouterConfig()
    root = SirpentRouter(sim, f"{name}-root", config=config)
    topology.add_node(root)
    fabric = Fabric(root=root, leaves=[], stages=2)
    for index in range(n_leaves):
        leaf = SirpentRouter(sim, f"{name}-leaf{index}", config=config)
        topology.add_node(leaf)
        _link, leaf_up, root_down = topology.connect(
            leaf, root, rate_bps=rate_bps,
            propagation_delay=propagation_delay,
            name=f"{name}-l{index}",
        )
        fabric.leaves.append(leaf)
        fabric._uplink[leaf.name] = leaf_up
        fabric._downlink[(root.name, leaf.name)] = root_down
        fabric._parent[leaf.name] = root.name
        fabric._leaf_of[index] = leaf
    return fabric
