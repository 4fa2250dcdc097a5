"""Sans-IO dataplane: the per-hop forwarding algorithm, exactly once.

:class:`ForwardingPipeline` decides; :class:`repro.dataplane.router.
RouterCore` reads each frame for it, owns the router's soft state and
applies the :class:`Decision`.  The two routers
(:class:`repro.core.router.SirpentRouter`,
:class:`repro.live.router.LiveRouter`) are adapters over that core that
supply IO and timing, and the two hosts
(:class:`repro.core.host.SirpentHost`, :class:`repro.live.host.LiveHost`)
are adapters over the one host edge, :class:`repro.dataplane.host.
HostCore`.  See ``docs/ARCHITECTURE.md`` §4 and §9.
"""

from repro.dataplane.effects import Action, Decision, EffectSink, apply_drop
from repro.dataplane.flowcache import (
    FlowCache,
    FlowCacheStats,
    FlowEntry,
)
from repro.dataplane.logical import (
    LogicalPortMap,
    SelectionPolicy,
    TransitExpansion,
    TrunkGroup,
)
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
from repro.dataplane.pipeline import (
    Capabilities,
    ForwardingPipeline,
    HopInput,
    PortMap,
    PortProfile,
    UNKNOWN_IN_PORT,
    resolve_dst_mac,
)

__all__ = [
    "Action",
    "BROADCAST_PORT",
    "Capabilities",
    "Decision",
    "EffectSink",
    "FlowCache",
    "FlowCacheStats",
    "FlowEntry",
    "ForwardingPipeline",
    "GROUP_PORT_BASE",
    "GroupPortMap",
    "HopInput",
    "LogicalPortMap",
    "MulticastAgent",
    "PortMap",
    "PortProfile",
    "SelectionPolicy",
    "TREE_PORT",
    "TransitExpansion",
    "TreeBranch",
    "TrunkGroup",
    "UNKNOWN_IN_PORT",
    "apply_drop",
    "decode_tree_info",
    "encode_tree_info",
    "resolve_dst_mac",
]
