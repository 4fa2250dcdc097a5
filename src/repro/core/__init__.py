"""Sirpent core: the cut-through router and its host stack.

This is the paper's primary contribution (§2): source-routed switching
with per-hop header stripping and trailer construction, cut-through
forwarding, token admission, priority queues with preemption, blocked-
packet policies, rate-based congestion control, logical ports/links,
multicast and truncation-instead-of-fragmentation.
"""

from repro.core.blocked import BlockedPolicy
from repro.core.congestion import FlowLimiter, RateControlManager, RateSignal
from repro.core.host import DeliveredPacket, SirpentHost
from repro.core.packet import FramePacket
from repro.core.queues import OutputPort, SubmitResult
from repro.core.router import RouterConfig, SirpentRouter
from repro.core.tunnel import (
    CvcTunnelAttachment,
    IpTunnelAttachment,
    attach_cvc_tunnel,
    attach_tunnel,
)
from repro.dataplane.logical import LogicalPortMap, SelectionPolicy
from repro.dataplane.multicast import MulticastAgent, TreeBranch, decode_tree_info, encode_tree_info

__all__ = [
    "BlockedPolicy",
    "DeliveredPacket",
    "CvcTunnelAttachment",
    "FlowLimiter",
    "FramePacket",
    "IpTunnelAttachment",
    "LogicalPortMap",
    "attach_cvc_tunnel",
    "attach_tunnel",
    "MulticastAgent",
    "OutputPort",
    "RateControlManager",
    "RateSignal",
    "RouterConfig",
    "SelectionPolicy",
    "SirpentHost",
    "SirpentRouter",
    "SubmitResult",
    "TreeBranch",
    "decode_tree_info",
    "encode_tree_info",
]
