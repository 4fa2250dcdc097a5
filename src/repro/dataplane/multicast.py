"""The three Sirpent multicast mechanisms (§2).

1. **Reserved port values** — "port values can be reserved to specify
   multiple ports, rather than just one port", including a broadcast
   value meaning "all ports".  Realized as a per-router map from port
   value to a list of physical ports.
2. **Tree-structured routes** (after Blazenet) — "multiple header
   segments specified for a routing point, with each header segment
   causing a copy of the packet to be routed according to the port it
   specifies."  Realized as a reserved ``TREE_PORT`` whose portInfo
   encodes the branches; the router clones the packet per branch.
3. **Multicast agents** — route the packet to an agent which "explodes"
   it: the full header is delivered to the agent, which re-sends along
   per-member routes.  Realized as a host-level service.

The paper leaves wire details open; the branch encoding here is our
realization and is documented as such.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.viper.errors import DecodeError
from repro.viper.wire import HeaderSegment, decode_segment, encode_segment

#: Reserved port value whose portInfo is a tree-branch encoding
#: (our realization of mechanism 2; ports 1..239 remain ordinary).
TREE_PORT = 254

#: Reserved port value meaning "transmit out all ports" (mechanism 1's
#: simple broadcast case).
BROADCAST_PORT = 253

#: First port value available for configured multicast groups.
GROUP_PORT_BASE = 240


@dataclass
class TreeBranch:
    """One branch of a tree-structured multicast route."""

    segments: List[HeaderSegment]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ValueError("a tree branch needs at least one segment")


def encode_tree_info(branches: List[TreeBranch]) -> bytes:
    """Serialize branches into a portInfo payload.

    Layout: ``count(1)`` then per branch ``n_segments(1)`` followed by
    the stacked encoded segments.
    """
    if not 1 <= len(branches) <= 255:
        raise ValueError("tree needs 1..255 branches")
    out = bytearray([len(branches)])
    for branch in branches:
        if not 1 <= len(branch.segments) <= 255:
            raise ValueError("branch needs 1..255 segments")
        out.append(len(branch.segments))
        for segment in branch.segments:
            out += encode_segment(segment)
    return bytes(out)


def decode_tree_info(data: bytes) -> List[TreeBranch]:
    """Parse a tree portInfo payload back into branches."""
    if not data:
        raise DecodeError("empty tree portInfo")
    count = data[0]
    if count == 0:
        raise DecodeError("tree with zero branches")
    offset = 1
    branches: List[TreeBranch] = []
    for _ in range(count):
        if offset >= len(data):
            raise DecodeError("truncated tree portInfo (branch header)")
        n_segments = data[offset]
        offset += 1
        if n_segments == 0:
            raise DecodeError("tree branch with zero segments")
        segments: List[HeaderSegment] = []
        for _ in range(n_segments):
            segment, offset = decode_segment(data, offset)
            segments.append(segment)
        branches.append(TreeBranch(segments))
    if offset != len(data):
        raise DecodeError("trailing bytes after tree branches")
    return branches


class GroupPortMap:
    """Mechanism 1: reserved port values naming sets of physical ports."""

    def __init__(self) -> None:
        self._groups: Dict[int, List[int]] = {}

    def add_group(self, group_port: int, members: List[int]) -> None:
        if not GROUP_PORT_BASE <= group_port < BROADCAST_PORT:
            raise ValueError(
                f"group ports live in {GROUP_PORT_BASE}..{BROADCAST_PORT - 1}"
            )
        if not members:
            raise ValueError("group needs at least one member")
        self._groups[group_port] = list(members)

    def members(self, port: int) -> List[int]:
        return list(self._groups.get(port, ()))

    def is_group(self, port: int) -> bool:
        return port in self._groups


class MulticastAgent:
    """Mechanism 3: an application-level exploder.

    Bound to a host socket; each received payload is re-sent along every
    member route.  ``sender`` is the host's send function
    ``(route, payload) -> None`` so the agent stays
    decoupled from the host class.
    """

    def __init__(
        self,
        sender: Callable[[object, bytes], None],
        name: str = "mcast-agent",
    ) -> None:
        self.sender = sender
        self.name = name
        self.members: List[object] = []  # directory Route objects
        self.exploded = 0

    def add_member(self, route: object) -> None:
        self.members.append(route)

    def on_payload(self, payload: bytes) -> None:
        """Explode one delivery to all members."""
        for route in self.members:
            self.sender(route, payload)
        self.exploded += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MulticastAgent {self.name!r} members={len(self.members)}>"
