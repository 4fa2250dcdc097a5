"""Hierarchical region servers (Singh's scheme, §3).

"The scheme assumes that the internetwork is structured as a hierarchy
of regions with a routing directory server for each region, analogous to
the Internet Domain Name service. … Each server is responsible for
maintaining the routing information for immediately higher layer
servers and lower level servers within the same region."

Name resolution walks the hierarchy, charging a configurable per-server
query latency; results are cached with a TTL ("the use of caching,
on-use detection of stale data and hierarchical structure … reduces the
expected response time").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.directory.names import HierarchicalName
from repro.sim.engine import Simulator


@dataclass
class Resolution:
    """Result of resolving a name through the hierarchy."""

    node_name: str
    latency: float
    servers_visited: int
    from_cache: bool


class RegionServer:
    """One directory server, responsible for one region.

    The root server has ``region=None``.  Children are indexed by their
    region's most-significant extra label.
    """

    def __init__(
        self,
        sim: Simulator,
        region: Optional[HierarchicalName] = None,
        parent: Optional["RegionServer"] = None,
        hop_latency: float = 2e-3,
        cache_ttl: float = 60.0,
    ) -> None:
        self.sim = sim
        self.region = region
        self.parent = parent
        self.hop_latency = hop_latency
        self.cache_ttl = cache_ttl
        self.children: Dict[str, "RegionServer"] = {}
        self.hosts: Dict[str, str] = {}  # full name -> topology node name
        self._cache: Dict[str, Tuple[str, float]] = {}
        self.queries = 0
        self.cache_hits = 0

    # -- construction ------------------------------------------------------

    def add_child(self, label: str, hop_latency: Optional[float] = None) -> "RegionServer":
        if label in self.children:
            return self.children[label]
        child_region = (
            HierarchicalName((label,) + (self.region.labels if self.region else ()))
        )
        child = RegionServer(
            self.sim,
            region=child_region,
            parent=self,
            hop_latency=hop_latency if hop_latency is not None else self.hop_latency,
            cache_ttl=self.cache_ttl,
        )
        self.children[label] = child
        return child

    def server_for_region(self, region: HierarchicalName) -> "RegionServer":
        """Descend from this (root) server, creating servers as needed."""
        server = self
        for label in reversed(region.labels):
            server = server.add_child(label)
        return server

    def register(self, name: HierarchicalName, node_name: str) -> None:
        """Register a host in its region's server (descending from here)."""
        region = name.region()
        server = self if region is None else self.server_for_region(region)
        server.hosts[str(name)] = node_name

    # -- resolution -----------------------------------------------------------

    def resolve(self, name: HierarchicalName) -> Optional[Resolution]:
        """Resolve a name starting at this server.

        Walks up toward the root while the name is outside this region,
        then down into the owning region, charging ``hop_latency`` per
        server-to-server step.  Cached answers cost nothing extra.
        """
        self.queries += 1
        cached = self._cache.get(str(name))
        if cached is not None:
            node_name, expiry = cached
            if self.sim.now <= expiry:
                self.cache_hits += 1
                return Resolution(node_name, 0.0, 0, from_cache=True)
            del self._cache[str(name)]

        latency = 0.0
        visited = 0
        server: Optional[RegionServer] = self
        # Ascend until the name is within (or at) this server's region.
        while server is not None:
            if server.region is None or name.is_within(server.region):
                break
            server = server.parent
            latency += self.hop_latency
            visited += 1
        if server is None:
            return None
        # Descend toward the owning region.
        while True:
            if str(name) in server.hosts:
                node_name = server.hosts[str(name)]
                self._cache[str(name)] = (node_name, self.sim.now + self.cache_ttl)
                return Resolution(node_name, latency, visited, from_cache=False)
            descended = False
            for label, child in server.children.items():
                if child.region is not None and name.is_within(child.region):
                    server = child
                    latency += self.hop_latency
                    visited += 1
                    descended = True
                    break
            if not descended:
                return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        region = str(self.region) if self.region else "<root>"
        return f"<RegionServer {region} hosts={len(self.hosts)} children={len(self.children)}>"
