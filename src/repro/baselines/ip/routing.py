"""Distributed link-state routing for the IP baseline.

This is the machinery the paper's §2.3 contrasts with Sirpent: every
router stores "the entire internetwork topology" and recomputes
shortest-path trees when link-state advertisements flood through.  The
timing model is honest end to end:

* hellos every ``hello_interval``; a neighbor is declared dead after
  ``DEAD_MULTIPLIER`` missed hellos — that is the failure *detection*
  time,
* LSAs flood hop by hop over the control plane (real link latencies),
* SPF runs ``SPF_DELAY`` after the database changes — the *computation*
  time.

Detection + flooding + SPF is the convergence latency experiment E6
compares against a Sirpent client's switch-to-cached-alternate-route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.baselines.ip.ipaddr import IpAddressAllocator
from repro.core.congestion import ControlPlane
from repro.net.addresses import MacAddress
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter

#: Missed hellos after which a neighbor is declared dead.
DEAD_MULTIPLIER = 3
#: SPF runs this long after the link-state database changes.
SPF_DELAY = 5e-3


@dataclass(frozen=True)
class LsaLink:
    """One adjacency advertised in an LSA."""
    neighbor: str
    cost: float
    port_id: int
    dst_mac: Optional[MacAddress]
    is_host: bool = False


@dataclass
class Lsa:
    """A link-state advertisement: a router's view of its adjacencies."""
    origin: str
    seq: int
    links: Tuple[LsaLink, ...]


@dataclass
class _Hello:
    origin: str


@dataclass
class _Neighbor:
    link: LsaLink
    last_heard: float
    alive: bool = True


class LinkStateRouting:
    """One router's link-state protocol instance."""

    def __init__(
        self,
        sim: Simulator,
        router_name: str,
        control_plane: ControlPlane,
        allocator: IpAddressAllocator,
        hello_interval: float = 10e-3,
    ) -> None:
        self.sim = sim
        self.router_name = router_name
        self.control_plane = control_plane
        self.allocator = allocator
        self.hello_interval = hello_interval
        self.dead_interval = hello_interval * DEAD_MULTIPLIER
        self.neighbors: Dict[str, _Neighbor] = {}       # router neighbors
        self.host_links: Dict[str, LsaLink] = {}        # attached stub hosts
        self.lsdb: Dict[str, Lsa] = {}
        self._seq = 0
        #: dst node name -> (out port, next-hop mac or None)
        self.table: Dict[str, Tuple[int, Optional[MacAddress]]] = {}
        self._spf_pending = False
        self.last_table_change: float = 0.0
        self.spf_runs = Counter(f"{router_name}.spf")
        self.lsas_flooded = Counter(f"{router_name}.lsa_flood")

    # -- setup -----------------------------------------------------------

    def discover_neighbors(self, topology: Topology, router_names: set) -> None:
        """Learn adjacency from the (initially all-up) topology."""
        for edge in topology.edges_from(self.router_name):
            link = LsaLink(
                neighbor=edge.dst,
                cost=edge.cost,
                port_id=edge.port_id,
                dst_mac=edge.dst_mac,
                is_host=edge.dst not in router_names,
            )
            if link.is_host:
                self.host_links[edge.dst] = link
            else:
                self.neighbors[edge.dst] = _Neighbor(link, last_heard=self.sim.now)

    def start(self) -> None:
        self._originate()
        self.sim.after(0.0, self._hello_tick)

    # -- hellos and failure detection -----------------------------------------

    def _hello_tick(self) -> None:
        for name in self.neighbors:
            self.control_plane.send(self.router_name, name, _Hello(self.router_name))
        changed = False
        deadline = self.sim.now - self.dead_interval
        for name, neighbor in self.neighbors.items():
            if neighbor.alive and neighbor.last_heard < deadline:
                neighbor.alive = False
                changed = True
        if changed:
            self._originate()
        self.sim.after(self.hello_interval, self._hello_tick)

    # -- LSA origination and flooding --------------------------------------------

    def _originate(self) -> None:
        self._seq += 1
        links = tuple(
            n.link for n in self.neighbors.values() if n.alive
        ) + tuple(self.host_links.values())
        lsa = Lsa(self.router_name, self._seq, links)
        self._install(lsa, from_neighbor=None)

    def _install(self, lsa: Lsa, from_neighbor: Optional[str]) -> None:
        known = self.lsdb.get(lsa.origin)
        if known is not None and known.seq >= lsa.seq:
            return
        self.lsdb[lsa.origin] = lsa
        for name, neighbor in self.neighbors.items():
            if name != from_neighbor and neighbor.alive:
                self.lsas_flooded.add()
                self.control_plane.send(self.router_name, name, lsa)
        self._schedule_spf()

    # -- message dispatch (wired in by IpRouter) ---------------------------------

    def on_message(self, src: str, message: Any) -> bool:
        """Returns True when the message was a routing-protocol message."""
        if isinstance(message, _Hello):
            neighbor = self.neighbors.get(message.origin)
            if neighbor is not None:
                neighbor.last_heard = self.sim.now
                if not neighbor.alive:
                    neighbor.alive = True
                    self._originate()
            return True
        if isinstance(message, Lsa):
            self._install(message, from_neighbor=src)
            return True
        return False

    # -- SPF ------------------------------------------------------------------------

    def _schedule_spf(self) -> None:
        if not self._spf_pending:
            self._spf_pending = True
            self.sim.after(SPF_DELAY, self._run_spf)

    def _run_spf(self) -> None:
        self._spf_pending = False
        self.spf_runs.add()
        import heapq

        dist: Dict[str, float] = {self.router_name: 0.0}
        first_hop: Dict[str, LsaLink] = {}
        heap: List[Tuple[float, int, str, Optional[LsaLink]]] = [
            (0.0, 0, self.router_name, None)
        ]
        seq = 0
        visited = set()
        while heap:
            d, _t, node, hop = heapq.heappop(heap)
            if node in visited:
                continue
            visited.add(node)
            if hop is not None:
                first_hop[node] = hop
            lsa = self.lsdb.get(node)
            if lsa is None:
                continue
            for link in lsa.links:
                if link.neighbor in visited:
                    continue
                nd = d + link.cost
                if nd < dist.get(link.neighbor, float("inf")):
                    dist[link.neighbor] = nd
                    seq += 1
                    next_hop = hop
                    if node == self.router_name:
                        next_hop = link
                    heapq.heappush(heap, (nd, seq, link.neighbor, next_hop))
        new_table = {
            dst: (link.port_id, link.dst_mac) for dst, link in first_hop.items()
        }
        if new_table != self.table:
            self.table = new_table
            self.last_table_change = self.sim.now

    # -- lookup (the per-packet cost lives in IpRouter) ---------------------------------

    def next_hop(self, dst_node: str) -> Optional[Tuple[int, Optional[MacAddress]]]:
        return self.table.get(dst_node)

    def state_size(self) -> Dict[str, int]:
        """§2.3 scalability accounting: what this router must store."""
        lsdb_links = sum(len(lsa.links) for lsa in self.lsdb.values())
        return {
            "lsdb_entries": len(self.lsdb),
            "lsdb_links": lsdb_links,
            "forwarding_entries": len(self.table),
        }
