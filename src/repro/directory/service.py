"""The route-granting directory service (§3).

Clients name a destination and a type-of-service objective; the service
returns one or more :class:`~repro.directory.routes.Route` objects with
attributes and — when asked — the port tokens each router on the route
requires.  In the paper the directory and the routers' administrative
domains cooperate on token issuance; here the service holds references
to the router objects and mints with their mints, which models the same
trust relationship.

The service's topology view can be made *stale* (``refresh_interval``):
it then answers from a periodic snapshot, which is what makes the E6
failure-recovery experiment honest — the directory does not magically
know a link just died; clients detect trouble end-to-end and fall back
to their cached alternate routes, exactly the paper's argument.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Tuple

from repro.directory.names import HierarchicalName
from repro.directory.pathfind import (
    PathObjective,
    dijkstra,
    k_shortest_paths,
    path_weight,
)
from repro.directory.regions import RegionServer
from repro.directory.routes import Route
from repro.net.addresses import ETHERTYPE_SIRPENT
from repro.net.topology import Edge, Topology
from repro.sim.engine import Simulator
from repro.viper.portinfo import CompressedEthernetInfo, EthernetInfo
from repro.viper.wire import HeaderSegment


class BindingConflictError(ValueError):
    """A registration that contradicts an existing binding.

    Registration is *idempotent*: re-registering an identical binding
    is a silent no-op (required for at-least-once command replay — a
    retried register must not fail just because its first copy landed).
    A **different** binding for the same name is a typed error, never
    last-write-wins; moving a name is the explicit
    :meth:`DirectoryService.rebind_host` operation.
    """

    def __init__(self, name: str, bound_to: object, requested: object) -> None:
        super().__init__(
            f"{name} is bound to {bound_to!r}, refusing {requested!r}"
        )
        self.name = name
        self.bound_to = bound_to
        self.requested = requested


@dataclass
class RouteQuery:
    """Parameters of one route request."""

    destination: str
    objective: PathObjective = PathObjective.LOW_DELAY
    k: int = 1
    dest_socket: int = 0
    with_tokens: bool = False
    reverse_ok: bool = True
    account: int = 0
    priority_limit: int = 0x7
    #: Footnote 4 of the paper: emit 8-byte destination+type Ethernet
    #: portInfo, leaving the source fill-in to each router.
    compress_ethernet: bool = False


@dataclass
class _Subscription:
    client: str
    query: RouteQuery
    callback: Callable[[List[Route]], None]
    last_key: Tuple = ()


class DirectoryService:
    """Routes-as-directory-attributes, with tokens, loads and advisories."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        root_server: Optional[RegionServer] = None,
        refresh_interval: Optional[float] = None,
        advisory_interval: float = 50e-3,
        query_rtt: float = 1e-3,
    ) -> None:
        self.sim = sim
        self.topology = topology
        self.root_server = root_server
        self.query_rtt = query_rtt
        self.refresh_interval = refresh_interval
        self.advisory_interval = advisory_interval
        self._names: Dict[str, str] = {}       # full name -> node name
        self._services: Dict[str, List[str]] = {}  # service -> provider nodes
        self._home_server: Dict[str, RegionServer] = {}  # node name -> its server
        self._edge_snapshot: Optional[List[Edge]] = None
        self._loads: Dict[str, float] = {}     # link name -> utilization
        self._subscriptions: List[_Subscription] = []
        #: Paths already found, and the edge list they were found in:
        #: (client, providers, objective, k) -> paths, best first.
        self._path_memo: Tuple[List[Edge], Dict[tuple, List[List[Edge]]]] = ([], {})
        self.queries_served = 0
        self.tokens_issued = 0
        if refresh_interval is not None:
            self._edge_snapshot = topology.edges()
            sim.after(refresh_interval, self._refresh)
        if advisory_interval is not None:
            sim.after(advisory_interval, self._advisory_tick)

    # -- registration -----------------------------------------------------------

    def register_host(self, node_name: str, name: str) -> HierarchicalName:
        """Bind a character-string name to a topology node.

        Idempotent: re-registering the same binding is a no-op; a
        conflicting binding raises :class:`BindingConflictError` (use
        :meth:`rebind_host` for deliberate moves), and so does a service
        name: a name is a host or a service, never both.
        """
        parsed = HierarchicalName.parse(name)
        key = str(parsed)
        providers = self._services.get(key)
        if providers is not None:
            raise BindingConflictError(key, providers, node_name)
        existing = self._names.get(key)
        if existing is not None:
            if existing == node_name:
                return parsed
            raise BindingConflictError(key, existing, node_name)
        self._names[key] = node_name
        if self.root_server is not None:
            self.root_server.register(parsed, node_name)
            region = parsed.region()
            server = (
                self.root_server if region is None
                else self.root_server.server_for_region(region)
            )
            self._home_server[node_name] = server
        return parsed

    def register_service(self, name: str, node_names: List[str]) -> None:
        """Bind a service name to several provider hosts (§3).

        "the routes to a service can be regarded as just one of many
        attributes of the service" — a replicated service simply has
        routes to every instance; queries return the best instances
        under the requested objective.
        """
        if not node_names:
            raise ValueError("a service needs at least one provider")
        key = str(HierarchicalName.parse(name))
        host = self._names.get(key)
        if host is not None:
            raise BindingConflictError(key, host, list(node_names))
        existing = self._services.get(key)
        if existing is not None:
            if existing == list(node_names):
                return
            raise BindingConflictError(key, existing, list(node_names))
        self._services[key] = list(node_names)

    def rebind_host(self, node_name: str, name: str) -> HierarchicalName:
        """Deliberately move a name to a (possibly new) node (§6.3).

        The explicit non-idempotent-write escape hatch: unlike
        :meth:`register_host` this never conflicts with a host binding —
        migration and failover rebinds are supposed to replace the old
        one — but a service name stays a service.
        """
        parsed = HierarchicalName.parse(name)
        self._names.pop(str(parsed), None)
        return self.register_host(node_name, name)

    def nodes_of(self, destination: str) -> List[str]:
        """All provider nodes for a name (hosts have exactly one)."""
        key = str(HierarchicalName.parse(destination))
        providers = self._services.get(key)
        if providers is not None:
            return list(providers)
        node = self._names.get(key)
        return [node] if node is not None else []

    # -- topology view -----------------------------------------------------------

    def _refresh(self) -> None:
        self._edge_snapshot = self.topology.edges()
        if self.refresh_interval is not None:
            self.sim.after(self.refresh_interval, self._refresh)

    def current_edges(self) -> List[Edge]:
        edges = (
            self._edge_snapshot
            if self._edge_snapshot is not None
            else self.topology.edges()
        )
        if not self._loads:
            return edges
        return [self._load_adjusted(e) for e in edges]

    def _load_adjusted(self, edge: Edge) -> Edge:
        """Scale edge cost by reported load so hot links look expensive.

        Reported loads feed objective weights the way §6.3 envisions:
        "the routing directory servers maintain reasonably up-to-date
        load information on links".
        """
        load = self._loads.get(edge.link_name, 0.0)
        if load <= 0.0:
            return edge
        factor = 1.0 / max(0.05, 1.0 - min(load, 0.95))
        return replace(edge, cost=edge.cost * factor)

    # -- load reports / advisories (§6.3) ------------------------------------------

    def record_load(self, link_name: str, utilization: float) -> None:
        self._loads[link_name] = max(0.0, min(1.0, utilization))

    def subscribe(
        self,
        client: str,
        query: RouteQuery,
        callback: Callable[[List[Route]], None],
    ) -> None:
        """Periodic route advisories: callback fires when the best
        routes for the query change."""
        self._subscriptions.append(_Subscription(client, query, callback))

    def _advisory_tick(self) -> None:
        for sub in self._subscriptions:
            routes = self.query(sub.client, sub.query)
            key = tuple(
                tuple((s.port, s.portinfo) for s in route.segments)
                for route in routes
            )
            if key != sub.last_key:
                sub.last_key = key
                sub.callback(routes)
        self.sim.after(self.advisory_interval, self._advisory_tick)

    # -- queries ---------------------------------------------------------------------

    def query(self, client_node: str, query: RouteQuery) -> List[Route]:
        """Answer a route query immediately (zero simulated latency).

        ``client_node`` is the querying host's topology node name.  Use
        :meth:`query_latency` to learn what the lookup would cost on the
        wire.
        """
        self.queries_served += 1
        providers = self.nodes_of(query.destination)
        if not providers:
            return []
        edges = self.current_edges()
        memo_edges, memo = self._path_memo
        if edges != memo_edges:
            # A link failed or came back, a refresh, a load report: the
            # question is no longer the one the memo answers.
            memo = {}
            self._path_memo = (edges, memo)
        key = (client_node, tuple(providers), query.objective, query.k)
        paths = memo.get(key)
        if paths is None:
            paths = memo[key] = self._find_paths(edges, client_node, providers, query)
        return [self._path_to_route(p, query) for p in paths]

    @staticmethod
    def _find_paths(
        edges: List[Edge], client_node: str, providers: List[str],
        query: RouteQuery,
    ) -> List[List[Edge]]:
        if len(providers) == 1 and query.k > 1:
            # One host: alternates are k disjoint-ish paths to it.
            return [
                p for p in k_shortest_paths(
                    edges, client_node, providers[0], query.k, query.objective
                ) if p
            ]
        # A replicated service: one best path per instance, ranked
        # by the objective, truncated to k.  (A provider co-located
        # with the client needs no network route and is skipped.)
        paths = []
        for provider in providers:
            path = dijkstra(edges, client_node, provider, query.objective)
            if path:
                paths.append(path)
        paths.sort(key=lambda p: path_weight(p, query.objective))
        return paths[:max(1, query.k)]

    def query_latency(self, client_node: str, destination: str) -> float:
        """Simulated cost of the lookup: region resolution + server RTT.

        Footnote 10 of the paper: "Acquiring a route requires a full
        round trip to the region server for the destination" — unless
        cached.
        """
        latency = self.query_rtt
        server = self._home_server.get(client_node)
        if server is not None:
            resolution = server.resolve(HierarchicalName.parse(destination))
            if resolution is not None:
                latency += resolution.latency
        return latency

    # -- path -> Route translation ------------------------------------------------------

    def _path_to_route(self, path: List[Edge], query: RouteQuery) -> Route:
        if not path:
            raise ValueError("empty path")
        first = path[0]
        segments: List[HeaderSegment] = []
        router_edges = path[1:]
        for index, edge in enumerate(router_edges):
            portinfo = b""
            vnt = False
            if edge.medium == "ethernet" and edge.dst_mac is not None:
                if query.compress_ethernet:
                    portinfo = CompressedEthernetInfo(
                        dst=edge.dst_mac, ethertype=ETHERTYPE_SIRPENT,
                    ).to_bytes()
                else:
                    portinfo = EthernetInfo(
                        dst=edge.dst_mac,
                        src=edge.src_mac if edge.src_mac is not None else edge.dst_mac,
                        ethertype=ETHERTYPE_SIRPENT,
                    ).to_bytes()
            else:
                # Point-to-point hop followed by more VIPER segments: the
                # VNT flag says "portInfo void, next segment follows".
                vnt = True
            token = b""
            if query.with_tokens:
                token = self._mint_for(edge, query)
            segments.append(HeaderSegment(
                port=edge.port_id, vnt=vnt, token=token, portinfo=portinfo,
            ))
        segments.append(HeaderSegment(port=query.dest_socket))
        return Route(
            destination=query.destination,
            segments=segments,
            first_hop_port=first.port_id,
            first_hop_mac=first.dst_mac,
            mtu=min(e.mtu for e in path),
            bottleneck_bps=min(e.rate_bps for e in path),
            propagation_delay=sum(e.propagation_delay for e in path),
            hop_count=len(router_edges),
            cost=sum(e.cost for e in path),
            secure=all(e.secure for e in path),
            issued_at=self.sim.now,
        )

    def _mint_for(self, edge: Edge, query: RouteQuery) -> bytes:
        router = self.topology.nodes.get(edge.src)
        mint = getattr(router, "mint", None)
        if mint is None:
            return b""
        self.tokens_issued += 1
        return mint.mint(
            port=edge.port_id,
            account=query.account,
            max_priority=query.priority_limit,
            reverse_ok=query.reverse_ok,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DirectoryService names={len(self._names)} "
            f"queries={self.queries_served}>"
        )
