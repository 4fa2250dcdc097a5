"""Booting a live UDP overlay from a simulator topology description.

The simulator and the live overlay describe networks the same way: a
:class:`repro.net.topology.Topology` of named routers/hosts joined by
point-to-point edges with VIPER port ids.  :class:`LiveOverlay` walks
that description and stands up the *live* twin — one
:class:`~repro.live.router.LiveRouter` or
:class:`~repro.live.host.LiveHost` per node, each on its own loopback
UDP socket, ports wired to the peers' bound addresses — plus a
:class:`~repro.directory.service.DirectoryService` (the simulator's own
directory logic, with its timed refresh/advisory machinery disabled)
exposed over the NDJSON TCP endpoint of
:class:`~repro.live.directory.LiveDirectoryServer`.

Because live routers copy each sim router's mint secret and token
policy, tokens the directory mints against the sim topology verify
unchanged on the live routers — one configuration, two substrates.

v1 supports point-to-point edges only; an Ethernet segment in the
description raises at boot rather than silently misrouting.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.directory.routes import Route
from repro.directory.service import DirectoryService, RouteQuery
from repro.live.directory import LiveDirectoryServer
from repro.live.host import LiveHost
from repro.live.link import Address, Impairments, LivenessConfig
from repro.live.metrics import EndpointMetrics, render_metrics
from repro.live.router import LiveRouter, LiveRouterConfig
from repro.net.topology import Topology
from repro.obs.adapters import register_endpoint_metrics
from repro.obs.httpd import ObsHttpServer
from repro.obs.recorder import FlightRecorder
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloEngine


def as_live_route(route: Route) -> Route:
    """The route itself: a live host sends along the directory's
    :class:`~repro.directory.routes.Route`, as a simulated one does.
    Kept by name for drivers written when the live host held a route
    type of its own."""
    return route


class LiveOverlay:
    """A live UDP twin of a simulator topology, on loopback sockets."""

    def __init__(
        self,
        topology: Topology,
        impairments: Optional[Impairments] = None,
        liveness: Optional[LivenessConfig] = None,
        host: str = "127.0.0.1",
        tracer=None,
        obs_port: Optional[int] = None,
        recorder: Optional[FlightRecorder] = None,
    ) -> None:
        self.topology = topology
        self.impairments = impairments
        self.liveness = liveness
        self.bind_host = host
        self.routers: Dict[str, LiveRouter] = {}
        self.hosts: Dict[str, LiveHost] = {}
        self.addresses: Dict[str, Address] = {}
        #: Optional :class:`repro.obs.trace.Tracer` installed on every
        #: live node at :meth:`start` (None = tracing disabled).
        self.tracer = tracer
        #: The always-on flight recorder, shared by every node of this
        #: overlay (append order = causal order); pass one in to share
        #: a ring with components outside the overlay (chaos seam).
        self.recorder = recorder if recorder is not None else FlightRecorder()
        #: This overlay's own metrics registry; every endpoint's counters
        #: are adopted into it as pull-time collectors at :meth:`start`.
        self.registry = MetricsRegistry()
        #: SLO burn-rate engine over this overlay's registry, serving
        #: the obs endpoint's ``/slo`` (the default objectives).
        self.slo = SloEngine(self.registry)
        #: TCP port for the ``/metrics`` + ``/trace`` HTTP endpoint
        #: (None = do not serve; 0 = pick an ephemeral port).
        self.obs_port = obs_port
        self.obs_server: Optional[ObsHttpServer] = None
        self.obs_address: Optional[Address] = None
        #: The simulator's directory logic, reused verbatim (timers off).
        self.directory = DirectoryService(
            topology.sim, topology, refresh_interval=None,
            advisory_interval=None,
        )
        self.directory_server = LiveDirectoryServer(self.directory.query)
        self.directory_address: Optional[Address] = None
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:  # sirlint: interleave-safe -- single-owner boot path; _started guard raises on re-entry
        """Instantiate, bind and wire every node, then the directory."""
        if self._started:
            raise RuntimeError("overlay already started")
        for name, node in self.topology.nodes.items():
            if isinstance(node, SirpentRouter):
                live: object = LiveRouter(
                    name,
                    config=LiveRouterConfig(
                        token_policy=node.config.token_policy,
                        require_tokens=node.config.require_tokens,
                    ),
                    mint_secret=node.mint.secret,
                    impairments=self.impairments,
                    liveness=self.liveness,
                )
                self.routers[name] = live  # type: ignore[assignment]
            elif isinstance(node, SirpentHost):
                live = LiveHost(
                    name,
                    impairments=self.impairments,
                    liveness=self.liveness,
                )
                self.hosts[name] = live  # type: ignore[assignment]
                self.directory.register_host(name, name)
            else:
                raise ValueError(
                    f"node {name!r} of type {type(node).__name__} has no "
                    "live twin"
                )
        for name in self.routers:
            self.addresses[name] = await self.routers[name].start(
                self.bind_host
            )
        for name in self.hosts:
            self.addresses[name] = await self.hosts[name].start(
                self.bind_host
            )
        for edge in self.topology.all_edges():
            if edge.medium != "p2p":
                raise ValueError(
                    f"edge {edge.src}->{edge.dst} uses medium "
                    f"{edge.medium!r}; the live overlay v1 is "
                    "point-to-point only"
                )
            self._node(edge.src).connect_port(
                edge.port_id, self.addresses[edge.dst]
            )
        self.directory_address = await self.directory_server.start(
            self.bind_host
        )
        for live_node in list(self.routers.values()) + list(self.hosts.values()):
            register_endpoint_metrics(self.registry, live_node.metrics)
            if self.tracer is not None:
                live_node.set_tracer(self.tracer)
        self.recorder.install(
            *self.routers.values(), *self.hosts.values(),
            self.directory_server,
        )
        self.directory_server.attach_registry(self.registry)
        if self.tracer is not None:
            self.directory_server.set_tracer(self.tracer)
        if self.obs_port is not None:
            self.obs_server = ObsHttpServer(
                self.registry, tracer=self.tracer,
                slo=self.slo, recorder=self.recorder,
            )
            self.obs_address = await self.obs_server.start(
                self.bind_host, self.obs_port
            )
        self._started = True

    def stop(self) -> None:
        """Shut every live node and the directory endpoint down."""
        if self.obs_server is not None:
            self.obs_server.stop()
            self.obs_server = None
        self.directory_server.stop()
        for router in self.routers.values():
            router.stop()
        for live_host in self.hosts.values():
            live_host.stop()
        self._started = False

    def kill(self, name: str) -> None:
        """Failure injection: abruptly stop one node (socket closes).

        Neighbours discover the death through their links' probe ladders
        (a dead port), the transport through its own timeouts — the
        observables slick reroute and rebinding react to.
        """
        self._node(name).stop()

    async def restart_router(self, name: str) -> Address:
        """Bring a killed router back on its original UDP port.

        The router re-derives all soft state (§2.2) — token cache, flow
        cache, probe ladder — while its configuration (port
        wiring, mint secret) survives, so no peer needs rewiring and
        previously minted tokens verify on the reborn router.
        """
        if name not in self.routers:
            raise KeyError(f"no live router {name!r}")
        address = await self.routers[name].restart(self.bind_host)
        self.addresses[name] = address
        return address

    async def restart_directory(self) -> Address:  # sirlint: interleave-safe -- chaos-driver path; one injector task owns restarts
        """Bring a stopped directory server back on its original port."""
        port = self.directory_address[1] if self.directory_address else 0
        self.directory_address = await self.directory_server.start(
            self.bind_host, port
        )
        return self.directory_address

    def _node(self, name: str):
        if name in self.routers:
            return self.routers[name]
        if name in self.hosts:
            return self.hosts[name]
        raise KeyError(f"no live node {name!r}")

    # -- routes ------------------------------------------------------------

    def routes(self, client: str, destination: str, **query: object) -> List[Route]:
        """In-process route query (same logic the TCP endpoint serves);
        ``query`` takes any other
        :class:`~repro.directory.service.RouteQuery` field (``k``,
        ``objective``, ``account`` …), as
        :meth:`~repro.live.directory.LiveDirectoryClient.routes` does."""
        return self.directory.query(
            client, RouteQuery(destination, **query)  # type: ignore[arg-type]
        )

    # -- observability -----------------------------------------------------

    def metrics(self) -> List[EndpointMetrics]:
        """Every live node's counters, hosts first then routers, by name."""
        ordered = [self.hosts[n].metrics for n in sorted(self.hosts)]
        ordered += [self.routers[n].metrics for n in sorted(self.routers)]
        return ordered

    def render_metrics(self) -> str:
        """The per-endpoint counter table for reports and benchmarks."""
        return render_metrics(self.metrics())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveOverlay routers={sorted(self.routers)} "
            f"hosts={sorted(self.hosts)}>"
        )
