"""Scenario builders: line, parallel-path, dumbbell and campus networks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.cvc import CvcHost, CvcSwitch
from repro.baselines.ip import (
    IpAddressAllocator,
    IpHost,
    IpRouter,
    IpRouterConfig,
)
from repro.core.congestion import ControlPlane
from repro.core.host import SirpentHost
from repro.core.router import RouterConfig, SirpentRouter
from repro.directory import DirectoryService, RegionServer, Route, RouteQuery
from repro.directory.pathfind import PathObjective
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.rng import RngStreams
from repro.transport.vmtp import TransportConfig, VmtpTransport

DEFAULT_RATE = 10e6
DEFAULT_PROP = 10e-6


@dataclass
class SirpentScenario:
    """A complete Sirpent internetwork plus its services."""

    sim: Simulator
    topology: Topology
    control_plane: ControlPlane
    directory: DirectoryService
    hosts: Dict[str, SirpentHost] = field(default_factory=dict)
    routers: Dict[str, SirpentRouter] = field(default_factory=dict)
    transports: Dict[str, VmtpTransport] = field(default_factory=dict)
    rngs: RngStreams = field(default_factory=RngStreams)

    def routes(
        self,
        src: str,
        dst: str,
        k: int = 1,
        objective: PathObjective = PathObjective.LOW_DELAY,
        with_tokens: bool = False,
        dest_socket: int = 0,
    ) -> List[Route]:
        """Directory query between two host names (node names)."""
        return self.directory.query(src, RouteQuery(
            destination=f"{dst}.lab.edu",
            objective=objective,
            k=k,
            with_tokens=with_tokens,
            dest_socket=dest_socket,
        ))

    def transport(self, host_name: str, config: Optional[TransportConfig] = None) -> VmtpTransport:
        """The (lazily created) VMTP instance on a host."""
        existing = self.transports.get(host_name)
        if existing is not None:
            return existing
        transport = VmtpTransport(self.sim, self.hosts[host_name], config=config)
        self.transports[host_name] = transport
        return transport

    def vmtp_routes(self, src: str, dst: str, k: int = 1, **kwargs) -> List[Route]:
        """Routes addressed to the destination's VMTP socket."""
        socket = TransportConfig().socket
        return self.routes(src, dst, k=k, dest_socket=socket, **kwargs)


def _new_sirpent(
    seed: int, refresh_interval: Optional[float] = None
) -> SirpentScenario:
    sim = Simulator()
    topology = Topology(sim)
    control_plane = ControlPlane(sim, topology)
    root = RegionServer(sim)
    directory = DirectoryService(
        sim, topology, root_server=root, refresh_interval=refresh_interval
    )
    return SirpentScenario(
        sim=sim, topology=topology, control_plane=control_plane,
        directory=directory, rngs=RngStreams(seed),
    )


def _add_host(scenario: SirpentScenario, name: str) -> SirpentHost:
    host = SirpentHost(scenario.sim, name, control_plane=scenario.control_plane)
    scenario.topology.add_node(host)
    scenario.hosts[name] = host
    scenario.directory.register_host(name, f"{name}.lab.edu")
    return host


def _add_router(
    scenario: SirpentScenario, name: str, config: Optional[RouterConfig]
) -> SirpentRouter:
    router = SirpentRouter(
        scenario.sim, name,
        config=config,
        control_plane=scenario.control_plane,
        rng=scenario.rngs.stream(f"router:{name}"),
    )
    scenario.topology.add_node(router)
    scenario.routers[name] = router
    return router


def build_sirpent_line(
    n_routers: int = 2,
    rate_bps: float = DEFAULT_RATE,
    propagation_delay: float = DEFAULT_PROP,
    mtu: int = 1500,
    router_config: Optional[RouterConfig] = None,
    seed: int = 1,
    extra_host_pairs: int = 0,
    refresh_interval: Optional[float] = None,
) -> SirpentScenario:
    """``src — r1 — r2 — … — rN — dst`` over point-to-point links.

    ``extra_host_pairs`` adds (srcK, dstK) pairs hanging off the same
    end routers, for cross-traffic.
    """
    if n_routers < 1:
        raise ValueError("need at least one router")
    scenario = _new_sirpent(seed, refresh_interval)
    routers = [
        _add_router(scenario, f"r{i + 1}", router_config)
        for i in range(n_routers)
    ]
    src = _add_host(scenario, "src")
    dst = _add_host(scenario, "dst")
    scenario.topology.connect(
        src, routers[0], rate_bps=rate_bps,
        propagation_delay=propagation_delay, mtu=mtu,
    )
    for a, b in zip(routers, routers[1:]):
        scenario.topology.connect(
            a, b, rate_bps=rate_bps,
            propagation_delay=propagation_delay, mtu=mtu,
        )
    scenario.topology.connect(
        routers[-1], dst, rate_bps=rate_bps,
        propagation_delay=propagation_delay, mtu=mtu,
    )
    for pair in range(extra_host_pairs):
        extra_src = _add_host(scenario, f"src{pair + 2}")
        extra_dst = _add_host(scenario, f"dst{pair + 2}")
        scenario.topology.connect(
            extra_src, routers[0], rate_bps=rate_bps,
            propagation_delay=propagation_delay, mtu=mtu,
        )
        scenario.topology.connect(
            routers[-1], extra_dst, rate_bps=rate_bps,
            propagation_delay=propagation_delay, mtu=mtu,
        )
    return scenario


def build_sirpent_parallel(
    n_paths: int = 3,
    rate_bps: float = DEFAULT_RATE,
    propagation_delay: float = DEFAULT_PROP,
    path_delay_step: float = 0.0,
    router_config: Optional[RouterConfig] = None,
    seed: int = 1,
    refresh_interval: Optional[float] = None,
) -> SirpentScenario:
    """``src — rA — (p1|p2|…|pN) — rB — dst``: N disjoint middle paths.

    ``path_delay_step`` makes successive paths progressively slower so
    the k-shortest query returns them in a deterministic order.
    """
    if n_paths < 1:
        raise ValueError("need at least one path")
    scenario = _new_sirpent(seed, refresh_interval)
    entry = _add_router(scenario, "rA", router_config)
    exit_ = _add_router(scenario, "rB", router_config)
    src = _add_host(scenario, "src")
    dst = _add_host(scenario, "dst")
    scenario.topology.connect(
        src, entry, rate_bps=rate_bps, propagation_delay=propagation_delay
    )
    scenario.topology.connect(
        exit_, dst, rate_bps=rate_bps, propagation_delay=propagation_delay
    )
    for index in range(n_paths):
        middle = _add_router(scenario, f"p{index + 1}", router_config)
        delay = propagation_delay + index * path_delay_step
        scenario.topology.connect(
            entry, middle, rate_bps=rate_bps, propagation_delay=delay,
            name=f"rA--p{index + 1}",
        )
        scenario.topology.connect(
            middle, exit_, rate_bps=rate_bps, propagation_delay=delay,
            name=f"p{index + 1}--rB",
        )
    return scenario


def build_sirpent_dumbbell(
    n_pairs: int = 4,
    edge_rate_bps: float = DEFAULT_RATE,
    bottleneck_rate_bps: float = DEFAULT_RATE,
    propagation_delay: float = DEFAULT_PROP,
    bottleneck_propagation: float = 1e-3,
    router_config: Optional[RouterConfig] = None,
    seed: int = 1,
    access_routers: bool = False,
) -> SirpentScenario:
    """N senders → rL —(bottleneck)— rR → N receivers.

    The canonical congestion topology for the E5 backpressure sweep.
    Senders are ``sender1..N``; receivers ``receiver1..N``.  With
    ``access_routers=True`` each sender sits behind its own router
    (``a1..aN``) so the backpressure signals from ``rL`` have an
    upstream *router* to install flow limits at — the multi-stage
    "builds up back from the point of congestion" picture of §2.2.
    """
    scenario = _new_sirpent(seed)
    left = _add_router(scenario, "rL", router_config)
    right = _add_router(scenario, "rR", router_config)
    scenario.topology.connect(
        left, right, rate_bps=bottleneck_rate_bps,
        propagation_delay=bottleneck_propagation, name="bottleneck",
    )
    for index in range(n_pairs):
        sender = _add_host(scenario, f"sender{index + 1}")
        receiver = _add_host(scenario, f"receiver{index + 1}")
        if access_routers:
            access = _add_router(scenario, f"a{index + 1}", router_config)
            scenario.topology.connect(
                sender, access, rate_bps=edge_rate_bps,
                propagation_delay=propagation_delay,
            )
            scenario.topology.connect(
                access, left, rate_bps=edge_rate_bps,
                propagation_delay=propagation_delay,
            )
        else:
            scenario.topology.connect(
                sender, left, rate_bps=edge_rate_bps,
                propagation_delay=propagation_delay,
            )
        scenario.topology.connect(
            right, receiver, rate_bps=edge_rate_bps,
            propagation_delay=propagation_delay,
        )
    return scenario


def build_sirpent_campus(
    rate_bps: float = DEFAULT_RATE,
    wan_rate_bps: float = DEFAULT_RATE,
    wan_propagation: float = 5e-3,
    router_config: Optional[RouterConfig] = None,
    seed: int = 1,
) -> SirpentScenario:
    """The paper's running example writ small: two campuses.

    Each campus is an Ethernet with two hosts and a router; campus
    routers connect over a WAN point-to-point link.  Hosts register
    under per-campus regions (``*.cs.stanford.edu`` /
    ``*.lcs.mit.edu``), exercising the region-server hierarchy.
    """
    scenario = _new_sirpent(seed)
    sim, topo = scenario.sim, scenario.topology
    campuses = {
        "stanford": ("cs.stanford.edu", ["venus", "gregorio"]),
        "mit": ("lcs.mit.edu", ["milo", "zermatt"]),
    }
    routers = {}
    for campus, (domain, host_names) in campuses.items():
        ether = topo.add_ethernet(f"ether-{campus}", rate_bps=rate_bps)
        router = _add_router(scenario, f"gw-{campus}", router_config)
        topo.attach_to_ethernet(router, ether)
        routers[campus] = router
        for host_name in host_names:
            host = SirpentHost(sim, host_name, control_plane=scenario.control_plane)
            topo.add_node(host)
            scenario.hosts[host_name] = host
            topo.attach_to_ethernet(host, ether)
            scenario.directory.register_host(host_name, f"{host_name}.{domain}")
    topo.connect(
        routers["stanford"], routers["mit"],
        rate_bps=wan_rate_bps, propagation_delay=wan_propagation, name="wan",
    )
    return scenario


def build_sirpent_random(
    n_routers: int = 12,
    n_hosts: int = 8,
    extra_edges: int = 6,
    rate_bps: float = DEFAULT_RATE,
    router_config: Optional[RouterConfig] = None,
    seed: int = 1,
) -> SirpentScenario:
    """A random connected internetwork for stress/determinism tests.

    Routers form a random spanning tree plus ``extra_edges`` chords
    (propagation delays drawn uniformly from 10 µs–2 ms); hosts
    (``h0..hN``) attach to random routers.  Everything derives from the
    scenario's seeded RNG streams, so the same seed rebuilds the same
    internetwork.
    """
    if n_routers < 2 or n_hosts < 2:
        raise ValueError("need at least 2 routers and 2 hosts")
    scenario = _new_sirpent(seed)
    rng = scenario.rngs.stream("topology")
    routers = [
        _add_router(scenario, f"r{i}", router_config) for i in range(n_routers)
    ]
    # Random spanning tree: attach each new router to a previous one.
    for index in range(1, n_routers):
        peer = routers[rng.randrange(index)]
        scenario.topology.connect(
            routers[index], peer, rate_bps=rate_bps,
            propagation_delay=rng.uniform(10e-6, 2e-3),
        )
    # Chords for path diversity.
    added = 0
    attempts = 0
    while added < extra_edges and attempts < extra_edges * 20:
        attempts += 1
        a, b = rng.sample(routers, 2)
        name = f"chord-{a.name}-{b.name}"
        if name in scenario.topology.links:
            continue
        try:
            scenario.topology.connect(
                a, b, rate_bps=rate_bps,
                propagation_delay=rng.uniform(10e-6, 2e-3), name=name,
            )
        except RuntimeError:
            continue  # a router ran out of ports
        added += 1
    for index in range(n_hosts):
        host = _add_host(scenario, f"h{index}")
        scenario.topology.connect(
            host, rng.choice(routers), rate_bps=rate_bps,
            propagation_delay=rng.uniform(5e-6, 50e-6),
        )
    return scenario


# ---------------------------------------------------------------------------
# IP twins
# ---------------------------------------------------------------------------


@dataclass
class IpScenario:
    """An IP-baseline internetwork: hosts, routers, link-state routing."""
    sim: Simulator
    topology: Topology
    control_plane: ControlPlane
    allocator: IpAddressAllocator
    hosts: Dict[str, IpHost] = field(default_factory=dict)
    routers: Dict[str, IpRouter] = field(default_factory=dict)

    def converge(self, settle_time: float = 0.2) -> None:
        """Start routing on every router and let the network converge."""
        router_names = set(self.routers)
        for router in self.routers.values():
            router.routing.discover_neighbors(self.topology, router_names)
        for router in self.routers.values():
            router.routing.start()
        self.sim.run(until=self.sim.now + settle_time)


def build_ip_line(
    n_routers: int = 2,
    rate_bps: float = DEFAULT_RATE,
    propagation_delay: float = DEFAULT_PROP,
    mtu: int = 1500,
    router_config: Optional[IpRouterConfig] = None,
    extra_host_pairs: int = 0,
) -> IpScenario:
    """The IP twin of :func:`build_sirpent_line`."""
    sim = Simulator()
    topology = Topology(sim)
    control_plane = ControlPlane(sim, topology)
    allocator = IpAddressAllocator()
    scenario = IpScenario(sim, topology, control_plane, allocator)

    routers = []
    for index in range(n_routers):
        router = IpRouter(sim, f"r{index + 1}", control_plane, allocator,
                          config=router_config)
        topology.add_node(router)
        scenario.routers[router.name] = router
        routers.append(router)

    def add_host(name: str, gateway: IpRouter) -> IpHost:
        host = IpHost(sim, name, allocator)
        topology.add_node(host)
        scenario.hosts[name] = host
        _link, host_port, _router_port = topology.connect(
            host, gateway, rate_bps=rate_bps,
            propagation_delay=propagation_delay, mtu=mtu,
        )
        host.set_gateway(host_port)
        return host

    add_host("src", routers[0])
    for a, b in zip(routers, routers[1:]):
        topology.connect(a, b, rate_bps=rate_bps,
                         propagation_delay=propagation_delay, mtu=mtu)
    add_host("dst", routers[-1])
    for pair in range(extra_host_pairs):
        add_host(f"src{pair + 2}", routers[0])
        add_host(f"dst{pair + 2}", routers[-1])
    return scenario


def build_ip_parallel(
    n_paths: int = 2,
    rate_bps: float = DEFAULT_RATE,
    propagation_delay: float = DEFAULT_PROP,
    path_delay_step: float = 0.0,
    router_config: Optional[IpRouterConfig] = None,
) -> IpScenario:
    """The IP twin of :func:`build_sirpent_parallel` (for E6)."""
    sim = Simulator()
    topology = Topology(sim)
    control_plane = ControlPlane(sim, topology)
    allocator = IpAddressAllocator()
    scenario = IpScenario(sim, topology, control_plane, allocator)

    def add_router(name: str) -> IpRouter:
        router = IpRouter(sim, name, control_plane, allocator, config=router_config)
        topology.add_node(router)
        scenario.routers[name] = router
        return router

    entry, exit_ = add_router("rA"), add_router("rB")
    for index in range(n_paths):
        middle = add_router(f"p{index + 1}")
        delay = propagation_delay + index * path_delay_step
        cost = 1.0 + index  # make path order deterministic for SPF
        topology.connect(entry, middle, rate_bps=rate_bps,
                         propagation_delay=delay, cost=cost,
                         name=f"rA--p{index + 1}")
        topology.connect(middle, exit_, rate_bps=rate_bps,
                         propagation_delay=delay, cost=cost,
                         name=f"p{index + 1}--rB")

    for name, gateway in (("src", entry), ("dst", exit_)):
        host = IpHost(sim, name, allocator)
        topology.add_node(host)
        scenario.hosts[name] = host
        _link, host_port, _rp = topology.connect(
            host, gateway, rate_bps=rate_bps,
            propagation_delay=propagation_delay,
        )
        host.set_gateway(host_port)
    return scenario


# ---------------------------------------------------------------------------
# CVC twin
# ---------------------------------------------------------------------------


@dataclass
class CvcScenario:
    """A circuit-switched internetwork: hosts and label-swap switches."""
    sim: Simulator
    topology: Topology
    hosts: Dict[str, CvcHost] = field(default_factory=dict)
    switches: Dict[str, CvcSwitch] = field(default_factory=dict)

    def install_routes(self) -> None:
        for switch in self.switches.values():
            switch.install_routes(self.topology)


def build_cvc_line(
    n_switches: int = 2,
    rate_bps: float = DEFAULT_RATE,
    propagation_delay: float = DEFAULT_PROP,
    extra_host_pairs: int = 0,
) -> CvcScenario:
    """The CVC twin of :func:`build_sirpent_line`."""
    sim = Simulator()
    topology = Topology(sim)
    scenario = CvcScenario(sim, topology)
    switches = []
    for index in range(n_switches):
        switch = CvcSwitch(sim, f"s{index + 1}")
        topology.add_node(switch)
        scenario.switches[switch.name] = switch
        switches.append(switch)

    def add_host(name: str, gateway: CvcSwitch) -> CvcHost:
        host = CvcHost(sim, name)
        topology.add_node(host)
        scenario.hosts[name] = host
        _link, host_port, _sp = topology.connect(
            host, gateway, rate_bps=rate_bps,
            propagation_delay=propagation_delay,
        )
        host.set_gateway(host_port)
        return host

    add_host("src", switches[0])
    for a, b in zip(switches, switches[1:]):
        topology.connect(a, b, rate_bps=rate_bps,
                         propagation_delay=propagation_delay)
    add_host("dst", switches[-1])
    for pair in range(extra_host_pairs):
        add_host(f"src{pair + 2}", switches[0])
        add_host(f"dst{pair + 2}", switches[-1])
    scenario.install_routes()
    return scenario
