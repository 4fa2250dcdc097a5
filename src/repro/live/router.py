"""A Sirpent router as a live asyncio UDP daemon — the overlay's adapter.

:class:`LiveRouter` receives VIPER frames on a real socket as batches of
ring-slot views and hands each to the **same** sans-IO
:class:`repro.dataplane.router.RouterCore` as the simulator's
:class:`~repro.core.router.SirpentRouter`: it finds the *leading*
header segment in place, decides (token-cache admission, the §2.2 flow
cache, strip/reverse/append planning) and moves the frame inside its
slot (:func:`~repro.live.frames.forward_into`).  The adapter sends it
out the named port, which in the overlay is a UDP peer address; port 0
delivers locally, exactly as §5 reserves it.

A frame crosses the router one way only: ``_on_batch`` →
:meth:`~repro.dataplane.router.RouterCore.step` →
:meth:`~repro.live.link.LiveEndpoint.send_view`.  The frame never leaves
its slot and there is no materialising twin; its segment is parsed only
when the §2.2 flow cache does not answer for its bytes.  What is the
live router's own is sockets, batching, the link's probe ladder (a
dead peer is the core's port-down input, any frame from it port-up) and
the ``restart`` rebind.

Sim↔live decision parity is *structural*: both routers are adapters
over one core, so the parity tests assert plumbing, not a duplicated
algorithm.

Unsupported in the live overlay: multicast fan-out/tree ports and
logical-port splicing — the core is built with ``multicast=False`` and
an empty logical map, so frames naming them are dropped and counted,
never crash the daemon.  Undecodable datagrams are likewise
dropped-and-counted (the decoder totality the fuzz suite enforces is
what makes this safe).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.dataplane import Action, Decision, PortMap, PortProfile, UNKNOWN_IN_PORT
from repro.dataplane.router import FrameHop, RouterCore, core_attribute
from repro.live.frames import PREAMBLE_BYTES, TRACE_ID_BYTES
from repro.live.link import (
    Address,
    BatchEntry,
    Impairments,
    LiveEndpoint,
    LivenessConfig,
)
from repro.live.metrics import EndpointMetrics
from repro.tokens.cache import CachePolicy
from repro.viper.errors import ViperDecodeError
from repro.viper.portinfo import ETHERNET_INFO_BYTES, EthernetInfo

__all__ = [
    "Action",
    "Decision",
    "LiveRouter",
    "LiveRouterConfig",
]


@dataclass
class LiveRouterConfig:
    """Tunables of one live router daemon."""

    token_policy: CachePolicy = CachePolicy.OPTIMISTIC
    require_tokens: bool = False


# Every live port has one profile.  UDP hops carry no Ethernet portInfo
# and never truncate (the datagram either fits the socket or was
# refused at encode time), hence mtu=0 (unlimited).  Link health is the
# core's port-down input: the probe ladder's peer death marks a port
# down, any inbound frame marks it back up — the signal the pipeline's
# slick reroute stage keys on.
_UDP_PORT = PortProfile(kind="udp", mtu=0)

#: A traced frame's preamble length: the fixed fields and the trace id.
_TRACED_HEADER = PREAMBLE_BYTES + TRACE_ID_BYTES


def _reverse_leading_portinfo(hop: FrameHop) -> bytes:
    """The live overlay's link rule: an Ethernet-shaped portInfo on the
    leading segment is reversed (src/dst swap), a point-to-point/UDP
    hop's is empty.  The segment leads with its portInfo length, so the
    common answer needs no parse."""
    if hop.lead[0] != ETHERNET_INFO_BYTES:
        return b""
    try:
        return EthernetInfo.from_bytes(hop.segment.portinfo).reversed().to_bytes()
    except ViperDecodeError:  # pragma: no cover - length-checked
        return b""


class LiveRouter:
    """One Sirpent switching node running over a real UDP socket: the
    live adapter over the :class:`~repro.dataplane.router.RouterCore`."""

    pipeline = core_attribute("pipeline")
    token_cache = core_attribute("token_cache")
    flow_cache = core_attribute("flow_cache")
    mint = core_attribute("mint")
    tracer = core_attribute("sink.tracer")
    recorder = core_attribute("sink.recorder")
    #: Link health (§2.2 soft state): ports whose peer stopped answering
    #: probes (``on_peer_dead``) and has not been heard from since.
    dead_ports = core_attribute("ports.down")

    def __init__(
        self,
        name: str,
        config: Optional[LiveRouterConfig] = None,
        mint_secret: Optional[bytes] = None,
        impairments: Optional[Impairments] = None,
        liveness: Optional[LivenessConfig] = None,
    ) -> None:
        self.name = name
        self.config = config if config is not None else LiveRouterConfig()
        self.metrics = EndpointMetrics(name)
        self.core = RouterCore(
            name,
            mint_secret,
            token_policy=self.config.token_policy,
            require_tokens=self.config.require_tokens,
            # Verification costs the live router real time; there is
            # no simulated delay to charge for it.
            verify_cost=0.0,
            multicast=False,
            ports=PortMap({}),
            link_rule=_reverse_leading_portinfo,
            counters=self.metrics,
        )
        self.endpoint = LiveEndpoint(
            name, metrics=self.metrics,
            impairments=impairments, liveness=liveness,
        )
        # Whole batches of ring-slot views per loop wakeup.
        self.endpoint.on_batch = self._on_batch
        #: VIPER port id -> peer UDP address.
        self.ports: Dict[int, Address] = {}
        #: Peer UDP address -> the VIPER port frames from it arrive on.
        self.addr_port: Dict[Address, int] = {}
        #: Optional observer called after the router marks a port dead.
        self.on_link_down: Optional[Callable[[int], None]] = None
        self.endpoint.on_peer_dead = self._on_peer_dead
        #: Optional hook receiving ``(datagram, source)`` for port-0 frames.
        self.local_handler = None
        self._started_at = time.monotonic()

    # -- wiring ------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the router's socket; returns its address."""
        return await self.endpoint.open(host, port)

    def stop(self) -> None:
        """Shut the router down (its peers will see a dead hop)."""
        self.endpoint.close()

    async def restart(self, host: str = "127.0.0.1") -> Address:
        """Crash recovery: rebind the socket, **re-derive** soft state.

        §2.2's claim is that a Sirpent router keeps *only* soft state —
        so recovery is: keep the configuration (port wiring, mint
        secret, policy), throw away every cache
        (:meth:`~repro.dataplane.router.RouterCore.forget`), and come
        back up.  The endpoint re-opens on the **same UDP port** so
        peers' wiring stays valid; its own soft state (the probe ladder)
        went with :meth:`~repro.live.link.LiveEndpoint.close`.
        """
        port = self.address[1] if self.address is not None else 0
        self.core.forget()
        self._started_at = time.monotonic()
        address = await self.endpoint.open(host, port)
        self.core.sink.record(
            "router_restarted", port=address[1] if address else 0,
        )
        return address

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this router."""
        self.core.sink.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install a :class:`repro.obs.recorder.FlightRecorder`."""
        self.core.sink.recorder = recorder

    def connect_port(self, port_id: int, peer: Address) -> None:
        """Map VIPER ``port_id`` to the UDP address of the next node."""
        if not 0 < port_id <= 255:
            raise ValueError(f"port {port_id} invalid: VIPER ports are 1..255")
        self.ports[port_id] = peer
        self.addr_port[peer] = port_id
        self.core.ports.profiles[port_id] = _UDP_PORT
        self.core.ports.down.discard(port_id)
        # Topology changed: cached flows naming this port are stale.
        self.pipeline.on_topology_change(port_id)

    def _on_peer_dead(self, addr: Address) -> None:
        """The probe ladder's link-health signal from the endpoint
        (§2.2): the peer's port goes down in the core."""
        port_id = self.addr_port.get(addr)
        if port_id is None or port_id in self.dead_ports:
            return
        self.core.port_down(port_id)
        if self.on_link_down is not None:
            self.on_link_down(port_id)

    @property
    def address(self) -> Optional[Address]:
        """The router's bound UDP address (None before :meth:`start`)."""
        return self.endpoint.address

    # -- one batch through the core ----------------------------------------

    def _on_batch(self, batch: List[BatchEntry]) -> None:  # sirlint: hot
        """Forward one endpoint wakeup's worth of frames, in place.

        Each frame arrives as a :class:`~repro.viper.wire.PacketView`
        over a ring slot this router now owns, with the preamble the
        endpoint decoded from it; every path below either releases the
        slot or hands it to
        :meth:`~repro.live.link.LiveEndpoint.send_view` (which then owns
        it) — exactly once.  The flow-cache clock is read once per
        batch: a wakeup's frames arrived together.

        The core finds, decides and moves each frame inside its slot
        (:meth:`~repro.dataplane.router.RouterCore.step`); a frame that
        is to leave is sent from there, so the frame never leaves its
        slot and there is no materialising twin.
        """
        core = self.core
        core.hop.now_ms = self._now_ms()
        addr_port = self.addr_port
        for view, source, (_kind, _segs, payload_len, trace_id) in batch:
            decision = core.step(
                # The preamble's ``header_len``, without the call.
                view, _TRACED_HEADER if trace_id else PREAMBLE_BYTES,
                trace_id, addr_port.get(source, UNKNOWN_IN_PORT), payload_len,
            )
            if decision is None:
                view.release()
            elif decision.action is Action.FORWARD:
                self.metrics.forwarded += 1
                self.endpoint.send_view(view, self.ports[decision.out_port])
            else:
                # Port 0 (§5): local delivery leaves the overlay, so the
                # frame is materialised here.
                core.sink.trace_event("deliver_local")
                if self.local_handler is not None:
                    datagram = view.tobytes()
                    view.release()
                    self.local_handler(datagram, source)
                else:
                    view.release()

    def _now_ms(self) -> int:
        return int((time.monotonic() - self._started_at) * 1000)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveRouter {self.name!r} ports={sorted(self.ports)}>"
