"""Sirpent across an existing IP internetwork as one logical hop (§2.3).

"The Sirpent approach can be viewed and implemented as an extended form
of IP as follows.  An IP protocol number is assigned to the Sirpent
protocol.  A Sirpent packet can view the Internet as providing one
logical hop across its internetwork … the packet is source routed to an
IP host or gateway so that the header is now an IP header.  The
host/gateway uses standard IP to route the packet to the specified
destination host.  At this point, the packet is demultiplexed to the
Sirpent protocol module which interprets the remainder of the packet
header as a source route on from that point."

:class:`IpTunnelAttachment` is that gateway port: transmitting a
Sirpent packet out of it encapsulates the packet in an IP datagram
(protocol :data:`PROTO_SIRPENT_IN_IP`) addressed to the peer gateway;
the peer's IP host demultiplexes it back into the Sirpent module, which
continues the source route.  The IP internetwork's own store-and-
forward costs, fragmentation and routing all apply to the transit —
nothing is idealized away.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.net.addresses import MacAddress
from repro.net.link import Transmission
from repro.net.node import Attachment, Node
from repro.core.packet import FramePacket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    # Imported lazily: repro.baselines.ip.host itself imports
    # repro.core.queues, so a module-level import here closes a cycle
    # (core.__init__ -> tunnel -> ip.host -> core.queues) that breaks
    # `import repro.baselines.ip` when it happens first.
    from repro.baselines.ip.host import IpHost
    from repro.baselines.ip.packet import IpPacket

#: IP protocol number carrying encapsulated Sirpent packets (an
#: unassigned value in 1989; 94 is used by other encapsulations today —
#: any consistent number works inside the simulation).
PROTO_SIRPENT_IN_IP = 94


class IpTunnelAttachment(Attachment):
    """A Sirpent router port realized by an IP path to a peer gateway.

    The co-located :class:`IpHost` provides the IP side; the owning
    Sirpent node sees an ordinary (if store-and-forward) port.  The
    ``rate_bps`` deliberately reports 0.0 so the router's equal-rate
    cut-through check fails and the gateway handles tunnel-bound packets
    from the completion event — encapsulation needs the whole packet.
    """

    kind = "tunnel"

    def __init__(
        self,
        node: Node,
        port_id: int,
        ip_host: IpHost,
        peer_gateway: str,
        mtu: int = 1400,
    ) -> None:
        super().__init__(node, port_id)
        self.ip_host = ip_host
        self.peer_gateway = peer_gateway
        self._mtu = mtu
        self.encapsulated = 0
        self.decapsulated = 0
        ip_host.bind_protocol(PROTO_SIRPENT_IN_IP, self._on_ip_delivery)

    # -- transmit side -----------------------------------------------------

    @property
    def busy(self) -> bool:
        return False  # the IP stack queues for itself

    @property
    def rate_bps(self) -> float:
        return 0.0

    @property
    def mtu(self) -> int:
        return self._mtu

    @property
    def up(self) -> bool:
        return True

    def send(
        self,
        packet: Any,
        size: int,
        header_bytes: int,
        dst_mac: Optional[MacAddress] = None,
        priority: int = 0,
        on_done: Optional[Callable[[], None]] = None,
        on_abort: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.encapsulated += 1
        self.ip_host.send(
            self.peer_gateway, packet, size, protocol=PROTO_SIRPENT_IN_IP,
        )
        if on_done is not None:
            # The port is immediately reusable; IP owns the pacing.
            self.ip_host.sim.after(0.0, on_done)

    def abort_current(self) -> None:
        pass  # nothing in flight at this layer

    def current_priority(self) -> Optional[int]:
        return None

    def current_packet(self) -> Optional[Any]:
        return None

    def peer_name_for(self, dst_mac: Optional[MacAddress]) -> str:
        return self.peer_gateway

    # -- receive side --------------------------------------------------------

    def _on_ip_delivery(self, ip_packet: IpPacket) -> None:
        """Demultiplex an arriving datagram back to the Sirpent module."""
        inner = ip_packet.payload
        if not isinstance(inner, FramePacket):
            return
        self.decapsulated += 1
        tx = Transmission(inner, ip_packet.payload_size, 0, None, None)
        self.node.on_packet(inner, self, tx)


def attach_tunnel(
    sirpent_node: Node,
    ip_host: IpHost,
    peer_gateway: str,
    mtu: int = 1400,
) -> IpTunnelAttachment:
    """Wire a tunnel port onto a Sirpent router.

    ``ip_host`` must already be attached to the IP internetwork with a
    gateway configured; ``peer_gateway`` is the far IP host's node name
    (which must carry the peer's tunnel attachment).
    """
    port_id = sirpent_node.free_port_id()
    attachment = IpTunnelAttachment(
        sirpent_node, port_id, ip_host, peer_gateway, mtu=mtu,
    )
    sirpent_node.attach(port_id, attachment)
    return attachment


class CvcTunnelAttachment(Attachment):
    """A Sirpent logical hop across an X.25/X.75-style circuit network.

    §2.3: "An analogous approach can be used to exploit existing
    X.25/X.75 (inter)networks, except for the additional problem of
    managing the virtual circuits."  This attachment *is* that circuit
    manager: the first packet toward the peer gateway triggers a SETUP;
    packets sent while the circuit is pending are held and flushed on
    CONFIRM; an idle timer releases the circuit (returning the switch
    state), and the next packet re-establishes it.
    """

    kind = "cvc-tunnel"

    def __init__(
        self,
        node: Node,
        port_id: int,
        cvc_host: Any,   # CvcHost (duck-typed to avoid an import cycle)
        peer_gateway: str,
        mtu: int = 1400,
        idle_timeout: float = 0.5,
    ) -> None:
        super().__init__(node, port_id)
        self.cvc_host = cvc_host
        self.peer_gateway = peer_gateway
        self._mtu = mtu
        self.idle_timeout = idle_timeout
        self._circuit = None
        self._pending: list = []
        self._idle_event = None
        self.encapsulated = 0
        self.decapsulated = 0
        self.setups = 0
        cvc_host.on_data(self._on_circuit_data)

    # -- transmit side -----------------------------------------------------

    @property
    def busy(self) -> bool:
        return False

    @property
    def rate_bps(self) -> float:
        return 0.0

    @property
    def mtu(self) -> int:
        return self._mtu

    @property
    def up(self) -> bool:
        return True

    def send(
        self,
        packet: Any,
        size: int,
        header_bytes: int,
        dst_mac: Optional[MacAddress] = None,
        priority: int = 0,
        on_done: Optional[Callable[[], None]] = None,
        on_abort: Optional[Callable[[Any], None]] = None,
    ) -> None:
        self.encapsulated += 1
        self._touch_idle_timer()
        from repro.baselines.cvc.circuit import CircuitState

        if self._circuit is not None and self._circuit.state is CircuitState.OPEN:
            self.cvc_host.send(self._circuit, packet, size)
        else:
            self._pending.append((packet, size))
            if self._circuit is None:
                self.setups += 1
                self._circuit = self.cvc_host.open_circuit(
                    self.peer_gateway, self._on_circuit_ready,
                )
        if on_done is not None:
            self.cvc_host.sim.after(0.0, on_done)

    def _on_circuit_ready(self, circuit: Any) -> None:
        from repro.baselines.cvc.circuit import CircuitState

        if circuit.state is not CircuitState.OPEN:
            self._circuit = None
            self._pending.clear()  # setup failed: packets are lost
            return
        self._circuit = circuit
        pending, self._pending = self._pending, []
        for packet, size in pending:
            self.cvc_host.send(circuit, packet, size)

    def _touch_idle_timer(self) -> None:
        sim = self.cvc_host.sim
        if self._idle_event is not None:
            self._idle_event.cancel()
        self._idle_event = sim.after(self.idle_timeout, self._idle_release)

    def _idle_release(self) -> None:
        """The circuit-management cost §2.3 warns about: idle teardown."""
        if self._circuit is not None:
            self.cvc_host.close_circuit(self._circuit)
            self._circuit = None

    def abort_current(self) -> None:
        pass

    def current_priority(self) -> Optional[int]:
        return None

    def current_packet(self) -> Optional[Any]:
        return None

    def peer_name_for(self, dst_mac: Optional[MacAddress]) -> str:
        return self.peer_gateway

    # -- receive side ---------------------------------------------------------

    def _on_circuit_data(self, circuit: Any, payload: Any, size: int) -> None:
        if not isinstance(payload, FramePacket):
            return
        self.decapsulated += 1
        tx = Transmission(payload, size, 0, None, None)
        self.node.on_packet(payload, self, tx)


def attach_cvc_tunnel(
    sirpent_node: Node,
    cvc_host: Any,
    peer_gateway: str,
    mtu: int = 1400,
    idle_timeout: float = 0.5,
) -> CvcTunnelAttachment:
    """Wire a circuit-network logical hop onto a Sirpent router."""
    port_id = sirpent_node.free_port_id()
    attachment = CvcTunnelAttachment(
        sirpent_node, port_id, cvc_host, peer_gateway,
        mtu=mtu, idle_timeout=idle_timeout,
    )
    sirpent_node.attach(port_id, attachment)
    return attachment
