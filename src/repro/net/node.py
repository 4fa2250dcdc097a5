"""Nodes and their network attachments.

A :class:`Node` is anything with numbered ports: a Sirpent router, a
host, an IP router, a CVC switch.  Port numbering follows VIPER (§5):
port 0 means "local", data ports are 1..255.  Each port is bound to an
:class:`Attachment` — either one direction-pair of a point-to-point link
or a tap on a shared Ethernet segment.

The attachment is the receive demultiplexing point: a medium calls
the receiving node's ``on_header`` / ``on_packet`` / ``on_abort`` hooks
itself, with the attachment identifying the input port.  Only a node
class that defines ``on_header`` is sent header events.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, TYPE_CHECKING

from repro.net.addresses import MacAddress
from repro.net.link import Channel
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.net.ethernet import EthernetSegment

#: VIPER reserves port 0 for local delivery (§5).
LOCAL_PORT = 0

#: Largest usable port number per switch; larger fan-out is structured
#: hierarchically per the paper.
MAX_PORT = 255


class Node:
    """Base class for every network element.

    Subclasses define ``on_packet(packet, inport, tx)``, called when
    the full packet has arrived, and may define ``on_header(packet,
    inport, tx)``, called when its switching prefix has (a class without
    one is store-and-forward: the media schedule it no header event).
    An inbound transmission preempted upstream calls :meth:`on_abort`.
    """

    def __init__(self, sim: Simulator, name: str) -> None:
        self.sim = sim
        self.name = name
        self.ports: Dict[int, "Attachment"] = {}

    def attach(self, port_id: int, attachment: "Attachment") -> None:
        if not 0 < port_id <= MAX_PORT:
            raise ValueError(
                f"port {port_id} invalid: VIPER ports are 1..{MAX_PORT} (0 = local)"
            )
        if port_id in self.ports:
            raise ValueError(f"{self.name}: port {port_id} already attached")
        self.ports[port_id] = attachment

    def free_port_id(self) -> int:
        """Lowest unused port number (topology builders use this)."""
        for candidate in range(1, MAX_PORT + 1):
            if candidate not in self.ports:
                return candidate
        raise RuntimeError(f"{self.name}: all {MAX_PORT} ports in use")

    # -- receive hooks -----------------------------------------------------

    def on_abort(self, packet: Any, inport: "Attachment") -> None:
        """Called when an inbound transmission was preempted upstream."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r} ports={sorted(self.ports)}>"


class Attachment:
    """Abstract binding of a node port to a transmission medium."""

    kind = "abstract"

    def __init__(self, node: Node, port_id: int) -> None:
        self.node = node
        self.port_id = port_id
        #: Whether the node acts on a header's arrival at all: a medium
        #: schedules no header event for a node that does not.
        self.hears_headers = getattr(type(node), "on_header", None) is not None

    # -- transmit side -------------------------------------------------
    #
    # Every medium's attachment provides: ``rate_bps`` (bits per
    # second), the properties ``busy``, ``mtu`` and ``up``, and
    # ``send(packet, size, header_bytes, dst_mac=None, priority=0,
    # on_done=None, on_abort=None)``, ``abort_current()``,
    # ``current_priority()`` / ``current_packet()`` (None when idle) and
    # ``peer_name_for(dst_mac)``.

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.node.name}:{self.port_id}>"


class P2PAttachment(Attachment):
    """A port wired to one direction-pair of a point-to-point link."""

    kind = "p2p"

    def __init__(
        self,
        node: Node,
        port_id: int,
        tx_channel: Channel,
        peer_name: str = "",
    ) -> None:
        super().__init__(node, port_id)
        self.tx_channel = tx_channel
        self.peer_name = peer_name
        #: Fixed when the channel is built, so read once, here.
        self.rate_bps = tx_channel.rate_bps

    @property
    def busy(self) -> bool:
        return self.tx_channel.current is not None

    @property
    def mtu(self) -> int:
        return self.tx_channel.mtu

    @property
    def up(self) -> bool:
        return self.tx_channel.up

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
        # dst_mac is meaningless on a point-to-point wire and is ignored,
        # matching the paper: "if this port is connected to a
        # point-to-point link, the next router is the node at the other
        # end of the link".
        self.tx_channel.transmit(
            packet, size, header_bytes,
            priority=priority, on_done=on_done, on_abort=on_abort,
        )

    def abort_current(self) -> None:
        self.tx_channel.abort()

    def current_priority(self) -> Optional[int]:
        current = self.tx_channel.current
        return current.priority if current is not None else None

    def current_packet(self) -> Optional[Any]:
        current = self.tx_channel.current
        return current.packet if current is not None else None

    def peer_name_for(self, dst_mac: Optional[MacAddress]) -> str:
        return self.peer_name


class EthernetAttachment(Attachment):
    """A tap on a shared Ethernet segment, with its own MAC address."""

    kind = "ethernet"

    def __init__(
        self,
        node: Node,
        port_id: int,
        segment: "EthernetSegment",
        mac: MacAddress,
    ) -> None:
        super().__init__(node, port_id)
        self.segment = segment
        self.mac = mac

    @property
    def busy(self) -> bool:
        return self.segment.busy

    @property
    def rate_bps(self) -> float:
        return self.segment.rate_bps

    @property
    def mtu(self) -> int:
        return self.segment.mtu

    @property
    def up(self) -> bool:
        return self.segment.up

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
        if dst_mac is None:
            raise ValueError(
                "sending on an Ethernet requires a destination MAC "
                "(the VIPER portInfo field carries it)"
            )
        self.segment.transmit(
            self, dst_mac, packet, size, header_bytes,
            priority=priority, on_done=on_done, on_abort=on_abort,
        )

    def abort_current(self) -> None:
        self.segment.abort_current(self)

    def current_priority(self) -> Optional[int]:
        return self.segment.current_priority(self)

    def current_packet(self) -> Optional[Any]:
        return self.segment.current_packet_of(self)

    def peer_name_for(self, dst_mac: Optional[MacAddress]) -> str:
        if dst_mac is None:
            return ""
        return self.segment.station_node_name(dst_mac) or ""
