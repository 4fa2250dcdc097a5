"""The store-and-forward IP router.

Charges every cost §1 of the Sirpent paper attributes to the datagram
approach: full reception before forwarding (enforced by acting only on
the ``on_packet`` event), a per-packet processing delay covering route
lookup, TTL decrement and checksum update, fragmentation when the next
hop's MTU is exceeded, and drops for TTL expiry or checksum failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from repro.baselines.ip.fragment import fragment_packet
from repro.baselines.ip.ipaddr import IpAddressAllocator
from repro.baselines.ip.packet import IpPacket
from repro.baselines.ip.routing import LinkStateRouting
from repro.core.queues import OutputPort
from repro.core.blocked import BlockedPolicy
from repro.core.congestion import ControlPlane
from repro.net.link import Transmission
from repro.net.node import Attachment, Node
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram

#: Per-packet software cost: route lookup + TTL + checksum update.
PROCESS_DELAY = 50e-6
#: Each output port's buffer.
BUFFER_BYTES = 64 * 1024


@dataclass
class IpRouterConfig:
    """The link-state routing's hello interval."""

    hello_interval: float = 10e-3


@dataclass
class IpRouterStats:
    """Per-router counters and delay samples for the IP baseline."""
    forwarded: Counter = field(default_factory=lambda: Counter("forwarded"))
    delivered_local: Counter = field(default_factory=lambda: Counter("local"))
    dropped_ttl: Counter = field(default_factory=lambda: Counter("ttl"))
    dropped_checksum: Counter = field(default_factory=lambda: Counter("checksum"))
    dropped_no_route: Counter = field(default_factory=lambda: Counter("no_route"))
    dropped_df: Counter = field(default_factory=lambda: Counter("df_drop"))
    fragments_made: Counter = field(default_factory=lambda: Counter("fragments"))
    router_delay: Histogram = field(default_factory=lambda: Histogram("router_delay"))


class IpRouter(Node):
    """A conventional datagram router over the shared substrate."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        control_plane: ControlPlane,
        allocator: IpAddressAllocator,
        config: Optional[IpRouterConfig] = None,
    ) -> None:
        super().__init__(sim, name)
        self.config = config if config is not None else IpRouterConfig()
        self.allocator = allocator
        self.address = allocator.allocate(name)
        self.stats = IpRouterStats()
        self.output_ports: Dict[int, OutputPort] = {}
        self.routing = LinkStateRouting(
            sim, name, control_plane, allocator,
            hello_interval=self.config.hello_interval,
        )
        control_plane.register(name, self._on_control_message)
        self.local_handler: Optional[Callable[[IpPacket, Attachment], None]] = None

    def _on_control_message(self, src: str, message: Any) -> None:
        self.routing.on_message(src, message)

    def attach(self, port_id: int, attachment: Attachment) -> None:
        super().attach(port_id, attachment)
        self.output_ports[port_id] = OutputPort(
            self.sim, attachment,
            buffer_bytes=BUFFER_BYTES,
            blocked_policy=BlockedPolicy.QUEUE,
        )

    # -- receive: store-and-forward only ------------------------------------

    def on_packet(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, IpPacket):
            return
        arrival = self.sim.now
        self.sim.after(PROCESS_DELAY, self._process, packet, arrival)

    def _process(self, packet: IpPacket, arrival: float) -> None:
        packet.hop_log.append(self.name)
        packet.hops_taken += 1
        header = packet.header
        if not header.checksum_ok():
            self.stats.dropped_checksum.add()
            return
        if header.dst == self.address:
            self.stats.delivered_local.add()
            if self.local_handler is not None:
                self.local_handler(packet, None)  # type: ignore[arg-type]
            return
        if header.ttl <= 1:
            self.stats.dropped_ttl.add()
            return
        packet.header = header.decrement_ttl()
        try:
            dst_node = self.allocator.name_of(header.dst)
        except KeyError:
            self.stats.dropped_no_route.add()
            return
        hop = self.routing.next_hop(dst_node)
        if hop is None:
            self.stats.dropped_no_route.add()
            return
        port_id, dst_mac = hop
        attachment = self.ports.get(port_id)
        if attachment is None:
            self.stats.dropped_no_route.add()
            return
        outport = self.output_ports[port_id]
        if packet.wire_size() > attachment.mtu:
            if packet.header.dont_fragment:
                self.stats.dropped_df.add()
                return
            fragments = fragment_packet(
                packet, attachment.mtu, new_id=self.sim.new_packet_id,
            )
            self.stats.fragments_made.add(len(fragments))
        else:
            fragments = [packet]
        self.stats.router_delay.add(self.sim.now - arrival)
        for fragment in fragments:
            self.stats.forwarded.add()
            outport.submit(
                fragment,
                fragment.wire_size(),
                fragment.wire_size(),  # receiver must take the whole packet
                dst_mac=dst_mac,
                priority=0,
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<IpRouter {self.name!r} ports={sorted(self.ports)}>"
