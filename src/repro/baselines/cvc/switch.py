"""The virtual-circuit switch.

Setup is expensive (per-hop signalling processing and table/bandwidth
admission), data is cheap-ish (label swap) but still store-and-forward
— the X.25/X.75 generation the paper positions CVC against Sirpent
with.  Switch state grows with *held circuits*, which is the §1 cost
"significant amount of state in the gateways"; experiment E8/E11 read
``len(switch.vc_map)`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional, Tuple

from repro.baselines.cvc.circuit import CvcKind, CvcPacket
from repro.core.blocked import BlockedPolicy
from repro.core.queues import OutputPort
from repro.directory.pathfind import PathObjective, dijkstra
from repro.net.addresses import MacAddress
from repro.net.link import Transmission
from repro.net.node import Attachment, Node
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter

#: Per-hop processing of a SETUP/CONFIRM/RELEASE frame — admission,
#: table update, signalling parse.
SETUP_PROCESS_DELAY = 500e-6
#: Per-hop processing of a DATA frame: label-swap lookup.
DATA_PROCESS_DELAY = 20e-6
#: Circuit table capacity.
MAX_CIRCUITS = 1024
#: Fraction of a port's rate that may be reserved.
RESERVABLE_FRACTION = 0.9
#: Each output port's buffer.
BUFFER_BYTES = 64 * 1024


def compute_static_routes(
    topology: Topology, node_name: str
) -> Dict[str, Tuple[int, Optional[MacAddress]]]:
    """Next-hop table for ``node_name`` to every other node.

    Circuit routing is not what the paper evaluates, so switches get
    consistent shortest-path tables computed offline.
    """
    table: Dict[str, Tuple[int, Optional[MacAddress]]] = {}
    edges = topology.edges()
    for destination in topology.nodes:
        if destination == node_name:
            continue
        path = dijkstra(edges, node_name, destination, PathObjective.LOW_DELAY)
        if path:
            table[destination] = (path[0].port_id, path[0].dst_mac)
    return table


@dataclass
class _VcEntry:
    out_port: int
    out_vci: int
    out_mac: Optional[MacAddress]
    reserved_bps: float


class CvcSwitch(Node):
    """A label-swapping circuit switch."""

    def __init__(self, sim: Simulator, name: str) -> None:
        super().__init__(sim, name)
        #: (in_port, in_vci) -> entry; both directions are installed.
        self.vc_map: Dict[Tuple[int, int], _VcEntry] = {}
        self.reserved_per_port: Dict[int, float] = {}
        self.output_ports: Dict[int, OutputPort] = {}
        self.static_routes: Dict[str, Tuple[int, Optional[MacAddress]]] = {}
        self._next_vci: Dict[int, int] = {}
        self.circuits_admitted = Counter(f"{name}.admitted")
        self.circuits_refused = Counter(f"{name}.refused")
        self.data_forwarded = Counter(f"{name}.data")
        self.peak_circuits = 0

    def attach(self, port_id: int, attachment: Attachment) -> None:
        super().attach(port_id, attachment)
        self.output_ports[port_id] = OutputPort(
            self.sim, attachment,
            buffer_bytes=BUFFER_BYTES,
            blocked_policy=BlockedPolicy.QUEUE,
        )

    def install_routes(self, topology: Topology) -> None:
        self.static_routes = compute_static_routes(topology, self.name)

    # -- receive --------------------------------------------------------------

    def on_packet(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, CvcPacket):
            return
        delay = (
            DATA_PROCESS_DELAY if packet.kind is CvcKind.DATA
            else SETUP_PROCESS_DELAY
        )
        self.sim.after(delay, self._process, packet, inport)

    def _process(self, packet: CvcPacket, inport: Attachment) -> None:
        packet.hop_log.append(self.name)
        if packet.kind is CvcKind.SETUP:
            self._on_setup(packet, inport)
        elif packet.kind is CvcKind.DATA:
            self._on_switched(packet, inport, self.data_forwarded)
        else:  # CONFIRM / RELEASE follow the established mapping
            if packet.kind is CvcKind.RELEASE:
                self._on_release(packet, inport)
            else:
                self._on_switched(packet, inport, None)

    # -- setup ------------------------------------------------------------------

    def _allocate_vci(self, port_id: int) -> int:
        vci = self._next_vci.get(port_id, 1)
        self._next_vci[port_id] = vci + 1
        return vci

    def _refuse(self, packet: CvcPacket, inport: Attachment, reason: str) -> None:
        self.circuits_refused.add()
        refusal = CvcPacket(
            kind=CvcKind.RELEASE,
            vci=packet.vci,
            refusal_reason=reason,
            packet_id=self.sim.new_packet_id(),
            created_at=self.sim.now,
            source=self.name,
        )
        self._emit(refusal, inport.port_id, None)

    def _on_setup(self, packet: CvcPacket, inport: Attachment) -> None:
        if len(self.vc_map) // 2 >= MAX_CIRCUITS:
            self._refuse(packet, inport, "circuit table full")
            return
        hop = self.static_routes.get(packet.dst_node)
        if hop is None:
            self._refuse(packet, inport, "no route")
            return
        out_port, out_mac = hop
        out_attachment = self.ports.get(out_port)
        if out_attachment is None or not out_attachment.up:
            self._refuse(packet, inport, "link down")
            return
        reservable = out_attachment.rate_bps * RESERVABLE_FRACTION
        reserved = self.reserved_per_port.get(out_port, 0.0)
        if packet.requested_bps > 0 and reserved + packet.requested_bps > reservable:
            self._refuse(packet, inport, "bandwidth unavailable")
            return
        self.reserved_per_port[out_port] = reserved + packet.requested_bps
        out_vci = self._allocate_vci(out_port)
        self.vc_map[(inport.port_id, packet.vci)] = _VcEntry(
            out_port, out_vci, out_mac, packet.requested_bps
        )
        self.vc_map[(out_port, out_vci)] = _VcEntry(
            inport.port_id, packet.vci, self._reverse_mac(inport), packet.requested_bps
        )
        self.peak_circuits = max(self.peak_circuits, len(self.vc_map) // 2)
        self.circuits_admitted.add()
        forwarded = CvcPacket(
            kind=CvcKind.SETUP,
            vci=out_vci,
            dst_node=packet.dst_node,
            requested_bps=packet.requested_bps,
            packet_id=self.sim.new_packet_id(),
            created_at=packet.created_at,
            source=packet.source,
            hop_log=list(packet.hop_log),
        )
        self._emit(forwarded, out_port, out_mac)

    @staticmethod
    def _reverse_mac(inport: Attachment) -> Optional[MacAddress]:
        # For Ethernet in-ports the reverse hop needs the sender's MAC;
        # the setup's transmission carried it, but static route tables
        # already resolve reverse hops, so this is best-effort.
        return None

    # -- switched forwarding (data, confirm) ----------------------------------------

    def _on_switched(
        self, packet: CvcPacket, inport: Attachment, counter: Optional[Counter]
    ) -> None:
        entry = self.vc_map.get((inport.port_id, packet.vci))
        if entry is None:
            return  # stale label: silently dropped, ends up a host timeout
        packet.vci = entry.out_vci
        if counter is not None:
            counter.add()
        self._emit(packet, entry.out_port, entry.out_mac)

    def _on_release(self, packet: CvcPacket, inport: Attachment) -> None:
        entry = self.vc_map.pop((inport.port_id, packet.vci), None)
        if entry is None:
            return
        self.vc_map.pop((entry.out_port, entry.out_vci), None)
        self.reserved_per_port[entry.out_port] = max(
            0.0, self.reserved_per_port.get(entry.out_port, 0.0) - entry.reserved_bps
        )
        packet.vci = entry.out_vci
        self._emit(packet, entry.out_port, entry.out_mac)

    def _emit(
        self, packet: CvcPacket, port_id: int, dst_mac: Optional[MacAddress]
    ) -> None:
        outport = self.output_ports.get(port_id)
        if outport is None:
            return
        outport.submit(
            packet, packet.wire_size(), packet.wire_size(), dst_mac=dst_mac
        )

    @property
    def held_circuits(self) -> int:
        return len(self.vc_map) // 2
