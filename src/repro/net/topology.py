"""Topology construction and the graph view used by the routing directory.

A :class:`Topology` owns nodes, point-to-point links and Ethernet
segments, wires ports automatically, and exposes an adjacency view
(:meth:`Topology.edges`) that the directory service's path finder
consumes.  Nothing here is Sirpent-specific — the IP and CVC baselines
build on the same substrate, which is what makes head-to-head benchmarks
fair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.net.addresses import MacAddress, MacAllocator
from repro.net.ethernet import EthernetSegment
from repro.net.link import Link
from repro.net.node import EthernetAttachment, Node, P2PAttachment
from repro.sim.engine import Simulator


@dataclass(frozen=True)
class Edge:
    """One directed hop in the topology graph — a value: the directory
    remembers paths against the edges they were found in.

    ``dst_mac`` is set when the hop crosses an Ethernet segment — the
    directory copies it into the VIPER ``portInfo`` for that hop, exactly
    as §2 of the paper describes.
    """

    src: str
    dst: str
    port_id: int
    rate_bps: float
    propagation_delay: float
    mtu: int
    dst_mac: Optional[MacAddress] = None
    src_mac: Optional[MacAddress] = None
    medium: str = "p2p"
    link_name: str = ""
    cost: float = 1.0
    secure: bool = True


class Topology:
    """A container wiring nodes together and recording the graph."""

    def __init__(self, sim: Simulator) -> None:
        self.sim = sim
        self.nodes: Dict[str, Node] = {}
        self.links: Dict[str, Link] = {}
        self.segments: Dict[str, EthernetSegment] = {}
        self._edges: List[Edge] = []
        self._macs = MacAllocator()
        self._segment_ids: Dict[str, int] = {}

    # -- nodes ---------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        return node

    # -- point-to-point links -------------------------------------------------

    def connect(
        self,
        a: Node,
        b: Node,
        rate_bps: float = 10e6,
        propagation_delay: float = 10e-6,
        mtu: int = 1500,
        name: str = "",
        cost: float = 1.0,
        secure: bool = True,
        corruption_rate: float = 0.0,
        rng=None,
    ) -> Tuple[Link, int, int]:
        """Create a duplex link between ``a`` and ``b``.

        Ports are auto-assigned; returns ``(link, port_on_a, port_on_b)``.
        """
        for node in (a, b):
            if node.name not in self.nodes:
                self.add_node(node)
        if not name:
            name = f"{a.name}--{b.name}"
        if name in self.links:
            raise ValueError(f"duplicate link name {name!r}")
        link = Link(
            self.sim, rate_bps, propagation_delay, mtu, name=name,
            corruption_rate=corruption_rate, rng=rng,
        )
        port_a = a.free_port_id()
        attachment_a = P2PAttachment(a, port_a, link.a_to_b, peer_name=b.name)
        a.attach(port_a, attachment_a)
        port_b = b.free_port_id()
        attachment_b = P2PAttachment(b, port_b, link.b_to_a, peer_name=a.name)
        b.attach(port_b, attachment_b)
        link.a_to_b.dst_attachment = attachment_b
        link.b_to_a.dst_attachment = attachment_a
        self.links[name] = link
        self._edges.append(Edge(
            a.name, b.name, port_a, rate_bps, propagation_delay, mtu,
            medium="p2p", link_name=name, cost=cost, secure=secure,
        ))
        self._edges.append(Edge(
            b.name, a.name, port_b, rate_bps, propagation_delay, mtu,
            medium="p2p", link_name=name, cost=cost, secure=secure,
        ))
        return link, port_a, port_b

    # -- ethernet segments ------------------------------------------------------

    def add_ethernet(
        self,
        name: str,
        rate_bps: float = 10e6,
        propagation_delay: float = 5e-6,
        mtu: int = EthernetSegment.DEFAULT_MTU,
    ) -> EthernetSegment:
        if name in self.segments:
            raise ValueError(f"duplicate segment name {name!r}")
        segment = EthernetSegment(
            self.sim, rate_bps, propagation_delay, mtu, name=name
        )
        self.segments[name] = segment
        self._segment_ids[name] = len(self._segment_ids) + 1
        return segment

    def attach_to_ethernet(
        self, node: Node, segment: EthernetSegment, cost: float = 1.0,
        secure: bool = True,
    ) -> EthernetAttachment:
        """Tap ``node`` onto ``segment`` with a fresh MAC and port.

        Directed edges are recorded from this node to every station
        already on the segment and vice versa, so the graph view treats
        the Ethernet as a full mesh with per-hop ``dst_mac`` values.
        """
        if node.name not in self.nodes:
            self.add_node(node)
        segment_id = self._segment_ids[segment.name]
        mac = self._macs.allocate(segment_id)
        port_id = node.free_port_id()
        attachment = EthernetAttachment(node, port_id, segment, mac)
        node.attach(port_id, attachment)
        for other in segment.stations():
            self._edges.append(Edge(
                node.name, other.node.name, port_id,
                segment.rate_bps, segment.propagation_delay, segment.mtu,
                dst_mac=other.mac, src_mac=mac, medium="ethernet",
                link_name=segment.name, cost=cost, secure=secure,
            ))
            self._edges.append(Edge(
                other.node.name, node.name, other.port_id,
                segment.rate_bps, segment.propagation_delay, segment.mtu,
                dst_mac=mac, src_mac=other.mac, medium="ethernet",
                link_name=segment.name, cost=cost, secure=secure,
            ))
        segment.register(attachment)
        return attachment

    # -- graph view ------------------------------------------------------------

    def edges(self) -> List[Edge]:
        """All directed edges (excluding those over failed media)."""
        live: List[Edge] = []
        for edge in self._edges:
            if edge.medium == "p2p":
                link = self.links[edge.link_name]
                if not link.up:
                    continue
            else:
                segment = self.segments[edge.link_name]
                if not segment.up:
                    continue
            live.append(edge)
        return live

    def all_edges(self) -> List[Edge]:
        """Every directed edge, including over failed media."""
        return list(self._edges)

    def edges_from(self, node_name: str) -> Iterator[Edge]:
        for edge in self.edges():
            if edge.src == node_name:
                yield edge

    # -- failure injection --------------------------------------------------------

    def fail_link(self, name: str) -> None:
        if name in self.links:
            self.links[name].fail()
        elif name in self.segments:
            self.segments[name].fail()
        else:
            raise KeyError(f"no link or segment named {name!r}")

    def restore_link(self, name: str) -> None:
        if name in self.links:
            self.links[name].restore()
        elif name in self.segments:
            self.segments[name].restore()
        else:
            raise KeyError(f"no link or segment named {name!r}")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Topology nodes={len(self.nodes)} links={len(self.links)} "
            f"segments={len(self.segments)}>"
        )
