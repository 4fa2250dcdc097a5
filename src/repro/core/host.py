"""The Sirpent host stack.

A host sends packets along routes obtained from the routing directory
(§3) and receives packets whose final header segment names one of its
intra-host ports — the paper's unification of inter-host and intra-host
addressing: "a Sirpent header segment can be used to designate the port
within a host to which to address the packet" (§2.2).

Both edges work on the frame's bytes, as the live host's do
(:mod:`repro.live.frames`).  Sending frames the route's segments — each
one's cached encoding — ahead of the payload.  On reception the host
opens the frame by offsets:

* it demultiplexes on the final segment's port (0 = the default
  endpoint),
* finds where the payload ends — the trailer behind it is the *return
  route*, whose reversed segments a reply's header is copied from
  (:func:`~repro.live.frames.return_route_header`), with the reversed
  arrival frame header for the first physical hop back — and
* hands the transport a :class:`DeliveredPacket`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.congestion import ControlPlane, RateSignal
from repro.core.packet import FramePacket
from repro.core.queues import OutputPort
from repro.live.frames import (
    decode_preamble, encode_route_header, frame_spans, return_route_header, truncation_marked,
)
from repro.net.addresses import MacAddress
from repro.net.link import Transmission
from repro.net.node import Attachment, Node
from repro.obs.trace import NULL_TRACER
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram
from repro.viper.wire import LOCAL_PORT


@dataclass
class DeliveredPacket:
    """What the host hands up to the transport layer."""

    packet: FramePacket
    payload: Any
    payload_size: int
    socket: int
    arrived_at: float
    #: ``(start, end)`` of each trailer segment in the frame
    #: (``packet.view.mem``), in return-route order.
    trailer_spans: List[Tuple[int, int]]
    #: MAC for the first physical hop of the return route (None on p2p).
    return_first_hop_mac: Optional[MacAddress]
    #: Host port the packet arrived on (= first hop of the return route).
    arrival_port: int
    truncated: bool
    corrupted: bool

    @property
    def one_way_delay(self) -> float:
        return self.arrived_at - self.packet.created_at


class SirpentHost(Node):
    """An end system speaking VIPER."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        control_plane: Optional[ControlPlane] = None,
    ) -> None:
        super().__init__(sim, name)
        self.sockets: Dict[int, Callable[[DeliveredPacket], None]] = {}
        self.output_ports: Dict[int, OutputPort] = {}
        self.rate_signal_handlers: List[Callable[[RateSignal], None]] = []
        self.sent = Counter(f"{name}.sent")
        self.received = Counter(f"{name}.received")
        self.received_corrupted = Counter(f"{name}.corrupted")
        self.received_truncated = Counter(f"{name}.truncated")
        self.undeliverable = Counter(f"{name}.undeliverable")
        self.delivery_delay = Histogram(f"{name}.delay")
        #: Hop tracer (repro.obs); NULL_TRACER = tracing disabled.
        self.tracer = NULL_TRACER
        if control_plane is not None:
            control_plane.register(name, self._on_control_message)

    # -- wiring ---------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this host and
        every output port (existing and future attachments)."""
        self.tracer = tracer
        for outport in self.output_ports.values():
            outport.tracer = tracer

    def attach(self, port_id: int, attachment: Attachment) -> None:
        super().attach(port_id, attachment)
        outport = OutputPort(self.sim, attachment)
        outport.tracer = self.tracer
        self.output_ports[port_id] = outport

    def bind(self, socket: int, handler: Callable[[DeliveredPacket], None]) -> None:
        """Register a receive handler for an intra-host port."""
        if not 0 <= socket <= 255:
            raise ValueError(f"socket {socket} outside 0..255")
        if socket in self.sockets:
            raise ValueError(f"{self.name}: socket {socket} already bound")
        self.sockets[socket] = handler

    def subscribe_rate_signals(self, handler: Callable[[RateSignal], None]) -> None:
        """Transports register here to learn of network backpressure."""
        self.rate_signal_handlers.append(handler)

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        route: Any,
        payload: Any,
        payload_size: int,
        priority: int = 0,
        dib: bool = False,
        host_port: Optional[int] = None,
        first_hop_mac: Optional[MacAddress] = None,
        trace_id: Optional[int] = None,
    ) -> FramePacket:
        """Frame a VIPER packet for ``route`` and clock it out.

        ``route`` duck-types the directory's Route: ``segments`` (one
        per router plus the destination's final segment), optional
        ``alternates`` (slick blocks), ``first_hop_port`` (which of our
        ports to use) and ``first_hop_mac`` (who to frame it to, None on
        p2p).  The priority is stamped into every segment — the type of
        service travels with each hop's header (§2).

        ``trace_id``: None asks the installed tracer to (maybe) sample
        this packet; a non-zero value continues an existing trace (the
        reply path); 0 forces "untraced".
        """
        header, seg_count = encode_route_header(
            route.segments, getattr(route, "alternates", ()), priority, dib
        )
        return self._send_frame(
            header, seg_count, payload, payload_size, priority, dib,
            host_port if host_port is not None else route.first_hop_port,
            first_hop_mac if first_hop_mac is not None else route.first_hop_mac,
            trace_id,
        )

    def send_return(
        self,
        delivered: DeliveredPacket,
        payload: Any,
        payload_size: int,
        reply_socket: int = LOCAL_PORT,
        priority: int = 0,
    ) -> FramePacket:
        """Send back along a delivered packet's reversed trailer route.

        ``reply_socket`` becomes the final segment's port at the original
        sender — the transport knows which of its endpoints should get
        the reply.  The reply's header is copied from the trailer's
        spans, each segment stamped with RPF and ``priority`` (§2).
        """
        header, seg_count = return_route_header(
            delivered.packet.view.mem, delivered.trailer_spans,
            reply_socket, priority,
        )
        return self._send_frame(
            header, seg_count, payload, payload_size, priority, False,
            delivered.arrival_port, delivered.return_first_hop_mac,
            delivered.packet.trace_id,
        )

    def _send_frame(
        self, header: bytes, seg_count: int, payload: Any, payload_size: int,
        priority: int, dib: bool, port_id: int, mac: Optional[MacAddress],
        trace_id: Optional[int],
    ) -> FramePacket:
        packet = FramePacket(
            seg_count, payload_size, header, filler=payload_size,
            payload=payload,
            packet_id=self.sim.new_packet_id(),
            created_at=self.sim.now,
            source=self.name,
        )
        if self.tracer.enabled:
            if trace_id is None:
                packet.trace_id = self.tracer.begin(self.name, self.sim.now)
            elif trace_id:
                packet.trace_id = trace_id
                self.tracer.event(
                    trace_id, self.sim.now, self.name, "send_return",
                )
        outport = self.output_ports.get(port_id)
        if outport is None:
            raise KeyError(f"{self.name}: no attachment on port {port_id}")
        self.sent.add()
        outport.submit(
            packet,
            packet.wire_size(),
            packet.decision_prefix_bytes(),
            dst_mac=mac,
            priority=priority,
            dib=dib,
        )
        return packet

    # -- receiving --------------------------------------------------------------

    def on_packet(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, FramePacket):
            return
        socket = packet.leading_port()
        if socket is None:
            self.undeliverable.add()
            if packet.trace_id and self.tracer.enabled:
                self.tracer.drop(
                    packet.trace_id, self.sim.now, self.name, "undeliverable",
                )
            return
        mem = packet.view.mem
        _, _, payload_end, spans = frame_spans(mem, decode_preamble(mem))
        truncated = truncation_marked(len(mem), payload_end, spans)
        handler = self.sockets.get(socket)
        self.received.add()
        if packet.corrupted:
            self.received_corrupted.add()
        if truncated:
            self.received_truncated.add()
        self.delivery_delay.add(self.sim.now - packet.created_at)
        if packet.trace_id and self.tracer.enabled:
            self.tracer.deliver(
                packet.trace_id, self.sim.now, self.name,
                socket=socket, hops=packet.hops_taken,
            )
        if handler is None:
            self.undeliverable.add()
            return
        return_first_hop_mac = tx.src_mac if inport.kind == "ethernet" else None
        delivered = DeliveredPacket(
            packet=packet,
            payload=packet.payload,
            payload_size=packet.payload_size,
            socket=socket,
            arrived_at=self.sim.now,
            trailer_spans=spans,
            return_first_hop_mac=return_first_hop_mac,
            arrival_port=inport.port_id,
            truncated=truncated,
            corrupted=packet.corrupted,
        )
        handler(delivered)

    def _on_control_message(self, src: str, message: Any) -> None:
        if isinstance(message, RateSignal):
            for handler in self.rate_signal_handlers:
                handler(message)
