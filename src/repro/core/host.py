"""The Sirpent host stack on the simulator.

A host sends packets along routes obtained from the routing directory
(§3) and receives packets whose final header segment names one of its
intra-host ports — "a Sirpent header segment can be used to designate
the port within a host to which to address the packet" (§2.2).

:class:`SirpentHost` is the simulator's adapter over the one host edge,
:class:`~repro.dataplane.host.HostCore`, which opens, demultiplexes and
answers every delivered frame for the live host too, and hands each one
up as the one :class:`~repro.dataplane.host.Delivered`.  ``send`` takes
the payload's bytes, as the live host's does; a frame carries them
whole.  The adapter keeps output ports and bit timing, the arrival MAC
(the reply's first hop on an Ethernet), the rate-signal subscription
and the counters the tables read.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional

from repro.core.congestion import ControlPlane, RateSignal
from repro.core.packet import FramePacket
from repro.core.queues import OutputPort
from repro.dataplane.host import Delivered, HostCore
from repro.dataplane.router import core_attribute
from repro.live.frames import decode_preamble
from repro.net.link import Transmission
from repro.net.node import Attachment, Node
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram
from repro.viper.wire import LOCAL_PORT


class SirpentHost(Node):
    """An end system speaking VIPER: the simulator's adapter over the
    :class:`~repro.dataplane.host.HostCore`.

    ``received`` counts every frame whose route reached this host (one
    no socket takes included), ``undeliverable`` every frame the core
    dropped (by reason in ``core.drops``)."""

    bind = core_attribute("bind")
    tracer = core_attribute("sink.tracer")

    def __init__(
        self,
        sim: Simulator,
        name: str,
        control_plane: Optional[ControlPlane] = None,
    ) -> None:
        super().__init__(sim, name)
        self.output_ports: Dict[int, OutputPort] = {}
        self.rate_signal_handlers: List[Callable[[RateSignal], None]] = []
        self.sent = Counter(f"{name}.sent")
        self.received = Counter(f"{name}.received")
        self.received_truncated = Counter(f"{name}.truncated")
        self.undeliverable = Counter(f"{name}.undeliverable")
        self.delivery_delay = Histogram(f"{name}.delay")
        #: The socket table, the frame open, the trailer memo and the
        #: drop sink.
        self.core = HostCore(
            name, SimpleNamespace(drop=lambda _reason: self.undeliverable.add()),
        )
        if control_plane is not None:
            control_plane.register(name, self._on_control_message)

    # -- wiring ---------------------------------------------------------------

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this host and
        every output port (existing and future attachments)."""
        self.core.sink.tracer = tracer
        for outport in self.output_ports.values():
            outport.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install a :class:`repro.obs.recorder.FlightRecorder`: the host
        edge's drops and its transport's retries land in it."""
        self.core.sink.recorder = recorder

    def attach(self, port_id: int, attachment: Attachment) -> None:
        super().attach(port_id, attachment)
        outport = OutputPort(self.sim, attachment)
        outport.tracer = self.tracer
        self.output_ports[port_id] = outport

    def subscribe_rate_signals(self, handler: Callable[[RateSignal], None]) -> None:
        """Transports register here to learn of network backpressure."""
        self.rate_signal_handlers.append(handler)

    # -- sending ----------------------------------------------------------------

    def send(
        self,
        route: Any,
        data: bytes,
        priority: int = 0,
        dib: bool = False,
        trace_id: Optional[int] = None,
    ) -> FramePacket:
        """Frame ``data`` for ``route`` and clock it out: the frame is
        ``preamble ++ route.wire_header(priority, dib) ++ data``.

        ``route`` gives ``wire_header(priority, dib)`` (the priority
        rides every segment, §2), ``first_hop_port`` and
        ``first_hop_mac`` (None on p2p): a directory ``Route`` or a
        delivery's ``ReturnRoute``.

        ``trace_id``: None asks the installed tracer to (maybe) sample
        this packet; a non-zero value continues an existing trace (the
        reply path); 0 forces "untraced".
        """
        header, seg_count = route.wire_header(priority, dib)
        sim = self.sim
        packet = FramePacket(
            seg_count, len(data), header, data, sim.packet_ids.allocate(),
            sim.now, self.name,
        )
        tracer = self.core.sink.tracer
        if tracer is not None:
            if trace_id is None:
                packet.trace_id = tracer.begin(self.name)
            elif trace_id:
                packet.trace_id = trace_id
                tracer.event(trace_id, self.name, "send_return")
        outport = self.output_ports.get(route.first_hop_port)
        if outport is None:
            raise KeyError(
                f"{self.name}: no attachment on port {route.first_hop_port}"
            )
        self.sent.add()
        outport.submit(
            packet, packet.wire_size(), packet.decision_prefix_bytes(),
            route.first_hop_mac, priority, dib,
        )
        return packet

    def send_return(
        self,
        delivered: Delivered,
        data: bytes,
        reply_socket: int = LOCAL_PORT,
        priority: int = 0,
    ) -> FramePacket:
        """Send back along a delivered packet's reversed trailer route
        to ``reply_socket`` at the original sender."""
        return self.send(
            delivered.return_route(reply_socket), data,
            priority=priority, trace_id=delivered.trace_id,
        )

    # -- receiving --------------------------------------------------------------

    def on_packet(self, packet: Any, inport: Attachment, tx: Transmission) -> None:
        if not isinstance(packet, FramePacket):
            return
        mem = packet.view.mem
        handler, socket, start, end, trailer = self.core.open(
            mem, decode_preamble(mem), packet.trace_id,
        )
        if trailer is None:
            return  # dropped before any socket: counted undeliverable
        self.received.add()
        if trailer.truncated:
            self.received_truncated.add()
        self.delivery_delay.add(self.sim.now - packet.created_at)
        if handler is None:
            return  # received, but no socket takes it: undeliverable
        tracer = self.core.sink.tracer
        if packet.trace_id and tracer is not None:
            tracer.deliver(
                packet.trace_id, self.name, socket=socket, hops=packet.hops_taken,
            )
        handler(Delivered(
            mem.tobytes(), start, end, socket, trailer, inport.port_id,
            tx.src_mac if inport.kind == "ethernet" else None,
            self.sim.now, packet.trace_id, packet,
        ))

    def _on_control_message(self, src: str, message: Any) -> None:
        if isinstance(message, RateSignal):
            for handler in self.rate_signal_handlers:
                handler(message)
