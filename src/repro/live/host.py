"""The live Sirpent host: send/receive over real UDP, plus transactions.

:class:`LiveHost` is the overlay's end system: the live adapter over
the one host edge both substrates share,
:class:`~repro.dataplane.host.HostCore` (ARCHITECTURE §4, §14), which
demultiplexes on the final header segment's port (§2.2's intra-host
addressing) and replies along the **return route in the live trailer**,
each distinct header and trailer walked once.  The adapter keeps the
endpoint, the batch loop, the slot copy-and-release and the slot-size
check.  ``send`` frames ``preamble ++ route.wire_header() ++ payload``
along the directory's :class:`~repro.directory.routes.Route`, the one
route a source holds on either substrate, and ``send_return`` is
``send`` along the delivery's
:meth:`~repro.dataplane.host.Delivered.return_route`.

:class:`LiveTransactor` runs VMTP-style request/response transactions
on top: the simulator's own
:class:`~repro.transport.machine.TransactionMachine` and its IO
(:class:`~repro.transport.transactor.TransactorIO`, the codec's PDUs),
clocked by asyncio — so §4.1's entity ids and checksum, §4.2's packet
lifetime and §4.3's NAK recovery hold here by construction.  Rebinding is the
:class:`~repro.transport.rebind.RouteManager`'s: a timed-out route is
reported failed and the next attempt rides the cached alternate, which
is how a killed mid-path router is survived end to end.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.dataplane.host import Delivered, HostCore
from repro.dataplane.router import core_attribute
from repro.live.frames import frame_with_header
from repro.live.link import (
    Address,
    BatchEntry,
    Impairments,
    LiveEndpoint,
    LivenessConfig,
)
from repro.live.metrics import EndpointMetrics
from repro.transport.ids import EntityId, EntityIdAllocator
from repro.transport.machine import (
    WILDCARD_ENTITY,
    ReceivedMessage,
    TransactionResult,
    TransportConfig,
)
from repro.transport.rebind import RouteManager
from repro.transport.timestamps import HostClock
from repro.transport.transactor import TransactorIO
from repro.viper.wire import LOCAL_PORT


class WallClock:
    """Adapter giving :class:`~repro.transport.rebind.RouteManager` a
    ``.now`` in real seconds (the sim passes its virtual clock here)."""

    @property
    def now(self) -> float:
        """Monotonic wall-clock seconds."""
        return time.monotonic()


class LiveHost:
    """An end system speaking VIPER over a real UDP socket.  A frame it
    hands to no socket is counted in ``metrics.drops`` under the host
    core's reason; a transactor counts the PDUs it discards there too
    (:class:`LiveTransactor`)."""

    sockets = core_attribute("sockets")
    bind = core_attribute("bind")
    tracer = core_attribute("sink.tracer")
    recorder = core_attribute("sink.recorder")

    def __init__(
        self,
        name: str,
        impairments: Optional[Impairments] = None,
        liveness: Optional[LivenessConfig] = None,
    ) -> None:
        self.name = name
        self.metrics = EndpointMetrics(name)
        self.endpoint = LiveEndpoint(
            name, metrics=self.metrics,
            impairments=impairments, liveness=liveness,
        )
        # One wakeup, many frames: the endpoint hands whole batches of
        # ring-slot views.  A host is where packets leave the overlay, and
        # a handler may keep what it is handed, so each frame is copied
        # out of its slot once and the slot released before the frame is
        # even opened.
        self.endpoint.on_batch = self._on_batch
        self.ports: Dict[int, Address] = {}
        self.addr_port: Dict[Address, int] = {}
        #: The socket table, the frame open, the trailer memo and the
        #: drop sink.
        self.core = HostCore(name, self.metrics)

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the host's socket; returns its address."""
        return await self.endpoint.open(host, port)

    def stop(self) -> None:
        """Close the socket."""
        self.endpoint.close()

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this host."""
        self.core.sink.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install a :class:`repro.obs.recorder.FlightRecorder`."""
        self.core.sink.recorder = recorder

    def connect_port(self, port_id: int, peer: Address) -> None:
        """Map live ``port_id`` to the UDP address of the adjacent node."""
        self.ports[port_id] = peer
        self.addr_port[peer] = port_id

    # -- sending -----------------------------------------------------------

    def send(
        self,
        route: Any,
        payload: bytes,
        priority: int = 0,
        dib: bool = False,
        trace_id: Optional[int] = None,
    ) -> int:
        """Frame ``payload`` for ``route`` — a directory ``Route`` or a
        delivery's ``ReturnRoute`` — and transmit it; returns the trace
        id the frame carries (0 = untraced).

        The frame is ``preamble ++ route.wire_header(priority, dib) ++
        payload``: the route's bytes are encoded once per route, not
        per frame.

        ``trace_id``: None asks the installed tracer to (maybe) sample
        this frame — the id then rides the wire in the traced-frame
        preamble option; a non-zero value continues an existing trace
        (the reply path); 0 forces "untraced".

        Raises :class:`ValueError` for a frame larger than a ring slot:
        every receiving endpoint drops such a datagram as ``oversize``
        *before* acking it, so sending it would only be lost — and, as
        a probe, count a miss against a healthy neighbour.
        """
        header, seg_count = route.wire_header(priority, dib)
        wire_trace_id = 0
        tracer = self.core.sink.tracer
        if tracer is not None:
            if trace_id is None:
                wire_trace_id = tracer.begin(self.name)
            elif trace_id:
                wire_trace_id = trace_id
                tracer.event(trace_id, self.name, "send_return")
        peer = self.ports.get(route.first_hop_port)
        if peer is None:
            raise KeyError(
                f"{self.name}: no live attachment on port {route.first_hop_port}"
            )
        frame = frame_with_header(header, seg_count, payload, wire_trace_id)
        if len(frame) > self.endpoint.ring.slot_bytes:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds the overlay's "
                f"{self.endpoint.ring.slot_bytes}-byte slot"
            )
        self.endpoint.send(frame, peer)
        return wire_trace_id

    def send_return(
        self,
        delivered: Delivered,
        payload: bytes,
        reply_socket: int = LOCAL_PORT,
        priority: int = 0,
    ) -> int:
        """Send back along a delivered frame's reversed trailer route
        (:meth:`~repro.dataplane.host.Delivered.return_route`, the host
        core's reply route), through :meth:`send` like any other frame."""
        return self.send(
            delivered.return_route(reply_socket), payload,
            priority=priority, trace_id=delivered.trace_id,
        )

    # -- receiving ---------------------------------------------------------

    def _on_batch(self, batch: List[BatchEntry]) -> None:
        """Consume one endpoint wakeup's worth of ring-slot views.

        Each frame is copied out of its slot, which goes straight back
        to the ring, and opened by the core
        (:meth:`~repro.dataplane.host.HostCore.open`): validated by
        offsets, decoded not at all, demultiplexed on its final
        segment's port.  The handler gets a
        :class:`~repro.dataplane.host.Delivered` of offsets into the
        datagram that slices and decodes the rest on demand.  A frame from an address no port is wired to has no
        return hop: it is dropped (``unknown_peer``) before it is
        copied, and the rest of the wakeup goes on.
        """
        arrived_at = time.monotonic()
        core, metrics, addr_port = self.core, self.metrics, self.addr_port
        open_frame, tracer = core.open, core.sink.tracer
        for view, source, preamble in batch:
            slot = view.slot
            arrival_port = addr_port.get(source)
            if arrival_port is None:
                # No known arrival port, so no return hop: the router's
                # reason, and the frame goes before any handler sees it.
                slot.ring.release(slot)
                core.discard("unknown_peer", preamble.trace_id)
                continue
            datagram = slot.view[view.start:view.end].tobytes()
            slot.ring.release(slot)
            handler, socket, payload_start, payload_end, trailer = open_frame(
                datagram, preamble, preamble.trace_id,
            )
            if handler is None:
                continue
            metrics.delivered_local += 1
            if tracer is not None and preamble.trace_id:
                tracer.deliver(preamble.trace_id, self.name, socket=socket)
            handler(Delivered(
                datagram, payload_start, payload_end, socket, trailer,
                arrival_port, None, arrived_at, preamble.trace_id,
            ))


# -- VMTP transactions over the live overlay ----------------------------------


#: The live transport's settings: a 50 ms base timeout (the only loss
#: recovery on the overlay: the links never retransmit), unpaced groups
#: (every gap 0: the ring and the link's tx backlog bound a burst here,
#: not a rate), and a NAK delay of half the base timeout, long enough
#: that a clean run never sends one.
LIVE_TRANSPORT = TransportConfig(
    rate_bps=math.inf,
    base_timeout=0.05,
    nak_delay=0.025,
)

#: Transactors made in this process: part of each one's entity id
#: domain, so a transactor made again on a host gets fresh entity ids.
_incarnations = itertools.count(1)


class LiveTransactor(TransactorIO):
    """Request/response transactions over the live overlay: the
    :class:`~repro.transport.machine.TransactionMachine` and its
    :class:`~repro.transport.transactor.TransactorIO`, clocked by
    asyncio.

    One instance per host serves both roles: ``serve`` registers a
    request handler (the server side, as :attr:`entity`), ``transact``
    issues requests along a :class:`~repro.transport.rebind.RouteManager`'s
    current route and returns the reassembled response (the client
    side).  Responses travel the **reversed trailer route** of the
    request — the server never queries the directory.

    A PDU discarded here is counted on the host's metrics like any
    dropped frame, under its reason (``stale_pdu`` is a response or NAK
    whose transaction is over — the replay a timeout asked for,
    overtaken by the original).  :attr:`stats` counts what the
    simulator's transport counts.
    """

    def __init__(
        self, host: LiveHost, config: Optional[TransportConfig] = None
    ) -> None:
        super().__init__(
            host, config if config is not None else LIVE_TRANSPORT,
            HostClock(WallClock()),
            EntityIdAllocator(f"{host.name}#{next(_incarnations)}"),
            host.metrics.drops,
        )
        #: The entity :meth:`serve` registered (None before): a client
        #: that knows it names it instead of the wildcard.
        self.entity: Optional[EntityId] = None

    def serve(self, handler: Callable[[bytes], bytes]) -> None:
        """Install the request handler: ``payload -> response payload``."""

        def serve_request(message: ReceivedMessage) -> Tuple[bytes, int]:
            response = handler(b"".join(message.payload_parts))
            return response, len(response)

        if self.entity is None:
            self.entity = self.create_entity(serve_request, "server")
        else:
            self.adopt_entity(self.entity, serve_request)

    # -- client side -------------------------------------------------------

    async def transact(
        self,
        manager: RouteManager,
        payload: bytes,
        priority: int = 0,
        server_entity: int = WILDCARD_ENTITY,
    ) -> TransactionResult:
        """Issue one transaction and wait for its outcome: the machine's
        result, whose ``payload`` is the response (``b""`` when it failed).

        ``server_entity`` names the serving entity (the server
        transactor's :attr:`entity`) when the caller knows it; the
        wildcard reaches whichever entity serves at the route's end.
        Recovery is the machine's (§4.3): the server NAKs a request
        member it misses and the client resends it alone; a timeout
        NAKs the response members still missing or, with none of the
        response, probes with the request's last member (a server that
        answered replays its response, one missing members NAKs them);
        repeated timeouts rebind the route.
        """
        outcome = asyncio.get_running_loop().create_future()

        def complete(result: TransactionResult) -> None:
            # A cancelled caller's future is done before ``abandon`` runs
            # on the task's next step; a response arriving in between
            # still ends the transaction in the machine.
            if not outcome.done():
                outcome.set_result(result)

        transaction_id = self.machine.transact(
            manager, server_entity, payload, len(payload) or 1,
            complete, priority,
        )
        try:
            result = await outcome
        except asyncio.CancelledError:
            self.machine.abandon(transaction_id)
            raise
        return result

    # -- the machine's clock -------------------------------------------------

    @property
    def now(self) -> float:
        """Monotonic wall-clock seconds."""
        return time.monotonic()

    def after(self, delay: float, fn: Callable[..., None], *args: Any):
        """``loop.call_later``; a zero delay (an unpaced member) runs now."""
        if delay <= 0.0:
            fn(*args)
            return None
        return asyncio.get_running_loop().call_later(delay, fn, *args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveTransactor host={self.host.name!r} "
            f"socket={self.config.socket}>"
        )
