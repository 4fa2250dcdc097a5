"""The live Sirpent host: send/receive over real UDP, plus transactions.

:class:`LiveHost` is the overlay's end system: the live adapter over
the one host edge both substrates share,
:class:`~repro.dataplane.host.HostCore` (ARCHITECTURE §4, §14), which
demultiplexes on the final header segment's port (§2.2's intra-host
addressing) and replies along the **return route in the live trailer**,
each distinct header and trailer walked once.  The adapter keeps the
endpoint, the batch loop, the slot copy-and-release and the slot-size
check.  ``send`` frames ``preamble ++ route.wire_header() ++ payload``
(:class:`LiveRoute` is a :class:`~repro.dataplane.host.SourceRoute`)
and ``send_return`` is ``send`` along the delivery's
:meth:`LiveDelivered.return_route`.

:class:`LiveTransactor` runs VMTP-style request/response transactions
on top: the simulator's own
:class:`~repro.transport.machine.TransactionMachine`, clocked by
asyncio, its PDUs encoded as bytes (:func:`encode_pdu`) — so §4.1's
entity ids and checksum, §4.2's packet lifetime and §4.3's NAK recovery
hold here by construction.  Rebinding is the
:class:`~repro.transport.rebind.RouteManager`'s: a timed-out route is
reported failed and the next attempt rides the cached alternate, which
is how a killed mid-path router is survived end to end.
"""

from __future__ import annotations

import asyncio
import itertools
import math
import struct
import time
import zlib
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.dataplane.host import HostCore, ReturnRoute, SourceRoute, Trailer
from repro.dataplane.router import core_attribute
from repro.live.frames import Preamble, frame_with_header
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
    PduKind,
    ReceivedMessage,
    TransactionMachine,
    TransactionResult,
    TransportConfig,
    VmtpPdu,
)
from repro.transport.rebind import RouteManager
from repro.transport.stats import TransportStats
from repro.transport.timestamps import HostClock
from repro.viper.wire import HeaderSegment, LOCAL_PORT


class WallClock:
    """Adapter giving :class:`~repro.transport.rebind.RouteManager` a
    ``.now`` in real seconds (the sim passes its virtual clock here)."""

    @property
    def now(self) -> float:
        """Monotonic wall-clock seconds."""
        return time.monotonic()


@dataclass
class LiveRoute(SourceRoute):
    """A source route usable by a live host.

    ``segments`` covers every router hop plus the destination host's
    final (socket) segment; ``first_hop_port`` names which of the
    client's live ports carries the first physical hop.  ``base_rtt_s``
    is the advertised round-trip estimate the rebinding logic compares
    measurements against (§3's "the client can determine the roundtrip
    time ... rather than discovering these parameters over time").
    ``segments`` and ``alternates`` are frozen to tuples (the header
    memo the directory's routes share).
    """

    destination: str
    segments: Tuple[HeaderSegment, ...]
    first_hop_port: int
    base_rtt_s: float = 1e-3
    hop_count: int = 0
    mtu: int = 1500
    #: True when ``base_rtt_s`` is the directory's floor, not the
    #: route model's prediction (which was zero, e.g. loopback) — lets
    #: rebinding logic tell a measured estimate from a floored one.
    rtt_floor_applied: bool = False
    #: Slick-Packets backup blocks, one per slick-flagged segment in
    #: route order (ARCHITECTURE §16); empty on non-slick routes.
    alternates: Tuple[Tuple[HeaderSegment, ...], ...] = ()

    def expected_rtt(self, payload_size: int = 0, reply_size: int = 0) -> float:
        """Advertised base RTT (payload sizes are second-order on loopback)."""
        return self.base_rtt_s


@dataclass
class LiveDelivered:
    """What the live host hands up on reception: offsets into the kept
    ``datagram``, nothing decoded (``payload`` is sliced on first use; a
    transactor reads the PDU in place).  A type of its own, not the
    simulator's ``DeliveredPacket``: here the PDU is the frame's bytes.
    """

    #: The whole arrived datagram and the endpoint's decode of its preamble.
    datagram: bytes
    preamble: Preamble
    #: Where the payload sits in ``datagram``; the trailer follows it.
    payload_start: int
    payload_end: int
    socket: int
    #: When the endpoint's wakeup that read the frame began.
    arrived_at: float
    #: The host core's memo entry for the frame's trailer bytes.
    trailer: Trailer
    #: Live port the frame arrived on (= first hop of the return route).
    arrival_port: int
    source: Address

    @cached_property
    def payload(self) -> bytes:
        """The frame's payload bytes."""
        return self.datagram[self.payload_start:self.payload_end]

    @property
    def trace_id(self) -> int:
        """The arrived frame's 64-bit trace id; 0 = untraced."""
        return self.preamble.trace_id

    def return_route(self, reply_socket: int) -> ReturnRoute:
        """The reversed trailer route to ``reply_socket``: one object per
        trailer bytes and port, kept for every later reply."""
        return self.trailer.route(reply_socket, self.arrival_port)


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
        #: drop sink; its tracer's timestamps are ``time.monotonic()``.
        self.core = HostCore(name, self.metrics, time.monotonic)

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

    @property
    def address(self) -> Optional[Address]:
        """The host's bound UDP address (None before :meth:`start`)."""
        return self.endpoint.address

    # -- sending -----------------------------------------------------------

    def send(
        self,
        route: LiveRoute,
        payload: bytes,
        priority: int = 0,
        dib: bool = False,
        trace_id: Optional[int] = None,
    ) -> int:
        """Frame ``payload`` for ``route`` and transmit it; returns the
        trace id the frame carries (0 = untraced).

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
        if tracer.enabled:
            if trace_id is None:
                wire_trace_id = tracer.begin(self.name, time.monotonic())
            elif trace_id:
                wire_trace_id = trace_id
                tracer.event(
                    trace_id, time.monotonic(), self.name, "send_return",
                )
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
        delivered: LiveDelivered,
        payload: bytes,
        reply_socket: int = LOCAL_PORT,
        priority: int = 0,
    ) -> int:
        """Send back along a delivered frame's reversed trailer route
        (:meth:`LiveDelivered.return_route`, the host core's reply
        route), through :meth:`send` like any other frame."""
        return self.send(
            delivered.return_route(reply_socket), payload,
            priority=priority, trace_id=delivered.preamble.trace_id,
        )

    # -- receiving ---------------------------------------------------------

    def _on_batch(self, batch: List[BatchEntry]) -> None:
        """Consume one endpoint wakeup's worth of ring-slot views.

        Each frame is copied out of its slot, which goes straight back
        to the ring, and opened by the core
        (:meth:`~repro.dataplane.host.HostCore.open`): validated by
        offsets, decoded not at all, demultiplexed on its final
        segment's port.  The handler gets a :class:`LiveDelivered` of
        offsets into the datagram that slices and decodes the rest on
        demand.  A frame from an address no port is wired to has no
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
            if tracer.enabled and preamble.trace_id:
                tracer.deliver(
                    preamble.trace_id, time.monotonic(), self.name, socket=socket,
                )
            handler(LiveDelivered(
                datagram, preamble, payload_start, payload_end, socket,
                arrived_at, trailer, arrival_port, source,
            ))


# -- VMTP transactions over the live overlay ----------------------------------


#: The live PDU's header: kind(1) reserved(1) src_entity(8)
#: dst_entity(8) txid(4) member(1) count(1) reply_socket(1) reserved(1)
#: — 26 bytes.  The body follows (a member's bytes, or a NAK's 32-bit
#: mask), then the trailer: the 32-bit creation timestamp (§4.2) and a
#: CRC-32 of every byte before it (§4.1) — the 8 bytes the simulator
#: models as ``trailer_bytes``.
_PDU_HEADER = struct.Struct(">BBQQIBBBB")
_WORD = struct.Struct(">I")
#: The trailer: creation timestamp, CRC-32.
_TRAILER = struct.Struct(">II")
_TRAILER_BYTES = _TRAILER.size

#: Wire codes of the PDU kinds: a kind's code is its index.
_KINDS = (
    PduKind.REQUEST, PduKind.RESPONSE,
    PduKind.RESPONSE_NAK, PduKind.REQUEST_NAK,
)
_REQUEST, _RESPONSE = _KINDS[:2]

#: The live transport's settings: the layout above, a 50 ms base
#: timeout (the only loss recovery on the overlay: the links never
#: retransmit), unpaced groups (every gap 0: the ring and the link's tx
#: backlog bound a burst here, not a rate), and a NAK delay of half the
#: base timeout, long enough that a clean run never sends one.
LIVE_TRANSPORT = TransportConfig(
    header_bytes=_PDU_HEADER.size,
    trailer_bytes=_TRAILER_BYTES,
    rate_bps=math.inf,
    base_timeout=0.05,
    nak_delay=0.025,
)

#: Transactors made in this process: part of each one's entity id
#: domain, so a transactor made again on a host gets fresh entity ids.
_incarnations = itertools.count(1)


def encode_pdu(pdu: VmtpPdu, body: Optional[bytes] = None) -> bytes:
    """``pdu`` as live bytes, carrying ``body`` between its header and
    its trailer — by default the PDU's own: its member's bytes, or a
    NAK's mask.  One join lays down everything the CRC-32 covers, and
    one pass computes it."""
    kind = pdu.kind
    # Members first, by identity: an enum's hash is a Python call.
    code = 0 if kind is _REQUEST else 1 if kind is _RESPONSE else _KINDS.index(kind)
    if body is None:
        if code <= 1:  # a member's bytes
            start = pdu.user_offset
            body = pdu.user_data[start:start + pdu.user_size]
        else:
            body = _WORD.pack(pdu.mask_bits)
    header = _PDU_HEADER.pack(
        code, 0, pdu.src_entity, pdu.dst_entity, pdu.transaction_id,
        pdu.member_index, pdu.group_count, pdu.reply_socket, 0,
    )
    data = b"".join((header, body, _WORD.pack(pdu.timestamp)))
    return data + _WORD.pack(zlib.crc32(data))


def open_pdu(data: bytes, start: int, end: int) -> Union[VmtpPdu, str]:
    """Check and decode the PDU in ``data[start:end]`` in one pass: the
    checksum runs over the span, and a member's bytes are the one slice
    handed up.

    Returns the PDU, or why there is none: ``"short_pdu"`` (no room for
    a header and a trailer), ``"checksum"`` (the CRC-32 does not match),
    ``"unknown_pdu"`` (no such kind) or ``"malformed_nak"`` (a NAK
    whose body is not exactly its 32-bit mask — read as any mask, it
    would make the peer resend members nobody asked for).
    """
    body_at = start + _PDU_HEADER.size
    stamp_at = end - _TRAILER_BYTES
    if stamp_at < body_at:
        return "short_pdu"
    stamp, crc = _TRAILER.unpack_from(data, stamp_at)
    if zlib.crc32(data[start:end - _WORD.size]) != crc:
        return "checksum"
    code, _r, src, dst, txid, member, count, reply_socket, _r2 = (
        _PDU_HEADER.unpack_from(data, start)
    )
    if code <= 1:  # a member's bytes
        return VmtpPdu(
            _KINDS[code], txid, src, dst, member, count, stamp,
            reply_socket, 0, stamp_at - body_at, data[body_at:stamp_at],
        )
    if code >= len(_KINDS):
        return "unknown_pdu"
    if stamp_at - body_at != _WORD.size:
        return "malformed_nak"
    return VmtpPdu(
        _KINDS[code], txid, src, dst, member, count, stamp, reply_socket,
        _WORD.unpack_from(data, body_at)[0],
    )


class LiveTransactor:
    """Request/response transactions over the live overlay: the
    :class:`~repro.transport.machine.TransactionMachine`, clocked by
    asyncio, its PDUs encoded by :func:`encode_pdu`.

    One instance per host serves both roles: ``serve`` registers a
    request handler (the server side, as :attr:`entity`), ``transact``
    issues requests along a :class:`~repro.transport.rebind.RouteManager`'s
    current route and returns the reassembled response (the client
    side).  Responses travel the **reversed trailer route** of the
    request — the server never queries the directory.

    A PDU discarded here is counted on the host's metrics like any
    dropped frame: under the machine's reason (``checksum``,
    ``misdelivered``, ``too_old``, ``bad_group``, ``no_handler``,
    ``duplicate_member`` for a member already held, ``stale_pdu`` for a
    response or NAK whose transaction is over — the replay a timeout
    asked for, overtaken by the original) or the codec's
    (``short_pdu``, ``unknown_pdu``, ``malformed_nak``).  :attr:`stats` counts what the
    simulator's transport counts.
    """

    def __init__(
        self, host: LiveHost, config: Optional[TransportConfig] = None
    ) -> None:
        self.host = host
        self.config = config if config is not None else LIVE_TRANSPORT
        self.stats = TransportStats()
        self.machine = TransactionMachine(
            self, self.config, HostClock(WallClock()),
            EntityIdAllocator(f"{host.name}#{next(_incarnations)}"),
            self.stats,
        )
        #: The entity :meth:`serve` registered (None before): a client
        #: that knows it names it instead of the wildcard.
        self.entity: Optional[EntityId] = None
        #: SLO feed (attach_registry): transaction RTTs + retry budget.
        self._rtt_ms = None
        self._tx_started = None
        self._tx_retries = None
        host.bind(self.config.socket, self._on_delivered)

    def serve(self, handler: Callable[[bytes], bytes]) -> None:
        """Install the request handler: ``payload -> response payload``."""

        def serve_request(message: ReceivedMessage) -> Tuple[bytes, int]:
            response = handler(b"".join(message.payload_parts))
            return response, len(response)

        if self.entity is None:
            self.entity = self.machine.create_entity(serve_request, "server")
        else:
            self.machine.adopt_entity(self.entity, serve_request)

    def attach_registry(self, registry) -> None:
        """Expose the SLO engine's raw inputs: per-transaction RTTs
        (``transaction_rtt_ms``), transactions started
        (``transactions_started``), and retries spent
        (``transaction_retries``) — the retry-budget-headroom ratio."""
        self._rtt_ms = registry.histogram("transaction_rtt_ms")
        self._tx_started = registry.counter("transactions_started")
        self._tx_retries = registry.counter("transaction_retries")

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
        if self._tx_started is not None:
            self._tx_started.add()
        outcome = asyncio.get_running_loop().create_future()

        def complete(result: TransactionResult) -> None:
            # A cancelled caller's future is done before ``abandon`` runs
            # on the task's next step; a response arriving in between
            # still ends the transaction in the machine.
            if not outcome.done():
                outcome.set_result(result)

        transaction_id = self.machine.transact(
            manager, server_entity, payload, max(1, len(payload)),
            complete, priority,
        )
        try:
            result = await outcome
        except asyncio.CancelledError:
            self.machine.abandon(transaction_id)
            raise
        if self._tx_retries is not None and result.retries:
            self._tx_retries.add(result.retries)
        if result.ok and self._rtt_ms is not None:
            self._rtt_ms.add(result.rtt * 1e3)
        return result

    # -- the machine's IO ----------------------------------------------------

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

    def send(self, route: Any, pdu: VmtpPdu, wire_size: int, priority: int) -> None:
        self.host.send(route, encode_pdu(pdu), priority=priority)

    def send_return(
        self, delivered: LiveDelivered, pdu: VmtpPdu, wire_size: int
    ) -> None:
        self.host.send_return(
            delivered, encode_pdu(pdu), reply_socket=pdu.reply_socket,
        )

    #: ``io.join``: a group's payload, its members' bytes in order.
    join = b"".join

    def discard(self, reason: str) -> None:
        self.host.metrics.drop(reason)

    def record(self, event: str, **fields: Any) -> None:
        if self.host.recorder.enabled:
            self.host.recorder.record(event, node=self.host.name, **fields)

    # -- receive path ------------------------------------------------------

    def _on_delivered(self, delivered: LiveDelivered) -> None:
        """Check and decode one arrived PDU, in place, for the machine."""
        pdu = open_pdu(
            delivered.datagram, delivered.payload_start, delivered.payload_end,
        )
        if pdu.__class__ is VmtpPdu:
            self.machine.on_pdu(pdu, delivered, False, False, delivered.arrived_at)
        elif pdu == "checksum":
            self.machine.on_pdu(None, delivered, corrupted=True)
        else:
            self.host.metrics.drop(pdu)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveTransactor host={self.host.name!r} "
            f"socket={self.config.socket}>"
        )
