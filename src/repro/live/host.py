"""The live Sirpent host: send/receive over real UDP, plus transactions.

:class:`LiveHost` is the overlay's end system.  Sending builds a VIPER
frame for a source route and clocks the bytes out of a real socket;
receiving demultiplexes on the final header segment's port (§2.2's
intra-host addressing) and reconstructs the **return route from the
live trailer** with the same
:func:`~repro.viper.packet.build_return_route` the simulator's host
uses — the Sirpent signature move, now over actual datagrams.

:class:`LiveTransactor` layers VMTP-style request/response transactions
on top, reusing the sim transport's packet-group machinery
(:func:`~repro.transport.flowcontrol.split_into_group`,
:class:`~repro.transport.flowcontrol.DeliveryMask`) and the client-side
route rebinding of :class:`~repro.transport.rebind.RouteManager` — a
timed-out route is reported failed and the next transaction attempt
rides the cached alternate, which is how a killed mid-path router is
survived end to end.
"""

from __future__ import annotations

import asyncio
import itertools
import struct
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.live.frames import Preamble, decode_live_frame, encode_live_frame
from repro.live.link import (
    Address,
    BatchEntry,
    Impairments,
    LiveEndpoint,
    ReliabilityConfig,
)
from repro.live.metrics import EndpointMetrics
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACER
from repro.sim.ids import PacketIdAllocator
from repro.transport.flowcontrol import DeliveryMask, split_into_group
from repro.transport.rebind import RouteManager
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import SirpentPacket, build_return_route
from repro.viper.wire import HeaderSegment, LOCAL_PORT


class WallClock:
    """Adapter giving :class:`~repro.transport.rebind.RouteManager` a
    ``.now`` in real seconds (the sim passes its virtual clock here)."""

    @property
    def now(self) -> float:
        """Monotonic wall-clock seconds."""
        return time.monotonic()


@dataclass
class LiveRoute:
    """A source route usable by a live host.

    ``segments`` covers every router hop plus the destination host's
    final (socket) segment; ``first_hop_port`` names which of the
    client's live ports carries the first physical hop.  ``base_rtt_s``
    is the advertised round-trip estimate the rebinding logic compares
    measurements against (§3's "the client can determine the roundtrip
    time ... rather than discovering these parameters over time").
    """

    destination: str
    segments: List[HeaderSegment]
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
    alternates: List[List[HeaderSegment]] = field(default_factory=list)

    def expected_rtt(self, payload_size: int = 0, reply_size: int = 0) -> float:
        """Advertised base RTT (payload sizes are second-order on loopback)."""
        return self.base_rtt_s

    def via(self) -> Tuple[int, ...]:
        """The sequence of VIPER out-ports — a route's identity."""
        return tuple(s.port for s in self.segments)


@dataclass
class LiveDelivered:
    """What the live host hands up on reception (cf. ``DeliveredPacket``)."""

    packet: SirpentPacket
    payload: bytes
    socket: int
    arrived_at: float
    #: Return route recovered from the live trailer, in send order.
    return_segments: List[HeaderSegment]
    #: Live port the frame arrived on (= first hop of the return route).
    arrival_port: int
    source: Address


class LiveHost:
    """An end system speaking VIPER over a real UDP socket."""

    def __init__(
        self,
        name: str,
        impairments: Optional[Impairments] = None,
        reliability: Optional[ReliabilityConfig] = None,
        reliable_hops: bool = True,
    ) -> None:
        self.name = name
        self.metrics = EndpointMetrics(name)
        self.endpoint = LiveEndpoint(
            name, metrics=self.metrics,
            impairments=impairments, reliability=reliability,
        )
        # One wakeup, many frames: the endpoint hands whole batches of
        # ring-slot views.  A host is where packets leave the overlay —
        # reception decodes the full frame into a SirpentPacket anyway —
        # so each view is materialised once and its slot released straight
        # away (before any handler runs).
        self.endpoint.on_batch = self._on_batch
        self.reliable_hops = reliable_hops
        self.ports: Dict[int, Address] = {}
        self.addr_port: Dict[Address, int] = {}
        self.sockets: Dict[int, Callable[[LiveDelivered], None]] = {}
        #: Seed-stable id source for the packets this host frames.
        self.packet_ids = PacketIdAllocator()
        #: Hop tracer (repro.obs); NULL_TRACER = tracing disabled.
        #: Timestamps are ``time.monotonic()`` seconds.
        self.tracer = NULL_TRACER
        #: Flight recorder (repro.obs); NULL_RECORDER = not recording.
        self.recorder = NULL_RECORDER

    # -- lifecycle ---------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Bind the host's socket; returns its address."""
        return await self.endpoint.open(host, port)

    def stop(self) -> None:
        """Close the socket."""
        self.endpoint.close()

    def set_tracer(self, tracer) -> None:
        """Install a :class:`repro.obs.trace.Tracer` on this host."""
        self.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install a :class:`repro.obs.recorder.FlightRecorder`."""
        self.recorder = recorder

    def connect_port(self, port_id: int, peer: Address) -> None:
        """Map live ``port_id`` to the UDP address of the adjacent node."""
        self.ports[port_id] = peer
        self.addr_port[peer] = port_id

    @property
    def address(self) -> Optional[Address]:
        """The host's bound UDP address (None before :meth:`start`)."""
        return self.endpoint.address

    # -- sockets -----------------------------------------------------------

    def bind(self, socket: int, handler: Callable[[LiveDelivered], None]) -> None:
        """Register a receive handler for an intra-host port (§2.2)."""
        if not 0 <= socket <= 255:
            raise ValueError(f"socket {socket} outside 0..255")
        if socket in self.sockets:
            raise ValueError(f"{self.name}: socket {socket} already bound")
        self.sockets[socket] = handler

    def unbind(self, socket: int) -> None:
        """Remove a socket binding (idempotent)."""
        self.sockets.pop(socket, None)

    # -- sending -----------------------------------------------------------

    def send(
        self,
        route: LiveRoute,
        payload: bytes,
        priority: int = 0,
        dib: bool = False,
        trace_id: Optional[int] = None,
    ) -> SirpentPacket:
        """Frame ``payload`` for ``route`` and transmit it.

        ``trace_id``: None asks the installed tracer to (maybe) sample
        this frame — the id then rides the wire in the traced-frame
        preamble option; a non-zero value continues an existing trace
        (the reply path); 0 forces "untraced".

        Raises :class:`ValueError` for a frame larger than a ring slot:
        every receiving endpoint drops such a datagram as ``oversize``
        *before* acking it, so sending it would only burn the hop's
        retries and get a healthy neighbour declared dead.
        """
        # The packet shares the route's segment objects wherever they
        # already carry this send's priority/DIB (every segment of a
        # default-priority send or reply): nothing downstream mutates a
        # segment, and a copy re-validates it field by field.
        segments = [
            s if s.priority == priority and s.dib == dib
            else s.copy(priority=priority, dib=dib)
            for s in route.segments
        ]
        alternates = [
            [s if s.priority == priority else s.copy(priority=priority)
             for s in block]
            for block in getattr(route, "alternates", [])
        ]
        packet = SirpentPacket(
            segments=segments,
            payload_size=len(payload),
            payload=payload,
            packet_id=self.packet_ids.allocate(),
            created_at=time.monotonic(),
            source=self.name,
            alternates=alternates,
        )
        if self.tracer.enabled:
            if trace_id is None:
                packet.trace_id = self.tracer.begin(self.name, time.monotonic())
            elif trace_id:
                packet.trace_id = trace_id
                self.tracer.event(
                    trace_id, time.monotonic(), self.name, "send_return",
                )
        peer = self.ports.get(route.first_hop_port)
        if peer is None:
            raise KeyError(
                f"{self.name}: no live attachment on port {route.first_hop_port}"
            )
        frame = encode_live_frame(packet, payload)
        if len(frame) > self.endpoint.ring.slot_bytes:
            raise ValueError(
                f"frame of {len(frame)} bytes exceeds the overlay's "
                f"{self.endpoint.ring.slot_bytes}-byte slot"
            )
        self.endpoint.send(frame, peer, reliable=self.reliable_hops)
        return packet

    def send_return(
        self,
        delivered: LiveDelivered,
        payload: bytes,
        reply_socket: int = LOCAL_PORT,
        priority: int = 0,
    ) -> SirpentPacket:
        """Send back along a delivered frame's reversed trailer route."""
        # ``send`` stamps the priority on every segment it frames.
        segments = [
            *delivered.return_segments,
            HeaderSegment(port=reply_socket, priority=priority, rpf=True),
        ]
        route = LiveRoute(
            destination="(return)",
            segments=segments,
            first_hop_port=delivered.arrival_port,
        )
        return self.send(
            route, payload, priority=priority,
            trace_id=delivered.packet.trace_id,
        )

    # -- receiving ---------------------------------------------------------

    def _on_batch(self, batch: List[BatchEntry]) -> None:
        """Consume one endpoint wakeup's worth of ring-slot views."""
        for view, source, preamble in batch:
            datagram = view.tobytes()
            view.release()
            self._on_frame(datagram, source, preamble)

    def _on_frame(
        self, datagram: bytes, source: Address, preamble: Preamble,
    ) -> None:
        """Deliver one frame; ``preamble`` is the endpoint's decode of it."""
        try:
            _preamble, packet, payload = decode_live_frame(
                datagram, preamble
            )
        except ViperDecodeError:
            self.metrics.drop("undecodable")
            return
        traced = packet.trace_id and self.tracer.enabled
        if not packet.segments:
            self.metrics.drop("route_exhausted")
            if traced:
                self.tracer.drop(
                    packet.trace_id, time.monotonic(), self.name,
                    "route_exhausted",
                )
            if self.recorder.enabled:
                self.recorder.record(
                    "frame_dropped", node=self.name,
                    reason="route_exhausted",
                )
            return
        socket = packet.segments[0].port
        handler = self.sockets.get(socket)
        if handler is None:
            self.metrics.drop("no_socket")
            if traced:
                self.tracer.drop(
                    packet.trace_id, time.monotonic(), self.name,
                    "no_socket", socket=socket,
                )
            if self.recorder.enabled:
                self.recorder.record(
                    "frame_dropped", node=self.name, reason="no_socket",
                )
            return
        arrival_port = self.addr_port.get(source, 0)
        self.metrics.delivered_local += 1
        if traced:
            self.tracer.deliver(
                packet.trace_id, time.monotonic(), self.name,
                socket=socket,
            )
        if self.recorder.enabled:
            self.recorder.record(
                "frame_delivered", node=self.name, socket=socket,
            )
        handler(LiveDelivered(
            packet=packet,
            payload=payload,
            socket=socket,
            arrived_at=time.monotonic(),
            return_segments=build_return_route(packet),
            arrival_port=arrival_port,
            source=source,
        ))


# -- VMTP-style transactions over the live overlay ---------------------------


#: Transport header carried at the front of every member's payload:
#: kind(1) reserved(1) client(4) txid(4) member(1) count(1) reply_socket(1)
#: reserved(1) — 14 bytes, VMTP-shaped (ids, group bookkeeping).
_TX_HEADER = struct.Struct(">BBIIBBBB")

_KIND_REQUEST = 0
_KIND_RESPONSE = 1
#: Client retransmission probe: "here is the response mask I hold".
_KIND_PROBE = 2
#: Server assembly status: "here is the request mask I hold".
_KIND_STATUS = 3

#: 32-bit delivery bitmask rider carried by PROBE and STATUS PDUs.
_MASK = struct.Struct(">I")

_client_ids = itertools.count(1)


@dataclass
class LiveTransactionResult:
    """Outcome of one live request/response transaction."""

    ok: bool
    rtt: float = 0.0
    retries: int = 0
    route_switches: int = 0
    payload: bytes = b""
    error: str = ""
    #: Retransmission probes sent (selective retransmission, §4).
    probes: int = 0
    #: Individual request members re-sent after STATUS feedback.
    members_resent: int = 0


@dataclass
class _ClientTx:
    txid: int
    sizes: List[int]
    payload: bytes
    mask: Optional[DeliveryMask] = None
    parts: Dict[int, bytes] = field(default_factory=dict)
    done: Optional[asyncio.Event] = None
    retries: int = 0
    retries_this_route: int = 0
    route_switches: int = 0
    probes: int = 0
    members_resent: int = 0
    #: Route/priority the timeout loop last used — the STATUS handler
    #: resends missing members along this without re-entering the loop.
    route: Optional[LiveRoute] = None
    priority: int = 0


@dataclass
class _ServerAssembly:
    mask: DeliveryMask
    parts: Dict[int, bytes] = field(default_factory=dict)
    reply_socket: int = 0
    delivered: Optional[LiveDelivered] = None


@dataclass
class TransactorConfig:
    """Sizing and retry policy for :class:`LiveTransactor`."""

    socket: int = 1
    max_member_payload: int = 1024
    base_timeout_s: float = 0.05
    retries_per_route: int = 2
    max_total_retries: int = 8
    response_cache_size: int = 512


class LiveTransactor:
    """Request/response transactions with packet groups and rebinding.

    One instance per host serves both roles: ``serve`` registers a
    request handler (the server side), ``transact`` issues requests
    along a :class:`~repro.transport.rebind.RouteManager`'s current
    route and returns the reassembled response (the client side).
    Responses travel the **reversed trailer route** of the request —
    the server never queries the directory.
    """

    def __init__(
        self, host: LiveHost, config: Optional[TransactorConfig] = None
    ) -> None:
        self.host = host
        self.config = config if config is not None else TransactorConfig()
        self.client_id = next(_client_ids)
        self.handler: Optional[Callable[[bytes], bytes]] = None
        self._txids = itertools.count(1)
        self._client_txs: Dict[int, _ClientTx] = {}
        self._assemblies: Dict[Tuple[int, int], _ServerAssembly] = {}
        self._response_cache: "OrderedDict[Tuple[int, int], Tuple[List[bytes], int]]" = (
            OrderedDict()
        )
        #: SLO feed (attach_registry): transaction RTTs + retry budget.
        self._rtt_ms = None
        self._tx_started = None
        self._tx_retries = None
        host.bind(self.config.socket, self._on_delivered)

    def serve(self, handler: Callable[[bytes], bytes]) -> None:
        """Install the request handler: ``payload -> response payload``."""
        self.handler = handler

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
    ) -> LiveTransactionResult:
        """Issue one transaction; rebinds routes on repeated timeouts.

        Retransmission is *selective* (§4): a timeout sends one small
        PROBE carrying the client's response mask rather than blindly
        replaying the whole request group.  The server answers either
        with the response members the client is missing (transaction
        already processed) or a STATUS naming which request members it
        holds — and only the gap is re-sent.
        """
        txid = next(self._txids) & 0xFFFFFFFF
        sizes = split_into_group(
            max(1, len(payload)), self.config.max_member_payload
        )
        tx = _ClientTx(
            txid=txid, sizes=sizes, payload=payload,
            done=asyncio.Event(),
        )
        self._client_txs[txid] = tx
        started = time.monotonic()
        if self._tx_started is not None:
            self._tx_started.add()
        try:
            first_send = True
            while True:
                route = manager.current()
                tx.route = route
                tx.priority = priority
                if first_send:
                    self._send_request_group(tx, route, priority)
                    first_send = False
                else:
                    self._send_probe(tx, route, priority)
                timeout = max(
                    self.config.base_timeout_s, 4.0 * route.expected_rtt()
                )
                try:
                    await asyncio.wait_for(tx.done.wait(), timeout)
                except asyncio.TimeoutError:
                    tx.retries += 1
                    tx.retries_this_route += 1
                    if self._tx_retries is not None:
                        self._tx_retries.add()
                    if self.host.recorder.enabled:
                        self.host.recorder.record(
                            "transaction_retry", node=self.host.name,
                            txid=txid, attempt=tx.retries,
                        )
                    if tx.retries > self.config.max_total_retries:
                        return LiveTransactionResult(
                            ok=False, retries=tx.retries,
                            route_switches=tx.route_switches,
                            error="retries exhausted",
                            probes=tx.probes,
                            members_resent=tx.members_resent,
                        )
                    if tx.retries_this_route > self.config.retries_per_route:
                        manager.report_failure()
                        tx.route_switches += 1
                        tx.retries_this_route = 0
                        if self.host.recorder.enabled:
                            self.host.recorder.record(
                                "route_switched", node=self.host.name,
                                txid=txid, switches=tx.route_switches,
                            )
                    continue
                rtt = time.monotonic() - started
                manager.report_rtt(rtt, payload_size=max(1, len(payload)))
                if self._rtt_ms is not None:
                    self._rtt_ms.add(rtt * 1e3)
                return LiveTransactionResult(
                    ok=True, rtt=rtt, retries=tx.retries,
                    route_switches=tx.route_switches,
                    payload=b"".join(
                        tx.parts[i] for i in sorted(tx.parts)
                    ),
                    probes=tx.probes,
                    members_resent=tx.members_resent,
                )
        finally:
            self._client_txs.pop(txid, None)

    def _send_request_group(
        self, tx: _ClientTx, route: LiveRoute, priority: int
    ) -> None:
        offset = 0
        for index, size in enumerate(tx.sizes):
            chunk = tx.payload[offset:offset + size]
            offset += size
            header = _TX_HEADER.pack(
                _KIND_REQUEST, 0, self.client_id, tx.txid,
                index, len(tx.sizes), self.config.socket, 0,
            )
            self.host.send(route, header + chunk, priority=priority)

    def _send_probe(
        self, tx: _ClientTx, route: LiveRoute, priority: int
    ) -> None:
        """One PROBE PDU: "this is the response mask I already hold"."""
        tx.probes += 1
        bits = tx.mask.bits if tx.mask is not None else 0
        count = tx.mask.count if tx.mask is not None else 0
        header = _TX_HEADER.pack(
            _KIND_PROBE, 0, self.client_id, tx.txid,
            0, count, self.config.socket, 0,
        )
        self.host.send(route, header + _MASK.pack(bits), priority=priority)

    def _resend_missing(self, tx: _ClientTx, server_bits: int) -> None:
        """Re-send only the request members a STATUS says are missing."""
        route = tx.route
        if route is None or tx.done is None or tx.done.is_set():
            return
        offset = 0
        for index, size in enumerate(tx.sizes):
            chunk = tx.payload[offset:offset + size]
            offset += size
            if (server_bits >> index) & 1:
                continue  # the server already holds this member
            tx.members_resent += 1
            header = _TX_HEADER.pack(
                _KIND_REQUEST, 0, self.client_id, tx.txid,
                index, len(tx.sizes), self.config.socket, 0,
            )
            self.host.send(route, header + chunk, priority=tx.priority)

    # -- receive path ------------------------------------------------------

    def _on_delivered(self, delivered: LiveDelivered) -> None:
        data = delivered.payload
        if len(data) < _TX_HEADER.size:
            self.host.metrics.drop("short_pdu")
            return
        kind, _f, client, txid, member, count, reply_socket, _r = (
            _TX_HEADER.unpack_from(data)
        )
        chunk = data[_TX_HEADER.size:]
        if kind == _KIND_REQUEST:
            self._on_request(
                client, txid, member, count, reply_socket, chunk, delivered
            )
        elif kind == _KIND_RESPONSE:
            self._on_response(txid, member, count, chunk)
        elif kind == _KIND_PROBE:
            self._on_probe(client, txid, reply_socket, chunk, delivered)
        elif kind == _KIND_STATUS:
            self._on_status(txid, chunk)
        else:
            self.host.metrics.drop("unknown_pdu")

    def _on_request(
        self,
        client: int,
        txid: int,
        member: int,
        count: int,
        reply_socket: int,
        chunk: bytes,
        delivered: LiveDelivered,
    ) -> None:
        key = (client, txid)
        cached = self._response_cache.get(key)
        if cached is not None:
            # Duplicate of an answered transaction: replay the response
            # along the *fresh* return route (cheap server-side dedup).
            chunks, cached_socket = cached
            self._send_response_group(
                txid, chunks, cached_socket, delivered
            )
            return
        if not 1 <= count <= DeliveryMask.MAX_MEMBERS or member >= count:
            self.host.metrics.drop("bad_group")
            return
        assembly = self._assemblies.get(key)
        if assembly is None:
            assembly = _ServerAssembly(mask=DeliveryMask(count))
            self._assemblies[key] = assembly
        if assembly.mask.has(member):
            return  # duplicate member
        assembly.mask.mark(member)
        assembly.parts[member] = chunk
        assembly.reply_socket = reply_socket
        assembly.delivered = delivered
        if not assembly.mask.complete:
            return
        del self._assemblies[key]
        if self.handler is None:
            self.host.metrics.drop("no_handler")
            return
        request = b"".join(assembly.parts[i] for i in sorted(assembly.parts))
        response = self.handler(request)
        sizes = split_into_group(
            max(1, len(response)), self.config.max_member_payload
        )
        chunks = []
        offset = 0
        for index, size in enumerate(sizes):
            header = _TX_HEADER.pack(
                _KIND_RESPONSE, 0, client, txid,
                index, len(sizes), reply_socket, 0,
            )
            chunks.append(header + response[offset:offset + size])
            offset += size
        self._response_cache[key] = (chunks, reply_socket)
        while len(self._response_cache) > self.config.response_cache_size:
            self._response_cache.popitem(last=False)
        self._send_response_group(txid, chunks, reply_socket, delivered)

    def _on_probe(
        self,
        client: int,
        txid: int,
        reply_socket: int,
        chunk: bytes,
        delivered: LiveDelivered,
    ) -> None:
        """Server side of selective retransmission (§4).

        Already answered: replay only the response members missing from
        the client's mask.  Mid-assembly (or never heard of): send a
        STATUS carrying the assembly mask so the client re-sends only
        the request members that never arrived.
        """
        key = (client, txid)
        have = _MASK.unpack_from(chunk)[0] if len(chunk) >= _MASK.size else 0
        cached = self._response_cache.get(key)
        if cached is not None:
            chunks, cached_socket = cached
            missing = [
                c for i, c in enumerate(chunks) if not (have >> i) & 1
            ]
            self._send_response_group(
                txid, missing, cached_socket, delivered
            )
            return
        assembly = self._assemblies.get(key)
        bits = assembly.mask.bits if assembly is not None else 0
        count = assembly.mask.count if assembly is not None else 0
        header = _TX_HEADER.pack(
            _KIND_STATUS, 0, client, txid, 0, count, reply_socket, 0,
        )
        self.host.send_return(
            delivered, header + _MASK.pack(bits), reply_socket=reply_socket,
        )

    def _on_status(self, txid: int, chunk: bytes) -> None:
        """Client side: a STATUS names what the server holds — fill
        exactly the gap, immediately, without waiting for the timeout
        loop to come around again."""
        tx = self._client_txs.get(txid)
        if tx is None or len(chunk) < _MASK.size:
            return
        self._resend_missing(tx, _MASK.unpack_from(chunk)[0])

    def _send_response_group(
        self,
        txid: int,
        chunks: List[bytes],
        reply_socket: int,
        delivered: LiveDelivered,
    ) -> None:
        for chunk in chunks:
            self.host.send_return(delivered, chunk, reply_socket=reply_socket)

    def _on_response(
        self, txid: int, member: int, count: int, chunk: bytes
    ) -> None:
        tx = self._client_txs.get(txid)
        if tx is None or tx.done is None or tx.done.is_set():
            return
        if not 1 <= count <= DeliveryMask.MAX_MEMBERS or member >= count:
            self.host.metrics.drop("bad_group")
            return
        if tx.mask is None:
            tx.mask = DeliveryMask(count)
        if tx.mask.has(member):
            return
        tx.mask.mark(member)
        tx.parts[member] = chunk
        if tx.mask.complete:
            tx.done.set()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveTransactor host={self.host.name!r} "
            f"socket={self.config.socket}>"
        )
