"""The live Sirpent host: send/receive over real UDP, plus transactions.

:class:`LiveHost` is the overlay's end system.  Sending frames a payload
for a source route and clocks the bytes out of a real socket; receiving
demultiplexes on the final header segment's port (§2.2's intra-host
addressing) and replies along the **return route in the live trailer**
— the Sirpent signature move, now over actual datagrams.

Both edges work on **byte spans** (ARCHITECTURE §14).  A route is
encoded by its source once and then only forwarded:
:meth:`LiveRoute.wire_header` memoises its header bytes and ``send``
frames ``preamble ++ header ++ payload``.  An arriving frame is
validated whole by :func:`~repro.live.frames.frame_spans` but decoded
not at all; :class:`LiveDelivered` hands up the payload slice and keeps
the datagram, so its ``packet`` and ``return_segments`` — the same
:func:`~repro.viper.packet.build_return_route` the simulator's host
uses — are built only if a handler asks.  ``send_return`` is the
paper's receiver, which "copies each segment into a separate return
address area in reverse order" (§2): a byte move from the trailer's
spans (:func:`~repro.live.frames.return_route_header`).  The structural
``encode_live_frame``/``decode_live_frame`` are the codec those are
fuzzed against, never a second path.

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
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from repro.live.frames import (
    Preamble,
    decode_live_frame,
    encode_route_header,
    frame_spans,
    frame_with_header,
    return_route_header,
)
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

    A route is encoded by its source once and from then on only
    forwarded: :meth:`wire_header` memoises the header bytes per
    (priority, DIB).  ``segments`` and ``alternates`` are **frozen to
    tuples at construction**, and the memo remembers which two tuples
    it was built from: a route whose ``segments`` or ``alternates`` has
    been rebound since is frozen again and encoded afresh, so no edit
    of the route can be served a stale header.  (A
    :class:`HeaderSegment` is a value here as everywhere in the stack:
    nothing mutates one in place.)
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

    def __post_init__(self) -> None:
        self.segments = tuple(self.segments)
        self.alternates = tuple(tuple(block) for block in self.alternates)
        #: What the memo was encoded from, and the memo.
        self._headers = (self.segments, self.alternates, {})

    def expected_rtt(self, payload_size: int = 0, reply_size: int = 0) -> float:
        """Advertised base RTT (payload sizes are second-order on loopback)."""
        return self.base_rtt_s

    def via(self) -> Tuple[int, ...]:
        """The sequence of VIPER out-ports — a route's identity."""
        return tuple(s.port for s in self.segments)

    def wire_header(self, priority: int = 0, dib: bool = False) -> Tuple[bytes, int]:
        """``(header bytes, segCount)`` of a frame sent along this route
        (:func:`~repro.live.frames.encode_route_header`), encoded on
        first use; an encoding error is raised on every call."""
        segments, alternates, headers = self._headers
        if segments is not self.segments or alternates is not self.alternates:
            self.__post_init__()
            segments, alternates, headers = self._headers
        header = headers.get((priority, dib))
        if header is None:
            header = headers[priority, dib] = encode_route_header(
                segments, alternates, priority, dib
            )
        return header


@dataclass
class LiveDelivered:
    """What the live host hands up on reception (cf. ``DeliveredPacket``).

    The frame was validated on byte spans; ``datagram`` is retained so
    the structural views — :attr:`packet`, :attr:`return_segments` —
    are decoded only if a handler asks (a transaction client never
    does), and a reply's route is written from ``trailer_spans``.
    """

    #: The whole arrived datagram and the endpoint's decode of its preamble.
    datagram: bytes
    preamble: Preamble
    payload: bytes
    socket: int
    arrived_at: float
    #: ``(start, end)`` of each trailer segment in ``datagram``, in
    #: return-route order (:func:`~repro.viper.packet.trailer_spans`).
    trailer_spans: List[Tuple[int, int]]
    #: Live port the frame arrived on (= first hop of the return route).
    arrival_port: int
    source: Address

    @property
    def trace_id(self) -> int:
        """The arrived frame's 64-bit trace id; 0 = untraced."""
        return self.preamble.trace_id

    @cached_property
    def packet(self) -> SirpentPacket:
        """The frame as the structural codec decodes it."""
        return decode_live_frame(self.datagram, self.preamble)[1]

    @cached_property
    def return_segments(self) -> List[HeaderSegment]:
        """Return route recovered from the live trailer, in send order."""
        return build_return_route(self.packet)


class _ReturnRoute:
    """The reversed trailer route of one delivered frame, in the shape
    :meth:`LiveHost.send` takes a route: its first hop and its header."""

    __slots__ = ("delivered", "reply_socket", "first_hop_port")

    def __init__(self, delivered: LiveDelivered, reply_socket: int) -> None:
        self.delivered = delivered
        self.reply_socket = reply_socket
        self.first_hop_port = delivered.arrival_port

    def wire_header(self, priority: int = 0, dib: bool = False) -> Tuple[bytes, int]:
        delivered = self.delivered
        return return_route_header(
            delivered.datagram, delivered.trailer_spans, self.reply_socket,
            priority, dib,
        )


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
        # ring-slot views.  A host is where packets leave the overlay, and
        # a handler may keep what it is handed, so each frame is copied
        # out of its slot once and the slot released before the frame is
        # even opened.
        self.endpoint.on_batch = self._on_batch
        self.reliable_hops = reliable_hops
        self.ports: Dict[int, Address] = {}
        self.addr_port: Dict[Address, int] = {}
        self.sockets: Dict[int, Callable[[LiveDelivered], None]] = {}
        #: Per-host id source, independent of every other host's.  ``send``
        #: frames bytes, not a ``SirpentPacket``, so it draws no id per
        #: frame; callers that build packets for this host still can.
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
        *before* acking it, so sending it would only burn the hop's
        retries and get a healthy neighbour declared dead.
        """
        header, seg_count = route.wire_header(priority, dib)
        wire_trace_id = 0
        if self.tracer.enabled:
            if trace_id is None:
                wire_trace_id = self.tracer.begin(self.name, time.monotonic())
            elif trace_id:
                wire_trace_id = trace_id
                self.tracer.event(
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
        self.endpoint.send(frame, peer, reliable=self.reliable_hops)
        return wire_trace_id

    def send_return(
        self,
        delivered: LiveDelivered,
        payload: bytes,
        reply_socket: int = LOCAL_PORT,
        priority: int = 0,
    ) -> int:
        """Send back along a delivered frame's reversed trailer route.

        The route is written from the trailer spans of the retained
        datagram (:func:`~repro.live.frames.return_route_header`) and
        the frame leaves through :meth:`send` like any other.
        """
        return self.send(
            _ReturnRoute(delivered, reply_socket), payload,
            priority=priority, trace_id=delivered.trace_id,
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
        """Deliver one frame; ``preamble`` is the endpoint's decode of it.

        The frame is opened by :func:`~repro.live.frames.frame_spans` —
        validated whole, decoded not at all: the handler gets the
        payload slice and a :class:`LiveDelivered` that decodes the rest
        on demand.
        """
        try:
            socket, payload_start, payload_end, trailer_spans = frame_spans(
                datagram, preamble
            )
        except ViperDecodeError:
            self.metrics.drop("undecodable")
            return
        trace_id = preamble.trace_id
        traced = trace_id and self.tracer.enabled
        if socket is None:
            self.metrics.drop("route_exhausted")
            if traced:
                self.tracer.drop(
                    trace_id, time.monotonic(), self.name, "route_exhausted",
                )
            if self.recorder.enabled:
                self.recorder.record(
                    "frame_dropped", node=self.name,
                    reason="route_exhausted",
                )
            return
        handler = self.sockets.get(socket)
        if handler is None:
            self.metrics.drop("no_socket")
            if traced:
                self.tracer.drop(
                    trace_id, time.monotonic(), self.name,
                    "no_socket", socket=socket,
                )
            if self.recorder.enabled:
                self.recorder.record(
                    "frame_dropped", node=self.name, reason="no_socket",
                )
            return
        self.metrics.delivered_local += 1
        if traced:
            self.tracer.deliver(
                trace_id, time.monotonic(), self.name, socket=socket,
            )
        if self.recorder.enabled:
            self.recorder.record(
                "frame_delivered", node=self.name, socket=socket,
            )
        handler(LiveDelivered(
            datagram=datagram,
            preamble=preamble,
            payload=datagram[payload_start:payload_end],
            socket=socket,
            arrived_at=time.monotonic(),
            trailer_spans=trailer_spans,
            arrival_port=self.addr_port.get(source, 0),
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


def _resolve(waiter: "asyncio.Future[bool]", value: bool) -> None:
    """Resolve a transaction attempt unless it already was."""
    if not waiter.done():
        waiter.set_result(value)


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
    #: The whole response group has arrived.
    complete: bool = False
    #: The attempt in progress: resolved True by the last response
    #: member, False by the attempt's timeout.
    waiter: Optional["asyncio.Future[bool]"] = None
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

    A PDU the transactor discards is counted on the host's metrics like
    any dropped frame: ``short_pdu``, ``unknown_pdu``, ``bad_group``,
    ``no_handler``, ``duplicate_member`` (a member already held) and
    ``stale_pdu`` (a response or STATUS for a transaction that is over —
    the replay a timeout asked for, overtaken by the original).
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
        tx = _ClientTx(txid=txid, sizes=sizes, payload=payload)
        self._client_txs[txid] = tx
        loop = asyncio.get_running_loop()
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
                # One future and one timer per attempt: the last response
                # member or the timeout resolves it, whichever is first.
                tx.waiter = loop.create_future()
                timer = loop.call_later(timeout, _resolve, tx.waiter, False)
                try:
                    await tx.waiter
                finally:
                    timer.cancel()
                if not tx.complete:
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
        if route is None or tx.complete:
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
            self.host.metrics.drop("duplicate_member")
            return
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
            self.host.metrics.drop("stale_pdu")
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
        if tx is None or tx.complete:
            # A replay that lost the race with the original: counted like
            # every frame a node discards, so a window that carried the
            # tail of an earlier timeout does not read as a clean one.
            self.host.metrics.drop("stale_pdu")
            return
        if not 1 <= count <= DeliveryMask.MAX_MEMBERS or member >= count:
            self.host.metrics.drop("bad_group")
            return
        if tx.mask is None:
            tx.mask = DeliveryMask(count)
        if tx.mask.has(member):
            self.host.metrics.drop("duplicate_member")
            return
        tx.mask.mark(member)
        tx.parts[member] = chunk
        if tx.mask.complete:
            tx.complete = True
            if tx.waiter is not None:
                _resolve(tx.waiter, True)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<LiveTransactor host={self.host.name!r} "
            f"socket={self.config.socket}>"
        )
