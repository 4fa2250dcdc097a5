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
validated whole by :func:`~repro.live.frames.frame_spans`' walk but
decoded not at all, and the host walks each distinct trailer once: it
keeps the trailers it received lately by their bytes, each with its
spans and the reply routes written from them.  :class:`LiveDelivered`
hands up the payload slice and keeps the datagram.  ``send_return`` is the
paper's receiver, which "copies each segment into a separate return
address area in reverse order" (§2): a byte move from the trailer's
spans (:func:`~repro.live.frames.return_route_header`), once per
trailer.  The structural ``decode_live_frame`` materialises the same
``frame_spans`` walk, and ``encode_live_frame`` is the codec the
encoders are fuzzed against, never a second path.

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
from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.live.frames import (
    PREAMBLE_BYTES,
    TRACE_ID_BYTES,
    Preamble,
    encode_route_header,
    frame_bounds,
    frame_with_header,
    framed_trailer,
    return_route_header,
)
from repro.live.link import (
    Address,
    BatchEntry,
    Impairments,
    LiveEndpoint,
    LivenessConfig,
)
from repro.live.metrics import EndpointMetrics
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACER
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
from repro.viper.errors import ViperDecodeError
from repro.viper.wire import HeaderSegment, LOCAL_PORT


#: Distinct trailers a :class:`LiveHost` remembers, each with its spans
#: and the reply headers written from them; past this many the oldest
#: is forgotten (counted in ``LiveHost.trailer_evictions``) and walked
#: again if it arrives again.  Small on purpose: every new flow adds an
#: entry, and entries that outlive a few collections make the cyclic
#: collector scan them (at 256, ``live_cold_flows`` spent a quarter more
#: time collecting; at 32, what the host spent without the memo).
TRAILER_MEMO_ENTRIES = 32


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

    The frame was validated on byte spans; ``datagram`` is retained and
    everything else is read from it only if asked: ``payload`` is
    sliced on first use (``payload_start``/``payload_end`` bound it —
    a transactor reads the PDU in place), and a reply's route comes
    from the host's memo of the frame's trailer (:meth:`return_route`).
    Nothing on the receive path decodes the frame into structures.
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
    #: The host's memo entry for the frame's trailer bytes.
    trailer: "_Trailer"
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

    def return_route(self, reply_socket: int) -> "_ReturnRoute":
        """The reversed trailer route to ``reply_socket``: one object for
        every frame that arrived with the same trailer bytes on the same
        port, kept for every later reply — a response group's members,
        a NAK, the next transaction's response."""
        return self.trailer.route(reply_socket, self.arrival_port)


class _Trailer:
    """One distinct trailer a host received, walked once
    (:func:`~repro.live.frames.framed_trailer`): its bytes, its spans
    relative to its first byte, and the reply routes written from them,
    by (reply socket, arrival port).

    Every object here holds bytes and spans, never a
    :class:`LiveDelivered`: the memo adds no reference cycle, so a
    delivered frame is freed by its last reference going, not by the
    cyclic collector.
    """

    __slots__ = ("wire", "spans", "routes")

    def __init__(self, wire: bytes, spans: List[Tuple[int, int]]) -> None:
        self.wire = wire
        self.spans = spans
        #: None until the first reply: a client replies to nothing.
        self.routes: Optional[Dict[Tuple[int, int], _ReturnRoute]] = None

    def route(self, reply_socket: int, arrival_port: int) -> "_ReturnRoute":
        """The reply route to ``reply_socket`` out of ``arrival_port``."""
        routes = self.routes
        if routes is None:
            routes = self.routes = {}
        route = routes.get((reply_socket, arrival_port))
        if route is None:
            route = routes[reply_socket, arrival_port] = _ReturnRoute(
                self.wire, self.spans, reply_socket, arrival_port,
            )
        return route


class _ReturnRoute:
    """A reversed trailer route, in the shape :meth:`LiveHost.send` takes
    a route: its first hop and its header, memoised per (priority, DIB).
    """

    __slots__ = ("trailer", "spans", "reply_socket", "first_hop_port", "_headers")

    def __init__(
        self, trailer: bytes, spans: List[Tuple[int, int]],
        reply_socket: int, first_hop_port: int,
    ) -> None:
        self.trailer = trailer
        self.spans = spans
        self.reply_socket = reply_socket
        self.first_hop_port = first_hop_port
        self._headers: Dict[Tuple[int, bool], Tuple[bytes, int]] = {}

    def wire_header(self, priority: int = 0, dib: bool = False) -> Tuple[bytes, int]:
        """:func:`~repro.live.frames.return_route_header`, once per
        (priority, DIB); an encoding error is raised on every call."""
        header = self._headers.get((priority, dib))
        if header is None:
            header = self._headers[priority, dib] = return_route_header(
                self.trailer, self.spans, self.reply_socket, priority, dib,
            )
        return header


class LiveHost:
    """An end system speaking VIPER over a real UDP socket.

    A frame it receives and hands to no socket is counted in
    ``metrics.drops`` under one reason: ``undecodable`` (the frame does
    not walk), ``unknown_peer`` (it came from an address no port is
    wired to, so it has no return hop), ``route_exhausted`` (its route
    ended before this host) or ``no_socket`` (nothing is bound to the
    socket it names).  A transactor counts the PDUs it discards there
    too (:class:`LiveTransactor`).
    """

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
        self.sockets: Dict[int, Callable[[LiveDelivered], None]] = {}
        #: Every distinct trailer received lately, by its bytes (at most
        #: :data:`TRAILER_MEMO_ENTRIES`, the oldest forgotten first), and
        #: how many were forgotten.
        self._trailers: "OrderedDict[bytes, _Trailer]" = OrderedDict()
        self.trailer_evictions = 0
        #: What :meth:`_open` knows of the frame it opened last: its
        #: kind, segment count, header bytes, socket and trailer.
        self._last: Tuple[int, int, bytes, Optional[int], _Trailer] = (
            -1, 0, b"", None, _Trailer(b"", []),
        )
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
        self.endpoint.send(frame, peer)
        return wire_trace_id

    def send_return(
        self,
        delivered: LiveDelivered,
        payload: bytes,
        reply_socket: int = LOCAL_PORT,
        priority: int = 0,
    ) -> int:
        """Send back along a delivered frame's reversed trailer route.

        The route is written from the memoised trailer's bytes and spans
        (:func:`~repro.live.frames.return_route_header`), once per
        trailer, reply socket, arrival port and priority
        (:meth:`LiveDelivered.return_route`), and the frame leaves
        through :meth:`send` like any other.
        """
        return self.send(
            delivered.return_route(reply_socket), payload,
            priority=priority, trace_id=delivered.preamble.trace_id,
        )

    # -- receiving ---------------------------------------------------------

    def _on_batch(self, batch: List[BatchEntry]) -> None:
        """Consume one endpoint wakeup's worth of ring-slot views.

        Each frame is copied out of its slot, which goes straight back
        to the ring, and opened by offsets — validated whole, decoded
        not at all: :func:`~repro.live.frames.frame_bounds` walks its
        header and the trailer after the payload is looked up by its
        bytes, walked (:func:`~repro.live.frames.framed_trailer`) only
        the first time they arrive.  The handler gets a
        :class:`LiveDelivered` of offsets into the datagram that slices
        and decodes the rest on demand.  A frame from an address no port
        is wired to has no return hop: it is dropped (``unknown_peer``)
        before it is copied, and the rest of the wakeup goes on.
        """
        arrived_at = time.monotonic()
        sockets, metrics, addr_port = self.sockets, self.metrics, self.addr_port
        for view, source, preamble in batch:
            slot = view.slot
            arrival_port = addr_port.get(source)
            if arrival_port is None:
                # No known arrival port, so no return hop: the router's
                # reason, and the frame goes before any handler sees it.
                slot.ring.release(slot)
                self._undelivered("unknown_peer", None, preamble.trace_id)
                continue
            datagram = slot.view[view.start:view.end].tobytes()
            slot.ring.release(slot)
            try:
                socket, payload_start, payload_end, trailer = self._open(
                    datagram, preamble
                )
            except ViperDecodeError:
                metrics.drop("undecodable")
                continue
            handler = sockets.get(socket)
            if handler is None:
                self._undelivered(
                    "route_exhausted" if socket is None else "no_socket",
                    socket, preamble.trace_id,
                )
                continue
            metrics.delivered_local += 1
            if self.tracer.enabled and preamble.trace_id:
                self.tracer.deliver(
                    preamble.trace_id, time.monotonic(), self.name, socket=socket,
                )
            handler(LiveDelivered(
                datagram, preamble, payload_start, payload_end, socket,
                arrived_at, trailer, arrival_port, source,
            ))

    def _open(
        self, datagram: bytes, preamble: Preamble
    ) -> Tuple[Optional[int], int, int, "_Trailer"]:
        """``(leading port, payload start, payload end, trailer)`` of a
        data frame — :func:`~repro.live.frames.frame_spans`' verdict,
        raising :class:`~repro.viper.errors.ViperDecodeError` where it
        raises, with the trailer as its memo entry.

        A frame of the kind and segment count of the frame opened last,
        carrying that frame's header and trailer bytes around exactly
        its declared payload, is that frame walked again: the walk reads
        nothing else.  Any other frame's
        header is walked (:func:`~repro.live.frames.frame_bounds`) and
        its trailer looked up by its bytes, walked
        (:func:`~repro.live.frames.framed_trailer`) only if the memo
        does not hold them; trailer bytes that do not frame are never
        memoised.
        """
        kind, seg_count, head, socket, trailer = self._last
        header_len = PREAMBLE_BYTES + TRACE_ID_BYTES if preamble.trace_id else PREAMBLE_BYTES
        start = header_len + len(head)
        end = start + preamble.payload_len
        wire = trailer.wire
        if (
            preamble.kind == kind and preamble.seg_count == seg_count
            and len(datagram) == end + len(wire)
            and datagram[end:] == wire and datagram[header_len:start] == head
        ):
            return socket, start, end, trailer
        socket, start, end = frame_bounds(datagram, preamble)
        wire = datagram[end:]
        trailers = self._trailers
        trailer = trailers.get(wire)
        if trailer is None:
            trailer = trailers[wire] = _Trailer(wire, framed_trailer(wire))
            if len(trailers) > TRAILER_MEMO_ENTRIES:
                trailers.popitem(last=False)
                self.trailer_evictions += 1
        self._last = (
            preamble.kind, preamble.seg_count, datagram[header_len:start],
            socket, trailer,
        )
        return socket, start, end, trailer

    def _undelivered(
        self, reason: str, socket: Optional[int], trace_id: int
    ) -> None:
        """Count (and trace, and record) a frame no socket takes under
        ``reason``: it came from no wired peer (``unknown_peer``), its
        route ended before this host (``route_exhausted``) or it names a
        socket nothing is bound to (``no_socket``)."""
        self.metrics.drop(reason)
        if trace_id and self.tracer.enabled:
            if socket is None:
                self.tracer.drop(trace_id, time.monotonic(), self.name, reason)
            else:
                self.tracer.drop(
                    trace_id, time.monotonic(), self.name, reason, socket=socket,
                )
        if self.recorder.enabled:
            self.recorder.record("frame_dropped", node=self.name, reason=reason)


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
