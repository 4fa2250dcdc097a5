"""One Sirpent host edge, sans IO: open, demultiplex and answer a frame.

§2.2 addresses "the port within a host to which to address the packet"
with the final header segment, and §2 has the receiver "copy each
segment into a separate return address area in reverse order" to
answer.  :class:`HostCore` does that job once for the simulator's
:class:`~repro.core.host.SirpentHost` and the live
:class:`~repro.live.host.LiveHost` alike (ARCHITECTURE §4).  It owns
the socket table; the one frame open, which walks a header or a
trailer only the first time its bytes arrive; the one delivered type,
:class:`Delivered`; the one reply route, :meth:`Trailer.route` →
:class:`ReturnRoute`; and one drop vocabulary, counted, traced and
recorded through the router core's sink.  A source's route is encoded
once as well: :class:`SourceRoute`, the header memo of the directory's
``Route``, the one route a source holds on either substrate.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from operator import attrgetter
from typing import Any, Callable, Dict, Optional, Tuple

from repro.dataplane.effects import Action, Decision, apply_drop
from repro.dataplane.router import RouterSink
from repro.live.frames import (
    PREAMBLE_BYTES,
    TRACE_ID_BYTES,
    Preamble,
    encode_route_header,
    frame_bounds,
    framed_trailer,
    return_route_header,
    truncation_marked,
)
from repro.net.addresses import MacAddress
from repro.viper.errors import ViperDecodeError
from repro.viper.wire import ALT_COUNT_BYTES

#: Distinct trailers a host remembers; past this many the oldest is
#: forgotten (counted) and walked again if it arrives again.  Small on
#: purpose: at 256, ``live_cold_flows`` spent a quarter more time in the
#: cyclic collector.
TRAILER_MEMO_ENTRIES = 32

#: Distinct headers a host remembers: one per way it is addressed (a
#: request's socket, a reply's with RPF set, a priority).
HEADER_MEMO_ENTRIES = 4


#: A segment's encoded length, read in C: a route is measured once.
_WIRE_BYTES = attrgetter("wire_bytes")


class SourceRoute:
    """The header memo of the directory's
    :class:`~repro.directory.routes.Route`: ``segments`` and
    ``alternates`` frozen to tuples at construction, the header's length
    (the route model's per-packet overhead) and the header itself,
    encoded once per (priority, DIB).  The memo remembers which two
    tuples it was built from, so a route rebound since is frozen again
    and measured and encoded afresh, never served stale."""

    def _freeze(self) -> None:
        segments = self.segments = tuple(self.segments)
        alternates = self.alternates = tuple(map(tuple, self.alternates))
        # The stacked segments and the Slick-Packets blocks (a count byte
        # and segments each): the encoded header's length.
        overhead = sum(map(_WIRE_BYTES, segments))
        for block in alternates:
            overhead += ALT_COUNT_BYTES + sum(map(_WIRE_BYTES, block))
        #: What the memo was built from, the headers, the header length.
        self._headers = (segments, alternates, {}, overhead)

    __post_init__ = _freeze

    def header_overhead(self) -> int:
        """Wire bytes a frame carries ahead of its payload: the header's
        length, without encoding it."""
        segments, alternates, _, overhead = self._headers
        if segments is not self.segments or alternates is not self.alternates:
            self._freeze()
            overhead = self._headers[3]
        return overhead

    def wire_header(self, priority: int = 0, dib: bool = False) -> Tuple[bytes, int]:
        """``(header bytes, segCount)`` along this route
        (:func:`~repro.live.frames.encode_route_header`); an error is
        raised on every call."""
        segments, alternates, headers, _ = self._headers
        if segments is not self.segments or alternates is not self.alternates:
            self._freeze()
            segments, alternates, headers, _ = self._headers
        header = headers.get((priority, dib))
        if header is None:
            header = headers[priority, dib] = encode_route_header(
                segments, alternates, priority, dib
            )
        return header


class ReturnRoute:
    """A reversed trailer route as a host's ``send`` takes a route: its
    first hop (port, and the MAC on an Ethernet arrival, else None) and
    its header, memoised per (priority, DIB)."""

    __slots__ = (
        "trailer", "spans", "reply_socket", "first_hop_port", "first_hop_mac",
        "_headers",
    )

    def __init__(
        self, trailer: bytes, spans, reply_socket: int, first_hop_port: int,
        first_hop_mac: Optional[MacAddress],
    ) -> None:
        self.trailer = trailer
        self.spans = spans
        self.reply_socket = reply_socket
        self.first_hop_port = first_hop_port
        self.first_hop_mac = first_hop_mac
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


class Trailer:
    """One distinct trailer a host received, walked once
    (:func:`~repro.live.frames.framed_trailer`, raising for bytes that
    do not frame): its bytes, its spans from its first byte, whether it
    carries §2's truncation mark, and the reply routes written from it.
    It holds bytes and spans, never a delivered frame, so the memo adds
    no reference cycle."""

    __slots__ = ("wire", "spans", "truncated", "routes")

    def __init__(self, wire: bytes) -> None:
        self.wire = wire
        self.spans = framed_trailer(wire)
        self.truncated = truncation_marked(len(wire), 0, self.spans)
        self.routes: Dict[Tuple[int, int, Any], ReturnRoute] = {}

    def route(
        self, reply_socket: int, arrival_port: int,
        first_hop_mac: Optional[MacAddress] = None,
    ) -> ReturnRoute:
        """The reply route to ``reply_socket`` out of ``arrival_port``."""
        key = (reply_socket, arrival_port, first_hop_mac)
        route = self.routes.get(key)
        if route is None:
            route = self.routes[key] = ReturnRoute(
                self.wire, self.spans, reply_socket, arrival_port, first_hop_mac,
            )
        return route


class Delivered:
    """What a host hands a socket's handler: offsets into the arrived
    frame's bytes, nothing decoded (a transport reads its PDU in place;
    :attr:`payload` slices on demand), and what a reply needs — the
    host core's memo entry for the frame's trailer, the arrival port
    and, on a simulated Ethernet, the sender's MAC.  ``packet`` is the
    simulator's :class:`~repro.core.packet.FramePacket`, for the
    metadata it carries off the wire (hop log, creation time); None on
    the live overlay."""

    __slots__ = (
        "frame", "payload_start", "payload_end", "socket", "trailer",
        "arrival_port", "first_hop_mac", "arrived_at", "trace_id", "packet",
    )

    def __init__(
        self, frame: bytes, payload_start: int, payload_end: int,
        socket: int, trailer: Trailer, arrival_port: int,
        first_hop_mac: Optional[MacAddress], arrived_at: float,
        trace_id: int, packet: Any = None,
    ) -> None:
        self.frame = frame
        self.payload_start = payload_start
        self.payload_end = payload_end
        self.socket = socket
        self.trailer = trailer
        #: The host port it came in on: the reply's first hop.
        self.arrival_port = arrival_port
        self.first_hop_mac = first_hop_mac
        #: When the host took it, on the host's clock (a live wakeup's
        #: start, the simulated instant).
        self.arrived_at = arrived_at
        #: The frame's 64-bit trace id; 0 = untraced.
        self.trace_id = trace_id
        self.packet = packet

    @property
    def payload(self) -> bytes:
        """The frame's payload bytes."""
        return self.frame[self.payload_start:self.payload_end]

    def return_route(self, reply_socket: int) -> ReturnRoute:
        """The reversed trailer route to ``reply_socket``: one object per
        trailer bytes, port and MAC, kept for every later reply."""
        return self.trailer.route(
            reply_socket, self.arrival_port, self.first_hop_mac,
        )


#: :meth:`HostCore.open`'s answer for a frame dropped before any socket.
_DROPPED = (None, None, 0, 0, None)
#: The trailer of the frame a host opened before its first.
_NO_TRAILER = Trailer(b"")


class HostCore:
    """One Sirpent host's receive edge, with no IO: frames in
    (:meth:`open`), handlers and offsets out, every drop through
    :attr:`sink` over the adapter's ``counters`` (which answer
    ``drop(reason)``) and ``clock``."""

    def __init__(
        self, name: str, counters: Any, clock: Callable[[], float],
    ) -> None:
        self.name = name
        self.sink = RouterSink(name, counters, clock)
        #: Drop reason -> frames dropped, the same on both substrates.
        self.drops = self.sink.drops
        self.sockets: Dict[int, Callable[[Any], None]] = {}
        #: Trailers by their bytes, the oldest first, and how many went.
        self.trailers: "OrderedDict[bytes, Trailer]" = OrderedDict()
        self.trailer_evictions = 0
        #: Headers walked lately, newest first: (kind, segment count,
        #: bytes, socket).
        self.headers: "deque[Tuple[int, int, bytes, Optional[int]]]" = deque(
            maxlen=HEADER_MEMO_ENTRIES
        )
        #: The frame opened last: its header as above (the kind of none
        #: at first), and its trailer.
        self._last = (-1, 0, b"", None, _NO_TRAILER)

    def bind(self, socket: int, handler: Callable[[Any], None]) -> None:
        """Register a receive handler for an intra-host port (§2.2)."""
        if not 0 <= socket <= 255:
            raise ValueError(f"socket {socket} outside 0..255")
        if socket in self.sockets:
            raise ValueError(f"{self.name}: socket {socket} already bound")
        self.sockets[socket] = handler

    def open(  # sirlint: hot
        self, frame, preamble: Preamble, traced: int,
    ) -> Tuple[Optional[Callable[[Any], None]], Optional[int], int, int, Optional[Trailer]]:
        """``(handler, socket, payload start, payload end, trailer)`` of
        a data frame (a live datagram or a simulated frame's view):
        :func:`~repro.live.frames.frame_spans`' verdict, demultiplexed.
        A frame refused (``undecodable``) or whose route ended before
        this host (``route_exhausted``) gets Nones; one naming a socket
        nothing is bound to (``no_socket``) a None handler.  ``traced``
        is the trace id a drop is traced under.

        A frame of the last one's kind and segment count that carries
        its header bytes, its payload inside the frame, has its header
        walk; with its trailer bytes too, two compares are the open.
        Anything else is :meth:`_learn`'s.
        """
        kind, seg_count, head, socket, trailer = self._last
        header_len = PREAMBLE_BYTES + TRACE_ID_BYTES if preamble.trace_id else PREAMBLE_BYTES
        start = header_len + len(head)
        end = start + preamble.payload_len
        try:
            if (
                preamble.kind != kind or preamble.seg_count != seg_count
                or end > len(frame) or frame[header_len:start] != head
            ):
                socket, start, end, trailer = self._learn(
                    frame, preamble, header_len, None,
                )
            elif frame[end:] != trailer.wire:
                socket, start, end, trailer = self._learn(
                    frame, preamble, header_len, (socket, start, end),
                )
        except ViperDecodeError:
            self.discard("undecodable", traced)
            return _DROPPED
        if socket is None:
            self.discard("route_exhausted", traced)
            return _DROPPED
        handler = self.sockets.get(socket)
        if handler is None:
            self.discard("no_socket", traced, socket)
        return handler, socket, start, end, trailer

    def _learn(
        self, frame, preamble: Preamble, header_len: int,
        bounds: Optional[Tuple[Optional[int], int, int]],
    ) -> Tuple[Optional[int], int, int, Trailer]:
        """The open of a frame unlike the last: ``bounds`` — ``(socket,
        payload start, payload end)`` — unless given are a header walked
        lately that the frame starts with (a segment's span is a
        function of its bytes) or else the walk
        (:func:`~repro.live.frames.frame_bounds`); the trailer is looked
        up by its bytes, walked only if the memo does not hold them."""
        if bounds is None:
            for kind, seg_count, head, socket in self.headers:
                start = header_len + len(head)
                end = start + preamble.payload_len
                if (
                    preamble.kind == kind and preamble.seg_count == seg_count
                    and end <= len(frame) and frame[header_len:start] == head
                ):
                    bounds = socket, start, end
                    break
            else:
                bounds = frame_bounds(frame, preamble)
                self.headers.appendleft((
                    preamble.kind, preamble.seg_count,
                    bytes(frame[header_len:bounds[1]]), bounds[0],
                ))
        socket, start, end = bounds
        wire = bytes(frame[end:])
        trailers = self.trailers
        trailer = trailers.get(wire)
        if trailer is None:
            trailer = trailers[wire] = Trailer(wire)
            if len(trailers) > TRAILER_MEMO_ENTRIES:
                trailers.popitem(last=False)
                self.trailer_evictions += 1
        self._last = (
            preamble.kind, preamble.seg_count, bytes(frame[header_len:start]),
            socket, trailer,
        )
        return socket, start, end, trailer

    def discard(
        self, reason: str, traced: int, socket: Optional[int] = None,
    ) -> None:
        """Count, trace and record a frame no socket takes: it does not
        walk (``undecodable``), came from no wired peer
        (``unknown_peer``), ran out of route (``route_exhausted``) or
        names a socket nothing is bound to (``no_socket``)."""
        sink = self.sink
        sink.stamp(traced)
        apply_drop(sink, Decision(
            Action.DROP, reason=reason,
            drop_fields=None if socket is None else {"socket": socket},
        ))
