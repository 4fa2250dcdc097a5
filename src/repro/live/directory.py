"""The live directory: a versioned NDJSON-TCP command protocol.

§3 makes routes *directory attributes*: a client asks the directory for
a route to a destination and receives stacked VIPER segments plus the
route's advertised parameters.  In the live overlay that query is a
real network round trip — a TCP connection carrying one JSON object per
line in each direction, each with an explicit protocol version ``v``
(there is one: 2), typed responses, and writes::

    -> {"v": 2, "id": "c1-17", "method": "register_host",
        "params": {"name": "venus.cs.stanford.edu", "node": "venus"}}
    <- {"id":"c1-17","result":{"name":"venus.cs.stanford.edu",
        "node":"venus"},"status":"success","v":2}
    -> {"v": 2, "id": "c1-17", "method": "register_host", ...}   (retry)
    <- (the *byte-identical* cached line — never re-executed)

Every frame is dispatched through the typed
:mod:`repro.directory.cluster.protocol` objects: requests parse or fail
with a *named* error code, write commands are deduplicated by request
id (replayed retries get the cached canonical bytes back), and each
connection serves its in-flight commands **concurrently** — one slow
route computation does not convoy the queries behind it.  A frame
without ``"v"`` (or naming any other version) is refused with the typed
``version_unsupported`` failure; a frame that is not a JSON object with
``bad_request``.

Every request carries an ``X-Request-ID``-style correlation id; the
server echoes it verbatim so responses can be matched (and traced)
regardless of ordering.  A route's header segments travel as hex of
the *existing* VIPER wire codec (:func:`repro.viper.wire.encode_segment`)
beside §3's advertised attributes, so a client over TCP holds the
simulator's own :class:`~repro.directory.routes.Route` — tokens minted
by the directory verify unchanged on live routers — and a ``routes``
request carries every :class:`~repro.directory.service.RouteQuery` field.

The server wraps any ``(client_node, RouteQuery) -> List[Route]``
callable — in practice :meth:`repro.directory.service.DirectoryService.
query` — plus, for writes, an optional ``backend`` exposing
``register_host`` / ``register_service`` / ``rebind_host`` (the
:class:`~repro.directory.service.DirectoryService` signature).
"""

from __future__ import annotations

import asyncio
import inspect
import itertools
import json
import os
import time
from collections import OrderedDict
from dataclasses import asdict
from typing import Callable, Dict, List, Optional, Set

from repro.directory.cluster.protocol import (
    CommandError,
    CommandRequest,
    CommandResponse,
    PROTOCOL_V2,
    ProtocolError,
    VersionError,
)
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACER
from repro.directory.pathfind import PathObjective
from repro.directory.routes import Route
from repro.directory.service import BindingConflictError, RouteQuery
from repro.live.link import Address
from repro.net.addresses import MacAddress
from repro.transport.rebind import capped_backoff
from repro.viper.errors import ViperDecodeError
from repro.viper.wire import HeaderSegment, decode_segment

#: Newline-delimited JSON: one object per line, UTF-8.
ENCODING = "utf-8"

#: Write responses remembered per server for idempotent replay.
DEDUP_CAPACITY = 4096

#: A failed reconnect blocks the next one for this long, doubling per
#: further failure up to the ceiling.
RECONNECT_BASE_S = 0.05
RECONNECT_MAX_S = 2.0


#: A route's attributes as the TCP door carries them, each with the type
#: it is rebuilt as: its destination, its first hop's port and §3's
#: advertised model.  The segments, the Slick-Packets blocks (only when
#: there are any) and the first hop's MAC (null over UDP) ride encoded.
ROUTE_FIELDS = (
    ("destination", str), ("first_hop_port", int), ("mtu", int),
    ("bottleneck_bps", float), ("propagation_delay", float),
    ("hop_count", int), ("cost", float), ("secure", bool),
    ("issued_at", float),
)


def route_to_json(route: Route) -> Dict[str, object]:
    """Serialize one directory Route into its wire (JSON) form."""
    state, mac = vars(route), route.first_hop_mac
    obj = {name: state[name] for name, _kind in ROUTE_FIELDS}
    obj["segments"] = [s.wire.hex() for s in route.segments]
    obj["first_hop_mac"] = None if mac is None else str(mac)
    if route.alternates:
        obj["alternates"] = [
            [s.wire.hex() for s in block] for block in route.alternates
        ]
    return obj


def _segments_from_hex(hexed_list) -> List[HeaderSegment]:
    segments: List[HeaderSegment] = []
    for hexed in hexed_list:
        raw = bytes.fromhex(str(hexed))
        segment, consumed = decode_segment(raw, 0)
        if consumed != len(raw):
            raise ViperDecodeError(
                f"route segment has {len(raw) - consumed} trailing bytes"
            )
        segments.append(segment)
    return segments


def route_from_json(obj: Dict[str, object]) -> Route:
    """Parse one JSON route (:func:`route_to_json`) back into the
    directory's :class:`~repro.directory.routes.Route`."""
    mac = obj["first_hop_mac"]
    return Route(
        segments=_segments_from_hex(obj["segments"]),
        first_hop_mac=None if mac is None else MacAddress.parse(str(mac)),
        alternates=[
            _segments_from_hex(block)
            for block in obj.get("alternates", ())  # type: ignore[union-attr]
        ],
        **{name: kind(obj[name]) for name, kind in ROUTE_FIELDS},  # type: ignore[operator]
    )


#: :class:`~repro.directory.service.RouteQuery`'s fields as the
#: ``routes`` command carries them, each with the type it is rebuilt
#: as; a field a request leaves out keeps ``RouteQuery``'s default.
QUERY_FIELDS = (
    ("destination", str),
    ("objective", PathObjective),
    ("k", int),
    ("dest_socket", int),
    ("with_tokens", bool),
    ("reverse_ok", bool),
    ("account", int),
    ("priority_limit", int),
    ("compress_ethernet", bool),
)


class DirectoryError(Exception):
    """An error response from the live directory (or a protocol fault).

    Server failures carry their typed ``code`` and ``retryable`` flag;
    local faults (connection loss, timeouts) leave ``code`` empty.
    """

    def __init__(
        self, message: str, code: str = "", retryable: bool = False
    ) -> None:
        super().__init__(message)
        self.code = code
        self.retryable = retryable


class LiveDirectoryServer:
    """Serves the versioned directory protocol over one TCP listener.

    ``query`` is any callable with the shape of
    :meth:`~repro.directory.service.DirectoryService.query`; ``backend``
    (optional) provides the write surface with the
    :class:`~repro.directory.service.DirectoryService` method
    signatures.  The server is protocol plumbing and holds no routing
    state of its own — only the bounded dedup cache of write
    responses, which is what makes at-least-once client retries safe.
    """

    def __init__(
        self,
        query: Callable[[str, RouteQuery], List[Route]],
        backend: Optional[object] = None,
        name: str = "directory",
    ) -> None:
        self.query = query
        self.backend = backend
        self.name = name
        self._server: Optional[asyncio.AbstractServer] = None
        self._writers: Set[asyncio.StreamWriter] = set()
        self._tasks: Set[asyncio.Task] = set()
        #: request id -> canonical response bytes (writes only).
        self._dedup: "OrderedDict[str, bytes]" = OrderedDict()
        self.address: Optional[Address] = None
        self.queries_served = 0
        self.errors = 0
        self.dedup_hits = 0
        #: Connections torn down mid-conversation (reset / half-read
        #: EOF / write to a gone peer) — the failure-path fate SIR011
        #: requires every swallowed ConnectionError to account for.
        self.connections_dropped = 0
        #: Observability hooks (NULL until installed; see repro.obs).
        self.tracer = NULL_TRACER
        self.recorder = NULL_RECORDER
        self.clock: Callable[[], float] = time.monotonic
        self._command_ms = None  # Histogram once attach_registry runs

    def set_tracer(self, tracer) -> None:
        """Install the tracer commands stitch their spans into."""
        self.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install the flight recorder command fates are logged to."""
        self.recorder = recorder

    def attach_registry(self, registry) -> None:
        """Expose command service latency as ``directory_command_ms``."""
        self._command_ms = registry.histogram("directory_command_ms")

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> Address:
        """Start listening; returns the bound ``(host, port)``."""
        self._server = await asyncio.start_server(
            self._on_connection, host=host, port=port
        )
        sockname = self._server.sockets[0].getsockname()
        self.address = (sockname[0], sockname[1])
        return self.address

    def stop(self) -> None:
        """Stop listening and drop every open connection."""
        if self._server is not None:
            self._server.close()
            self._server = None
        for task in list(self._tasks):
            task.cancel()
        self._tasks.clear()
        for writer in list(self._writers):
            writer.close()
        self._writers.clear()

    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        self._writers.add(writer)
        write_lock = asyncio.Lock()
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                # One task per command: in-flight commands on a single
                # connection proceed concurrently, responses correlate
                # by id (the write lock keeps lines whole).
                task = asyncio.get_running_loop().create_task(
                    self._serve_line(line, writer, write_lock)
                )
                self._tasks.add(task)
                task.add_done_callback(self._tasks.discard)
        except (ConnectionError, asyncio.IncompleteReadError):
            # A client vanished mid-request; normal at scale, but it
            # must still be a counted fate, not a silent one.
            self.connections_dropped += 1
        except asyncio.CancelledError:
            # Event-loop teardown cancels in-flight connection handlers;
            # finishing cleanly here keeps the stream protocol's
            # done-callback from logging a spurious traceback.
            pass
        finally:
            self._writers.discard(writer)
            writer.close()

    async def _serve_line(
        self,
        line: bytes,
        writer: asyncio.StreamWriter,
        write_lock: asyncio.Lock,
    ) -> None:
        payload = await self._handle_line(line)
        try:
            async with write_lock:
                writer.write(payload)
                await writer.drain()
        except (ConnectionError, OSError):
            # Peer went away before its response; the reader loop sees
            # the EOF, this side accounts the dropped conversation.
            self.connections_dropped += 1

    # -- dispatch ----------------------------------------------------------

    async def _handle_line(self, line: bytes) -> bytes:
        """One request line in, one response line (bytes) out."""
        try:
            request = json.loads(line.decode(ENCODING))
        except ValueError as exc:
            self.errors += 1
            return CommandResponse.failure("", CommandError.make(
                "bad_request", f"undecodable request line: {exc}",
            )).encode()
        return await self._handle_command(request)

    # -- the typed, deduplicated, concurrent command path ------------------

    async def _handle_command(self, obj: object) -> bytes:
        request_id = obj.get("id") if isinstance(obj, dict) else None
        request_id = request_id if isinstance(request_id, str) else ""
        try:
            request = CommandRequest.parse(obj)
        except VersionError as exc:
            self.errors += 1
            return CommandResponse.failure(request_id, CommandError.make(
                "version_unsupported", str(exc),
                {"supported": [PROTOCOL_V2]},
            )).encode()
        except ProtocolError as exc:
            self.errors += 1
            return CommandResponse.failure(request_id, CommandError.make(
                "bad_request", str(exc),
            )).encode()
        started = self.clock()
        tid = request.trace_id
        traced = tid and self.tracer.enabled
        if traced:
            # Stitch this command into the caller's trace, then hand
            # downstream layers a context parented on *this* server —
            # each layer owns one level of the rendered tree.
            from_parent = request.trace_dict.get("parent", "")
            self.tracer.event(
                tid, started, self.name, "command_received",
                parent=from_parent, method=request.method,
                request_id=request.request_id,
            )
            request = request.with_trace(
                {**request.trace_dict, "parent": self.name}
            )
        if request.is_write:
            cached = self._dedup.get(request.request_id)
            if cached is not None:
                self.dedup_hits += 1
                if traced:
                    self.tracer.event(
                        tid, self.clock(), self.name, "dedup_replay",
                        request_id=request.request_id,
                    )
                return cached
        response = await self._dispatch(request)
        encoded = response.encode()
        if request.is_write:
            self._remember(request.request_id, encoded)
        if not response.ok:
            self.errors += 1
        if self._command_ms is not None:
            self._command_ms.add((self.clock() - started) * 1e3)
        if self.recorder.enabled:
            self.recorder.record(
                "command_served", node=self.name, t=self.clock(),
                method=request.method, request_id=request.request_id,
                ok=response.ok,
            )
        if traced:
            self.tracer.event(
                tid, self.clock(), self.name, "command_answered",
                status=response.status,
            )
        return encoded

    def _remember(self, request_id: str, encoded: bytes) -> None:
        """LRU-bound the dedup cache (drop oldest write response)."""
        self._dedup[request_id] = encoded
        self._dedup.move_to_end(request_id)
        while len(self._dedup) > DEDUP_CAPACITY:
            self._dedup.popitem(last=False)

    async def _dispatch(self, request: CommandRequest) -> CommandResponse:
        params = request.params_dict
        rid = request.request_id
        try:
            if request.method == "ping":
                return CommandResponse.success(rid, {"pong": True})
            if request.method == "routes":
                return CommandResponse.success(
                    rid, await self._serve_routes(params)
                )
            if request.method in (
                "register_host", "register_service", "rebind",
            ):
                return self._serve_write(request)
            return CommandResponse.failure(rid, CommandError.make(
                "unknown_method", f"unknown method {request.method!r}",
            ))
        except BindingConflictError as exc:
            return CommandResponse.failure(rid, CommandError.make(
                "conflict", str(exc),
                {"name": exc.name, "bound_to": exc.bound_to},
            ))
        except (ValueError, KeyError, TypeError, ViperDecodeError) as exc:
            return CommandResponse.failure(rid, CommandError.make(
                "bad_request", f"{request.method}: {exc}",
            ))

    def _serve_write(self, request: CommandRequest) -> CommandResponse:
        if self.backend is None:
            return CommandResponse.failure(
                request.request_id,
                CommandError.make(
                    "unavailable",
                    "this directory serves no write commands "
                    "(no backend configured)",
                ),
            )
        params = request.params_dict
        name = str(params["name"])
        # Backends that opt in (``accepts_trace``) get the trace
        # context forwarded — this is the hop that carries a trace from
        # the TCP protocol layer into the cluster command fan-out.
        extra: Dict[str, object] = {}
        if request.trace and getattr(self.backend, "accepts_trace", False):
            extra["trace"] = request.trace_dict
        if request.method == "register_host":
            parsed = self.backend.register_host(
                str(params["node"]), name, **extra
            )
            return CommandResponse.success(request.request_id, {
                "name": str(parsed), "node": str(params["node"]),
            })
        if request.method == "register_service":
            nodes = params["nodes"]
            if not isinstance(nodes, list):
                raise ValueError("nodes must be a list")
            self.backend.register_service(
                name, [str(n) for n in nodes], **extra
            )
            return CommandResponse.success(request.request_id, {
                "name": name, "nodes": [str(n) for n in nodes],
            })
        parsed = self.backend.rebind_host(
            str(params["node"]), name, **extra
        )
        return CommandResponse.success(request.request_id, {
            "name": str(parsed), "node": str(params["node"]),
        })

    async def _serve_routes(
        self, params: Dict[str, object]
    ) -> Dict[str, object]:
        query = RouteQuery(**{
            name: kind(params[name])  # type: ignore[operator]
            for name, kind in QUERY_FIELDS if name in params
        })
        # ``query`` may be a plain callable or a coroutine function; an
        # awaitable result lets slow lookups yield, so the other
        # in-flight commands on this connection keep making progress.
        routes = self.query(str(params["client"]), query)
        if inspect.isawaitable(routes):
            routes = await routes
        self.queries_served += 1
        return {"routes": [route_to_json(r) for r in routes]}


class ClusterDirectoryBackend:
    """Adapts a :class:`~repro.directory.cluster.client.ClusterClient`
    to the live server's write-backend surface.

    This is the live NDJSON-TCP directory fronting the sharded,
    replicated cluster: writes arriving over TCP become cluster
    commands (routed by ring ownership, retried through failover,
    deduplicated by request id), and — because ``accepts_trace`` is
    True — the server forwards each request's trace context, so one
    trace stitches the TCP command, the cluster's routing decision, and
    both replicas' log appends.
    """

    accepts_trace = True

    def __init__(self, client) -> None:
        self.client = client

    def register_host(
        self, node: str, name: str,
        trace: Optional[Dict[str, object]] = None,
    ) -> str:
        result = self.client.register_host(name, node, trace=trace)
        return str(result.get("name", name))

    def register_service(
        self, name: str, nodes: List[str],
        trace: Optional[Dict[str, object]] = None,
    ) -> None:
        self.client.register_service(name, list(nodes), trace=trace)

    def rebind_host(
        self, node: str, name: str,
        trace: Optional[Dict[str, object]] = None,
    ) -> str:
        result = self.client.rebind(name, node, trace=trace)
        return str(result.get("name", name))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ClusterDirectoryBackend {self.client!r}>"


class LiveDirectoryClient:
    """One TCP connection to the live directory, with correlated requests.

    Requests may be issued concurrently; responses are matched to their
    callers by correlation id, not arrival order.  Ids are generated
    ``q-<n>-<random hex>`` so traces of interleaved clients stay
    unambiguous, in the spirit of ``X-Request-ID`` headers.

    The client speaks the one protocol (``v`` field 2, typed
    errors, write commands whose retries reuse the original request id
    so the server's dedup cache answers them).

    Connection loss is a *first-class* event, not a hang: when the
    directory drops the TCP connection (EOF or reset), every pending
    request fails immediately with :class:`DirectoryError`, and the next
    request transparently attempts a reconnect — gated by an
    exponentially growing backoff so a dead directory is probed, not
    hammered.  Callers therefore always get a prompt answer: a result,
    or a named error they can retry against their own schedule.
    """

    def __init__(self, name: str = "client") -> None:
        self.name = name
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._reader_task: Optional[asyncio.Task] = None
        self._pending: Dict[str, asyncio.Future] = {}
        self._counter = itertools.count(1)
        self._address: Optional[Address] = None
        self._connected = False
        self._closed = False
        self._reconnect_attempts = 0
        self._reconnect_blocked_until = 0.0
        # Created lazily inside the running loop (3.9-safe); serializes
        # concurrent reconnect attempts in _ensure_connected.
        self._reconnect_lock: Optional[asyncio.Lock] = None
        #: Times the connection was observed lost (EOF/reset).
        self.disconnects = 0
        #: Successful automatic reconnects after a loss.
        self.reconnects = 0
        #: Write commands retried with their original request id.
        self.write_retries = 0
        #: Response lines that were not valid protocol frames.
        self.protocol_errors = 0

    async def connect(self, address: Address) -> None:
        """Open the TCP connection and start the response demultiplexer."""
        self._address = address
        self._closed = False
        await self._open()

    async def _open(self) -> None:
        assert self._address is not None
        self._reader, self._writer = await asyncio.open_connection(
            self._address[0], self._address[1]
        )
        self._connected = True
        self._reconnect_attempts = 0
        self._reconnect_blocked_until = 0.0
        self._reader_task = asyncio.get_running_loop().create_task(
            self._read_responses()
        )

    def close(self) -> None:
        """Tear the connection down; pending requests fail."""
        self._closed = True
        self._connected = False
        if self._reader_task is not None:
            self._reader_task.cancel()
            self._reader_task = None
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._fail_pending(DirectoryError("directory client closed"))

    def _fail_pending(self, exc: DirectoryError) -> None:
        """Fail every in-flight request *now* — hangs are worse than
        errors (a caller holding a timeout learns nothing for its whole
        duration; a caller holding an error can act immediately)."""
        pending, self._pending = self._pending, {}
        for future in pending.values():
            if not future.done():
                future.set_exception(exc)
                # Mark the exception retrieved: a waiter cancelled
                # before this point would otherwise trip the event
                # loop's "exception was never retrieved" warning.
                future.exception()

    def _on_connection_lost(self) -> None:
        if self._closed:
            return
        self._connected = False
        self.disconnects += 1
        if self._writer is not None:
            self._writer.close()
            self._writer = None
        self._fail_pending(DirectoryError("directory connection lost"))

    async def _ensure_connected(self) -> None:  # sirlint: interleave-safe -- serialized by _reconnect_lock; guard re-checked under it
        """Reconnect if the connection died, behind a growing backoff.

        Concurrent callers serialize on ``_reconnect_lock``: without
        it two requests racing past the connected check would both
        cancel the reader task and dial, leaking one reader task and
        double-bumping the backoff window (found by SIR010).
        """
        if self._connected and self._writer is not None:
            return
        if self._reconnect_lock is None:
            self._reconnect_lock = asyncio.Lock()
        async with self._reconnect_lock:
            if self._connected and self._writer is not None:
                return  # a concurrent caller already reconnected
            if self._closed or self._address is None:
                raise DirectoryError("directory client is not connected")
            loop = asyncio.get_running_loop()
            now = loop.time()
            if now < self._reconnect_blocked_until:
                raise DirectoryError(
                    "directory reconnect backing off "
                    f"({self._reconnect_blocked_until - now:.3f}s remaining)",
                    retryable=True,
                )
            if self._reader_task is not None:
                self._reader_task.cancel()
                self._reader_task = None
            try:
                await self._open()
            except OSError as exc:
                self._reconnect_attempts += 1
                self._reconnect_blocked_until = loop.time() + capped_backoff(
                    self._reconnect_attempts,
                    RECONNECT_BASE_S, RECONNECT_MAX_S,
                )
                raise DirectoryError(
                    f"directory reconnect failed: {exc}", retryable=True,
                ) from exc
            self.reconnects += 1

    def _next_id(self) -> str:
        return f"q-{next(self._counter)}-{os.urandom(4).hex()}"

    def _frame(
        self, method: str, params: Dict[str, object], request_id: str,
        trace: Optional[Dict[str, object]] = None,
    ) -> str:
        obj: Dict[str, object] = {
            "id": request_id, "method": method, "params": params,
            "v": PROTOCOL_V2,
        }
        if trace:
            obj["trace"] = dict(trace)
        return json.dumps(obj)

    async def _request(
        self, method: str, params: Dict[str, object], timeout_s: float,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        return await self._request_with_id(
            method, params, self._next_id(), timeout_s, trace=trace
        )

    async def _request_with_id(
        self,
        method: str,
        params: Dict[str, object],
        request_id: str,
        timeout_s: float,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        await self._ensure_connected()
        if self._writer is None:  # pragma: no cover - ensure guarantees
            raise DirectoryError("directory client is not connected")
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        line = self._frame(method, params, request_id, trace=trace)
        try:
            self._writer.write((line + "\n").encode(ENCODING))
            await self._writer.drain()
        except (ConnectionError, OSError) as exc:
            self._on_connection_lost()
            self._pending.pop(request_id, None)
            raise DirectoryError(
                f"directory write failed: {exc}", retryable=True,
            ) from exc
        try:
            return await asyncio.wait_for(future, timeout_s)
        except asyncio.TimeoutError:
            raise DirectoryError(
                f"directory request {request_id} timed out "
                f"after {timeout_s}s",
                retryable=True,
            ) from None
        finally:
            self._pending.pop(request_id, None)

    async def _read_responses(self) -> None:
        reader = self._reader
        assert reader is not None
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break  # EOF: the directory hung up mid-flight
                self._dispatch(line)
        except asyncio.CancelledError:
            return  # close() owns the teardown
        except (ConnectionError, OSError):
            pass
        # The connection is gone — nobody will ever answer the pending
        # requests, so fail them now rather than letting them hang
        # until their individual timeouts.
        self._on_connection_lost()

    def _dispatch(self, line: bytes) -> None:
        try:
            response = json.loads(line.decode(ENCODING))
        except ValueError:
            # An unparseable response correlates with nothing; count
            # it so a babbling server is visible, not silent.
            self.protocol_errors += 1
            return
        if not isinstance(response, dict):
            self.protocol_errors += 1
            return
        future = self._pending.get(str(response.get("id")))
        if future is None or future.done():
            return
        try:
            typed = CommandResponse.parse(response)
        except ProtocolError as exc:
            future.set_exception(DirectoryError(str(exc)))
            return
        if typed.ok:
            future.set_result(typed.result_dict)
        else:
            error = typed.error
            assert error is not None
            future.set_exception(DirectoryError(
                f"[{error.code}] {error.message}",
                code=error.code, retryable=error.retryable,
            ))

    # -- read operations ---------------------------------------------------

    async def routes(
        self,
        destination: str,
        timeout_s: float = 1.0,
        trace: Optional[Dict[str, object]] = None,
        **query: object,
    ) -> List[Route]:
        """Fetch routes to ``destination`` (§3 over TCP); ``query`` takes
        any other :class:`~repro.directory.service.RouteQuery` field
        (``k``, ``objective``, ``account`` …), every one of which
        reaches the directory."""
        params = asdict(RouteQuery(destination, **query))  # type: ignore[arg-type]
        params["objective"] = params["objective"].value
        params["client"] = self.name
        result = await self._request("routes", params, timeout_s, trace=trace)
        raw_routes = result.get("routes")
        if not isinstance(raw_routes, list):
            raise DirectoryError("malformed routes response")
        return [route_from_json(obj) for obj in raw_routes]

    # -- write operations (idempotent retries) -----------------------------

    async def _write(
        self,
        method: str,
        params: Dict[str, object],
        timeout_s: float,
        attempts: int,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Issue one write, retrying **with the same request id**.

        At-least-once delivery made safe: a retry after a lost
        response replays through the server's dedup cache instead of
        re-executing, so the caller sees exactly-once semantics.
        Retries also reuse the trace context, so the whole saga is one
        trace record.
        """
        request_id = self._next_id()
        last: Optional[DirectoryError] = None
        for attempt in range(max(1, attempts)):
            try:
                return await self._request_with_id(
                    method, params, request_id, timeout_s, trace=trace
                )
            except DirectoryError as exc:
                if not exc.retryable:
                    raise
                last = exc
                if attempt + 1 < attempts:
                    self.write_retries += 1
        assert last is not None
        raise last

    async def register_host(
        self,
        name: str,
        node: str,
        timeout_s: float = 1.0,
        attempts: int = 3,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Bind ``name`` to ``node`` (idempotent; conflicts are typed)."""
        return await self._write(
            "register_host", {"name": name, "node": node},
            timeout_s, attempts, trace=trace,
        )

    async def register_service(
        self,
        name: str,
        nodes: List[str],
        timeout_s: float = 1.0,
        attempts: int = 3,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Bind a service name to its provider hosts (§3)."""
        return await self._write(
            "register_service", {"name": name, "nodes": list(nodes)},
            timeout_s, attempts, trace=trace,
        )

    async def rebind(
        self,
        name: str,
        node: str,
        timeout_s: float = 1.0,
        attempts: int = 3,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Deliberately move ``name`` to ``node`` (§6.3 rebinding)."""
        return await self._write(
            "rebind", {"name": name, "node": node}, timeout_s, attempts,
            trace=trace,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LiveDirectoryClient {self.name!r}>"
