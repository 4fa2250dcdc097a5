"""Opt-in HTTP endpoint serving ``/metrics``, ``/trace``, ``/slo``, ``/dump``.

A tiny asyncio HTTP/1.0 server — no framework, no threads — that a
:class:`~repro.live.topology.LiveOverlay` (or any owner of a
:class:`~repro.obs.registry.MetricsRegistry` and a
:class:`~repro.obs.trace.Tracer`) can bind next to its UDP sockets:

* ``GET /metrics`` — Prometheus text exposition (format 0.0.4) of the
  registry, scrape-ready.
* ``GET /trace`` — JSON index of retained traces (id, source, status).
* ``GET /trace?id=<decimal-or-0x-hex>`` — one trace's full event list
  plus its per-hop span decomposition and parent tree, as JSON.
* ``GET /slo`` — the :class:`~repro.obs.slo.SloEngine`'s burn-rate
  report as JSON (what ``python -m repro.obs.top`` polls).
* ``GET /dump`` — the flight recorder's NDJSON dump of the last window
  (``?last_s=<seconds>`` overrides it) — the "explicit trigger" path.

The handler parses only the request line and discards headers; anything
that is not a GET for a known path gets a 404/405.  It exists for
humans and scrapers during live runs — it is *not* on any packet path.
"""

from __future__ import annotations

import asyncio
import json
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.recorder import NULL_RECORDER
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import NULL_TRACER, spans_of, tree_of


class ObsHttpServer:
    """Serves one registry (and optionally tracer/SLO/recorder) over HTTP."""

    def __init__(
        self, registry: MetricsRegistry, tracer=None,
        slo=None, recorder=None,
    ) -> None:
        self.registry = registry
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.slo = slo
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self._server: Optional[asyncio.AbstractServer] = None
        self.address: Optional[Tuple[str, int]] = None

    async def start(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> Tuple[str, int]:
        """Bind and start serving; returns ``(host, port)``."""
        self._server = await asyncio.start_server(self._serve, host, port)
        sock = self._server.sockets[0]
        self.address = sock.getsockname()[:2]
        return self.address

    def stop(self) -> None:
        """Close the listening socket (idempotent)."""
        if self._server is not None:
            self._server.close()
            self._server = None

    # -- request handling --------------------------------------------------

    async def _serve(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await reader.readline()
            # Drain headers up to the blank line; we never use them.
            while True:
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            status, ctype, body = self._respond(request_line)
            head = (
                f"HTTP/1.0 {status}\r\n"
                f"Content-Type: {ctype}\r\n"
                f"Content-Length: {len(body)}\r\n"
                "Connection: close\r\n\r\n"
            )
            writer.write(head.encode("ascii") + body)
            await writer.drain()
        except (ConnectionError, asyncio.IncompleteReadError):
            pass
        finally:
            writer.close()

    def _respond(self, request_line: bytes) -> Tuple[str, str, bytes]:
        """Route one request line to ``(status, content_type, body)``."""
        try:
            method, target, _version = (
                request_line.decode("ascii", "replace").split(None, 2)
            )
        except ValueError:
            return "400 Bad Request", "text/plain", b"bad request\n"
        if method != "GET":
            return "405 Method Not Allowed", "text/plain", b"GET only\n"
        parts = urlsplit(target)
        if parts.path == "/metrics":
            body = self.registry.render_prometheus().encode("utf-8")
            return (
                "200 OK",
                "text/plain; version=0.0.4; charset=utf-8",
                body,
            )
        if parts.path == "/trace":
            return self._respond_trace(parts.query)
        if parts.path == "/slo":
            if self.slo is None:
                return (
                    "404 Not Found", "text/plain", b"no SLO engine\n"
                )
            return (
                "200 OK", "application/json",
                self.slo.report_json().encode("utf-8"),
            )
        if parts.path == "/dump":
            params = parse_qs(parts.query)
            last_s = None
            if params.get("last_s"):
                try:
                    last_s = float(params["last_s"][0])
                except ValueError:
                    return (
                        "400 Bad Request", "text/plain", b"bad last_s\n"
                    )
            text = self.recorder.dump_ndjson(
                last_s=last_s, reason="http_trigger"
            )
            if not text:
                return (
                    "404 Not Found", "text/plain", b"no flight recorder\n"
                )
            return (
                "200 OK", "application/x-ndjson", text.encode("utf-8")
            )
        return "404 Not Found", "text/plain", b"not found\n"

    def _respond_trace(self, query: str) -> Tuple[str, str, bytes]:
        params = parse_qs(query)
        records = getattr(self.tracer, "records", {})
        wanted = params.get("id")
        if not wanted:
            index = [
                {
                    "trace_id": record.trace_id,
                    "source": record.source,
                    "status": record.status,
                    "events": len(record.events),
                }
                for record in records.values()
            ]
            return (
                "200 OK", "application/json",
                json.dumps({"traces": index}).encode("utf-8"),
            )
        try:
            trace_id = int(wanted[0], 0)
        except ValueError:
            return "400 Bad Request", "text/plain", b"bad trace id\n"
        record = records.get(trace_id)
        if record is None:
            return "404 Not Found", "text/plain", b"no such trace\n"
        payload = {
            "trace_id": record.trace_id,
            "source": record.source,
            "started": record.started,
            "status": record.status,
            "drop_reason": record.drop_reason,
            "total": record.total,
            "events": [
                {"t": e.t, "node": e.node, "event": e.name, "attrs": e.attrs}
                for e in record.events
            ],
            "spans": [
                {
                    "node": span.node,
                    "start": span.start,
                    "end": span.end,
                    "duration": span.end - span.start,
                }
                for span in spans_of(record)
            ],
            "tree": tree_of(record),
        }
        return (
            "200 OK", "application/json",
            json.dumps(payload).encode("utf-8"),
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ObsHttpServer at {self.address}>"
