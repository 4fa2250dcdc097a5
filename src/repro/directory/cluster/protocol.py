"""The versioned directory command protocol (v2).

The seed NDJSON protocol (PR 1) was one implicit version: requests were
``{"id", "method", "params"}`` and any schema drift would have been a
silent wire break.  This module gives the directory a *production*
command protocol modeled on the diem off-chain reference: every object
carries an explicit ``v`` field, requests/responses/errors are typed
objects with a parse step that rejects malformed frames by *name*, and
responses are rendered canonically (sorted keys, fixed separators) so a
deduplicated retry can be answered with **byte-identical** cached
bytes — the strongest possible "we did not re-execute" witness.

Versioning contract:

* ``v`` is an integer; this module speaks ``PROTOCOL_V2``.
* A frame *without* ``v`` is read as v1 (:data:`PROTOCOL_V1`), which is
  no longer spoken: :meth:`CommandRequest.parse` raises
  :class:`VersionError` for it like for any other version.
* A frame with an unsupported ``v`` gets a ``version_unsupported``
  error naming both versions, never a silent misparse.

Error taxonomy (``CommandError.code``): protocol faults
(``bad_request``, ``unknown_method``, ``version_unsupported``) are
never retryable; routing faults (``not_leader``, ``wrong_shard``,
``shard_unavailable``) are retryable — the shard-aware client retries
them through failover with the *same* request id, which is what makes
at-least-once delivery safe against the dedup table.  ``conflict`` is
the typed no-you-don't for contradictory bindings (§3 names bind to
exactly one host).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

#: The protocol version this module implements.
PROTOCOL_V2 = 2

#: Legacy implicit version (frames with no ``v`` field).
PROTOCOL_V1 = 1

#: Response statuses (diem off-chain: every response is one of these).
STATUS_SUCCESS = "success"
STATUS_FAILURE = "failure"

#: Error codes that a client may retry with the same request id.
RETRYABLE_CODES = frozenset({
    "not_leader", "wrong_shard", "shard_unavailable", "unavailable",
})

#: Every error code the protocol defines.
ERROR_CODES = frozenset({
    "bad_request", "unknown_method", "version_unsupported",
    "conflict", "not_found",
}) | RETRYABLE_CODES

#: Command methods that mutate directory state (logged + deduplicated).
WRITE_METHODS = frozenset({
    "register_host", "register_service", "rebind",
})

#: Read-only command methods (served from the leader's store, unlogged).
READ_METHODS = frozenset({"lookup", "ping", "routes", "stats"})


class ProtocolError(ValueError):
    """A frame that cannot be parsed into a typed protocol object."""


class VersionError(ProtocolError):
    """A frame whose ``v`` names a version this peer does not speak."""


def canonical_encode(obj: Dict[str, object]) -> bytes:
    """One canonical NDJSON line: sorted keys, no whitespace, ``\\n``.

    Dedup replay depends on this: two encodings of the same response
    object are the same bytes, on every replica, on every run.
    """
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def canonical_params(params: Mapping[str, object]) -> str:
    """Canonical JSON text of a params mapping (log-entry storage form)."""
    return json.dumps(dict(params), sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class CommandRequest:
    """One typed command request: ``{"v", "id", "method", "params"}``.

    ``trace`` is the optional cross-layer trace context (the X-Request-ID
    correlation pattern, extended to a span tree): when present it is
    ``{"id": <int trace id>, "parent": <span name>}``, stored as a
    sorted tuple.  Trace context rides only on *requests* — responses
    (and therefore the dedup cache's canonical bytes) never carry it,
    so a traced retry still replays byte-identical cached bytes.
    """

    method: str
    params: Tuple[Tuple[str, object], ...]
    request_id: str
    v: int = PROTOCOL_V2
    trace: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    @staticmethod
    def make(
        method: str, params: Mapping[str, object], request_id: str,
        trace: Optional[Mapping[str, object]] = None,
    ) -> "CommandRequest":
        return CommandRequest(
            method=method,
            params=tuple(sorted(dict(params).items())),
            request_id=request_id,
            trace=tuple(sorted(dict(trace).items())) if trace else (),
        )

    @property
    def params_dict(self) -> Dict[str, object]:
        return dict(self.params)

    @property
    def trace_dict(self) -> Dict[str, object]:
        """The trace context as a dict (empty when untraced)."""
        return dict(self.trace)

    @property
    def trace_id(self) -> int:
        """The trace id, or 0 when untraced (tracer guard convention)."""
        value = self.trace_dict.get("id", 0)
        return value if isinstance(value, int) else 0

    def with_trace(
        self, trace: Optional[Mapping[str, object]]
    ) -> "CommandRequest":
        """The same request with its trace context replaced."""
        return CommandRequest(
            method=self.method, params=self.params,
            request_id=self.request_id, v=self.v,
            trace=tuple(sorted(dict(trace).items())) if trace else (),
        )

    @property
    def is_write(self) -> bool:
        return self.method in WRITE_METHODS

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "v": self.v,
            "id": self.request_id,
            "method": self.method,
            "params": self.params_dict,
        }
        if self.trace:
            out["trace"] = self.trace_dict
        return out

    def encode(self) -> bytes:
        return canonical_encode(self.to_json())

    @staticmethod
    def parse(obj: object) -> "CommandRequest":
        """Parse one decoded JSON object into a typed request.

        Raises :class:`ProtocolError` naming the defect; the caller
        maps that to a ``bad_request``/``version_unsupported`` response.
        """
        if not isinstance(obj, dict):
            raise ProtocolError("request is not a JSON object")
        version = obj.get("v", PROTOCOL_V1)
        if not isinstance(version, int) or isinstance(version, bool):
            raise ProtocolError("request 'v' is not an integer")
        if version != PROTOCOL_V2:
            raise VersionError(
                f"peer speaks v{version}, server speaks v{PROTOCOL_V2}"
            )
        request_id = obj.get("id")
        if not isinstance(request_id, str) or not request_id:
            raise ProtocolError("request 'id' must be a non-empty string")
        method = obj.get("method")
        if not isinstance(method, str) or not method:
            raise ProtocolError("request 'method' must be a string")
        params = obj.get("params") or {}
        if not isinstance(params, dict):
            raise ProtocolError("request 'params' must be a JSON object")
        trace = obj.get("trace") or {}
        if not isinstance(trace, dict):
            raise ProtocolError("request 'trace' must be a JSON object")
        return CommandRequest(
            method=method,
            params=tuple(sorted(params.items())),
            request_id=request_id,
            trace=tuple(sorted(trace.items())),
        )


@dataclass(frozen=True)
class CommandError:
    """A typed failure: a code from :data:`ERROR_CODES` plus context."""

    code: str
    message: str
    details: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        if self.code not in ERROR_CODES:
            raise ProtocolError(f"unknown error code {self.code!r}")

    @staticmethod
    def make(
        code: str, message: str,
        details: Optional[Mapping[str, object]] = None,
    ) -> "CommandError":
        return CommandError(
            code=code, message=message,
            details=tuple(sorted((details or {}).items())),
        )

    @property
    def retryable(self) -> bool:
        return self.code in RETRYABLE_CODES

    @property
    def details_dict(self) -> Dict[str, object]:
        return dict(self.details)

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "code": self.code,
            "message": self.message,
            "retryable": self.retryable,
        }
        if self.details:
            out["details"] = self.details_dict
        return out


@dataclass(frozen=True)
class CommandResponse:
    """One typed response, correlated to its request by id."""

    request_id: str
    status: str
    result: Tuple[Tuple[str, object], ...] = field(default_factory=tuple)
    error: Optional[CommandError] = None
    v: int = PROTOCOL_V2

    @staticmethod
    def success(
        request_id: str, result: Mapping[str, object]
    ) -> "CommandResponse":
        return CommandResponse(
            request_id=request_id, status=STATUS_SUCCESS,
            result=tuple(sorted(dict(result).items())),
        )

    @staticmethod
    def failure(request_id: str, error: CommandError) -> "CommandResponse":
        return CommandResponse(
            request_id=request_id, status=STATUS_FAILURE, error=error,
        )

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS

    @property
    def result_dict(self) -> Dict[str, object]:
        return dict(self.result)

    def to_json(self) -> Dict[str, object]:
        out: Dict[str, object] = {
            "v": self.v,
            "id": self.request_id,
            "status": self.status,
        }
        if self.ok:
            out["result"] = self.result_dict
        elif self.error is not None:
            out["error"] = self.error.to_json()
        return out

    def encode(self) -> bytes:
        """Canonical wire bytes — the dedup cache stores exactly these."""
        return canonical_encode(self.to_json())

    @staticmethod
    def parse(obj: object) -> "CommandResponse":
        if not isinstance(obj, dict):
            raise ProtocolError("response is not a JSON object")
        version = obj.get("v", PROTOCOL_V1)
        if version != PROTOCOL_V2:
            raise ProtocolError(f"unsupported response version {version!r}")
        request_id = obj.get("id")
        if not isinstance(request_id, str):
            raise ProtocolError("response 'id' must be a string")
        status = obj.get("status")
        if status == STATUS_SUCCESS:
            result = obj.get("result") or {}
            if not isinstance(result, dict):
                raise ProtocolError("response 'result' must be an object")
            return CommandResponse.success(request_id, result)
        if status == STATUS_FAILURE:
            error = obj.get("error")
            if not isinstance(error, dict):
                raise ProtocolError("failure response without 'error'")
            code = error.get("code")
            if not isinstance(code, str) or code not in ERROR_CODES:
                raise ProtocolError(f"unknown error code {code!r}")
            return CommandResponse.failure(request_id, CommandError.make(
                code, str(error.get("message", "")),
                error.get("details") if isinstance(error.get("details"), dict)
                else None,
            ))
        raise ProtocolError(f"unknown response status {status!r}")


def decode_response(line: bytes) -> CommandResponse:
    """Parse one canonical wire line back into a typed response."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except ValueError as exc:
        raise ProtocolError(f"undecodable response line: {exc}") from None
    return CommandResponse.parse(obj)
