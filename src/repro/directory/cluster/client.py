"""The shard-aware directory client.

Routes every command to its owning shard through the shared
:class:`~repro.directory.cluster.ring.ConsistentHashRing` (ownership is
computed, never asked), retries retryable failures (``shard_unavailable``,
``not_leader``, ``wrong_shard``) **with the same request id** so a
write that was executed-but-unacknowledged before a leader crash is
answered from the dedup cache instead of re-executing, and keeps a TTL
lookup cache whose hit rate is the cold/warm curve ``bench_d01``
publishes (§3's footnote 10: a cached name costs no directory round
trip at all).

The client is synchronous and substrate-agnostic: ``execute`` is any
``CommandRequest -> bytes`` callable — the in-process
:meth:`DirectoryCluster.execute_raw`, or a test double, or a live
NDJSON transport adapter.  Time comes from an injected ``clock``
callable so soaks run on a virtual clock deterministically.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.directory.cluster.protocol import (
    CommandRequest,
    CommandResponse,
    decode_response,
)


class ClusterCommandError(RuntimeError):
    """A command that failed for good (non-retryable, or retries spent)."""

    def __init__(
        self, message: str, code: str = "", attempts: int = 0
    ) -> None:
        super().__init__(message)
        self.code = code
        self.attempts = attempts


def _zero_clock() -> float:
    return 0.0


class ClusterClient:
    """One client's view of the sharded directory."""

    def __init__(
        self,
        execute: Callable[[CommandRequest], bytes],
        name: str = "client",
        max_attempts: int = 4,
        cache_ttl_s: float = 5.0,
        clock: Optional[Callable[[], float]] = None,
        on_retry: Optional[Callable[[str, int], None]] = None,
    ) -> None:
        self._execute = execute
        self.name = name
        self.max_attempts = max(1, max_attempts)
        self.cache_ttl_s = cache_ttl_s
        self._clock = clock if clock is not None else _zero_clock
        self._on_retry = on_retry
        self._sequence = 0
        #: name -> (lookup result dict, cached-at seconds).
        self._cache: Dict[str, Tuple[Dict[str, object], float]] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.retries = 0
        self.last_attempts = 0

    # -- request ids -------------------------------------------------------

    def _next_request_id(self) -> str:
        """Deterministic per-client ids: ``<client>-<n>``.

        Stable across the retries of one command (the idempotency key)
        and unique across commands of one client; client names must be
        unique per cluster, which the soak harness guarantees.
        """
        self._sequence += 1
        return f"{self.name}-{self._sequence}"

    # -- the retry loop ----------------------------------------------------

    def command(
        self, method: str, params: Dict[str, object],
        trace: Optional[Dict[str, object]] = None,
    ) -> CommandResponse:
        """Issue one command, retrying retryable failures in place.

        ``trace`` is an optional cross-layer trace context
        (``{"id": ..., "parent": ...}``) carried on every attempt of
        the command — retries reuse the same request id *and* the same
        trace, so the whole retry saga lands in one trace record.
        """
        request = CommandRequest.make(
            method, params, self._next_request_id(), trace=trace
        )
        attempts = 0
        last_error = None
        while attempts < self.max_attempts:
            attempts += 1
            response = decode_response(self._execute(request))
            if response.ok:
                self.last_attempts = attempts
                return response
            last_error = response.error
            if last_error is None or not last_error.retryable:
                break
            if attempts < self.max_attempts:
                self.retries += 1
                if self._on_retry is not None:
                    self._on_retry(request.request_id, attempts)
        self.last_attempts = attempts
        code = last_error.code if last_error is not None else "unknown"
        message = last_error.message if last_error is not None else "?"
        raise ClusterCommandError(
            f"{method} {params.get('name', '')!r} failed after "
            f"{attempts} attempt(s): [{code}] {message}",
            code=code, attempts=attempts,
        )

    # -- typed operations --------------------------------------------------

    def register_host(
        self, name: str, node: str,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        result = self.command(
            "register_host", {"name": name, "node": node}, trace=trace
        ).result_dict
        self._cache.pop(str(result.get("name", name)), None)
        return result

    def register_service(
        self, name: str, nodes: List[str],
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        result = self.command(
            "register_service", {"name": name, "nodes": list(nodes)},
            trace=trace,
        ).result_dict
        self._cache.pop(str(result.get("name", name)), None)
        return result

    def rebind(
        self, name: str, node: str,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        result = self.command(
            "rebind", {"name": name, "node": node}, trace=trace
        ).result_dict
        self._cache.pop(str(result.get("name", name)), None)
        return result

    def lookup(
        self, name: str, use_cache: bool = True,
        trace: Optional[Dict[str, object]] = None,
    ) -> Dict[str, object]:
        """Resolve one name, serving fresh-enough answers from cache."""
        now = self._clock()
        if use_cache:
            hit = self._cache.get(name)
            if hit is not None and now - hit[1] <= self.cache_ttl_s:
                self.cache_hits += 1
                return dict(hit[0])
        self.cache_misses += 1
        result = self.command(
            "lookup", {"name": name}, trace=trace
        ).result_dict
        self._cache[name] = (dict(result), now)
        return result

    @property
    def cache_hit_rate(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ClusterClient {self.name!r} seq={self._sequence} "
            f"hit_rate={self.cache_hit_rate:.2f}>"
        )
