"""The shard state machine: bindings, applied deterministically.

A :class:`ShardStore` is a pure function of the log prefix it has
applied: ``apply`` takes one :class:`~repro.directory.cluster.log.
LogEntry` and returns the **canonical response bytes** for that
command.  Determinism is the whole point — the leader and every
follower compute byte-identical responses for the same entry, so the
dedup cache (request id → response bytes) survives failover intact and
a retried write is answered with exactly the bytes the dead leader
would have sent.

Binding semantics match the idempotent
:meth:`repro.directory.service.DirectoryService.register_host`
contract: re-registering an identical binding is a no-op success,
a contradictory binding is a typed ``conflict``, and ``rebind`` is the
explicit move operation (§6.3's rebinding made a first-class command).
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.directory.cluster.log import LogEntry
from repro.directory.cluster.protocol import (
    CommandError,
    CommandRequest,
    CommandResponse,
)
from repro.directory.names import HierarchicalName


class ShardStore:
    """One shard's materialized directory state plus its dedup table."""

    def __init__(self, shard_id: str) -> None:
        self.shard_id = shard_id
        self.names: Dict[str, str] = {}              # name -> node
        self.services: Dict[str, Tuple[str, ...]] = {}  # name -> providers
        self.applied_index = 0
        #: request id -> canonical response bytes (at-least-once armor).
        self._dedup: Dict[str, bytes] = {}
        #: request id -> times the command body actually executed.
        self.executions: Dict[str, int] = {}

    # -- dedup -------------------------------------------------------------

    def cached_response(self, request_id: str) -> Optional[bytes]:
        return self._dedup.get(request_id)

    # -- log application ---------------------------------------------------

    def apply(self, entry: LogEntry) -> bytes:
        """Execute one log entry; return its canonical response bytes.

        Must be called in log order exactly once per entry — the
        replica enforces that; this method checks it.
        """
        if entry.index != self.applied_index + 1:
            raise ValueError(
                f"apply out of order: entry {entry.index}, "
                f"store at {self.applied_index}"
            )
        self.applied_index = entry.index
        cached = self._dedup.get(entry.request_id)
        if cached is not None:
            # A request id can reach the log twice only if dedup was
            # bypassed upstream; answering from cache keeps state safe
            # but the executions table will show the double entry.
            return cached
        self.executions[entry.request_id] = (
            self.executions.get(entry.request_id, 0) + 1
        )
        response = self._execute(
            entry.method, entry.params, entry.request_id, entry.index
        )
        encoded = response.encode()
        self._dedup[entry.request_id] = encoded
        return encoded

    def _execute(
        self,
        method: str,
        params: Dict[str, object],
        request_id: str,
        index: int,
    ) -> CommandResponse:
        try:
            if method == "register_host":
                return self._register_host(params, request_id, index)
            if method == "register_service":
                return self._register_service(params, request_id, index)
            if method == "rebind":
                return self._rebind(params, request_id, index)
        except (KeyError, TypeError, ValueError) as exc:
            return CommandResponse.failure(request_id, CommandError.make(
                "bad_request", f"{method}: {exc}",
            ))
        return CommandResponse.failure(request_id, CommandError.make(
            "unknown_method", f"no such write command {method!r}",
        ))

    # -- write commands ----------------------------------------------------

    @staticmethod
    def _name_param(params: Dict[str, object]) -> str:
        return str(HierarchicalName.parse(str(params["name"])))

    def _register_host(
        self, params: Dict[str, object], request_id: str, index: int
    ) -> CommandResponse:
        name = self._name_param(params)
        node = str(params["node"])
        existing = self.names.get(name)
        if existing is not None and existing != node:
            return CommandResponse.failure(request_id, CommandError.make(
                "conflict",
                f"{name} is bound to {existing}, refusing {node}",
                {"name": name, "bound_to": existing},
            ))
        if name in self.services:
            return CommandResponse.failure(request_id, CommandError.make(
                "conflict", f"{name} is a service name",
                {"name": name},
            ))
        created = existing is None
        self.names[name] = node
        return CommandResponse.success(request_id, {
            "name": name, "node": node, "created": created, "index": index,
        })

    def _register_service(
        self, params: Dict[str, object], request_id: str, index: int
    ) -> CommandResponse:
        name = self._name_param(params)
        raw = params["nodes"]
        if not isinstance(raw, (list, tuple)) or not raw:
            raise ValueError("nodes must be a non-empty list")
        nodes = tuple(str(n) for n in raw)
        existing = self.services.get(name)
        if existing is not None and existing != nodes:
            return CommandResponse.failure(request_id, CommandError.make(
                "conflict",
                f"{name} is a service with providers {list(existing)}",
                {"name": name, "bound_to": list(existing)},
            ))
        if name in self.names:
            return CommandResponse.failure(request_id, CommandError.make(
                "conflict", f"{name} is a host name", {"name": name},
            ))
        created = existing is None
        self.services[name] = nodes
        return CommandResponse.success(request_id, {
            "name": name, "nodes": list(nodes), "created": created,
            "index": index,
        })

    def _rebind(
        self, params: Dict[str, object], request_id: str, index: int
    ) -> CommandResponse:
        name = self._name_param(params)
        node = str(params["node"])
        previous = self.names.get(name)
        self.names[name] = node
        return CommandResponse.success(request_id, {
            "name": name, "node": node,
            "moved": previous is not None and previous != node,
            "index": index,
        })

    # -- reads (unlogged, leader-served) -----------------------------------

    def read(self, request: CommandRequest) -> CommandResponse:
        params = request.params_dict
        if request.method == "lookup":
            try:
                name = self._name_param(params)
            except (KeyError, ValueError) as exc:
                return CommandResponse.failure(
                    request.request_id,
                    CommandError.make("bad_request", f"lookup: {exc}"),
                )
            node = self.names.get(name)
            if node is not None:
                return CommandResponse.success(request.request_id, {
                    "name": name, "kind": "host", "node": node,
                    "shard": self.shard_id,
                })
            providers = self.services.get(name)
            if providers is not None:
                return CommandResponse.success(request.request_id, {
                    "name": name, "kind": "service",
                    "nodes": list(providers), "shard": self.shard_id,
                })
            return CommandResponse.failure(
                request.request_id,
                CommandError.make(
                    "not_found", f"no binding for {name}", {"name": name}
                ),
            )
        if request.method == "stats":
            return CommandResponse.success(request.request_id, {
                "shard": self.shard_id,
                "names": len(self.names),
                "services": len(self.services),
                "applied_index": self.applied_index,
            })
        return CommandResponse.failure(
            request.request_id,
            CommandError.make(
                "unknown_method",
                f"no such read command {request.method!r}",
            ),
        )

    # -- recovery -----------------------------------------------------------

    def reset(self) -> None:
        """Forget everything (rebuild-from-log path)."""
        self.names.clear()
        self.services.clear()
        self.applied_index = 0
        self._dedup.clear()
        self.executions.clear()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ShardStore {self.shard_id} names={len(self.names)} "
            f"applied={self.applied_index}>"
        )
