"""The sharded directory cluster: ring + replica groups.

:class:`DirectoryCluster` is the control-plane membership view: it owns
the :class:`~repro.directory.cluster.ring.ConsistentHashRing` and one
:class:`~repro.directory.cluster.replica.ReplicatedShard` per shard.
Commands route by the name's prefix key; a command landing on a
leaderless shard comes back as the retryable ``shard_unavailable``
error, and the shard-aware client retries it through failover with the
same request id.

Observability (per-shard labels on one metric family each):

* ``directory_shard_names`` (gauge) — ownership size,
* ``directory_shard_log_lag`` (gauge) — worst follower lag,
* ``directory_shard_failovers`` (counter),
* ``directory_dedup_hits`` (counter) — retries answered from cache,
* ``directory_commands_applied`` (counter).
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.directory.cluster.protocol import (
    CommandError,
    CommandRequest,
    CommandResponse,
)
from repro.directory.cluster.replica import (
    ReplicatedShard,
    ShardUnavailableError,
)
from repro.directory.cluster.ring import (
    ConsistentHashRing,
    DEFAULT_VNODES,
    shard_key,
)
from repro.obs.recorder import NULL_RECORDER
from repro.obs.registry import Counter, Gauge, MetricsRegistry
from repro.obs.trace import NULL_TRACER


def _zero_clock() -> float:
    return 0.0


class _ShardMetrics:
    """The obs handles for one shard (pull-time; never hot-path)."""

    def __init__(self, shard: ReplicatedShard) -> None:
        self.names = Gauge("directory_shard_names")
        self.log_lag = Gauge("directory_shard_log_lag")
        self.failovers = Counter("directory_shard_failovers")
        self.dedup_hits = Counter("directory_dedup_hits")
        self.commands = Counter("directory_commands_applied")
        self._shard = shard

    def refresh(self) -> None:
        shard = self._shard
        leader = shard.leader
        if leader is not None:
            self.names.set(
                len(leader.store.names) + len(leader.store.services)
            )
        self.log_lag.set(shard.log_lag())
        self.failovers.count = shard.failovers
        self.dedup_hits.count = shard.dedup_hits
        self.commands.count = shard.commands_applied

    def register(self, registry: MetricsRegistry, shard_id: str) -> None:
        for metric in (
            self.names, self.log_lag, self.failovers,
            self.dedup_hits, self.commands,
        ):
            registry.register(metric, shard=shard_id)


class DirectoryCluster:
    """A horizontally sharded, replicated §3 name directory."""

    def __init__(
        self,
        shard_count: int = 4,
        replication_factor: int = 2,
        vnodes: int = DEFAULT_VNODES,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if shard_count < 1:
            raise ValueError("shard_count must be >= 1")
        self.replication_factor = replication_factor
        self.ring = ConsistentHashRing(vnodes=vnodes)
        self.shards: Dict[str, ReplicatedShard] = {}
        self._metrics: Dict[str, _ShardMetrics] = {}
        self._registry = registry
        self.tracer = NULL_TRACER
        self.recorder = NULL_RECORDER
        self._clock = _zero_clock
        for n in range(shard_count):
            self._boot_shard(f"shard-{n}")

    def _boot_shard(self, shard_id: str) -> ReplicatedShard:
        shard = ReplicatedShard(shard_id, self.replication_factor)
        shard.tracer = self.tracer
        shard.recorder = self.recorder
        shard.clock = self._clock
        self.ring.add(shard_id)
        self.shards[shard_id] = shard
        metrics = _ShardMetrics(shard)
        self._metrics[shard_id] = metrics
        if self._registry is not None:
            metrics.register(self._registry, shard_id)
        return shard

    # -- observability installation ----------------------------------------

    def set_tracer(self, tracer) -> None:
        """Install one tracer on the cluster front and every shard."""
        self.tracer = tracer
        for shard in self.shards.values():
            shard.tracer = tracer

    def set_recorder(self, recorder) -> None:
        """Install one flight recorder on every shard."""
        self.recorder = recorder
        for shard in self.shards.values():
            shard.recorder = recorder

    def set_clock(self, clock) -> None:
        """Install the timestamp source observability events use."""
        self._clock = clock
        for shard in self.shards.values():
            shard.clock = clock

    # -- routing -----------------------------------------------------------

    def shard_for(self, name: str) -> str:
        return self.ring.owner(name)

    def execute_raw(self, request: CommandRequest) -> bytes:
        """Route one command to its owning shard; canonical bytes back."""
        name = request.params_dict.get("name")
        if name is None:
            return CommandResponse.failure(
                request.request_id,
                CommandError.make(
                    "bad_request", f"{request.method} needs a 'name' param"
                ),
            ).encode()
        try:
            shard_id = self.shard_for(str(name))
        except ValueError as exc:
            return CommandResponse.failure(
                request.request_id,
                CommandError.make("bad_request", str(exc)),
            ).encode()
        shard = self.shards[shard_id]
        tid = request.trace_id
        if tid and self.tracer.enabled:
            # Record the routing decision under the parent we were
            # handed, then hand the shard a context parented on the
            # cluster — each layer owns exactly one level of the tree.
            self.tracer.event(
                tid, self._clock(), "cluster", "command_route",
                parent=request.trace_dict.get("parent", ""),
                shard=shard_id, method=request.method,
            )
            request = request.with_trace(
                {**request.trace_dict, "parent": "cluster"}
            )
        try:
            response = shard.execute(request)
        except ShardUnavailableError as exc:
            return CommandResponse.failure(
                request.request_id,
                CommandError.make(
                    "shard_unavailable", str(exc), {"shard": shard_id},
                ),
            ).encode()
        self._metrics[shard_id].refresh()
        return response

    def execute(self, request: CommandRequest) -> CommandResponse:
        """Typed-object convenience over :meth:`execute_raw`."""
        from repro.directory.cluster.protocol import decode_response

        return decode_response(self.execute_raw(request))

    # -- failure & recovery (membership-monitor role) ----------------------

    def kill_shard_leader(self, shard_id: str) -> Optional[str]:
        return self.shards[shard_id].kill_leader()

    def fail_over(self, shard_id: str) -> Optional[str]:
        promoted = self.shards[shard_id].fail_over()
        self._metrics[shard_id].refresh()
        return promoted

    def restart_replica(self, shard_id: str, replica_id: str) -> int:
        replayed = self.shards[shard_id].restart_replica(replica_id)
        self._metrics[shard_id].refresh()
        return replayed

    # -- whole-cluster views -----------------------------------------------

    def total_names(self) -> int:
        total = 0
        for shard in self.shards.values():
            replica = shard.leader or max(
                shard.replicas, key=lambda r: r.last_index
            )
            total += len(replica.store.names) + len(replica.store.services)
        return total

    def request_id_counts(self) -> Dict[str, int]:
        """Log entries per request id across every shard's leader log."""
        counts: Dict[str, int] = {}
        for shard in self.shards.values():
            for request_id, n in shard.request_id_counts().items():
                counts[request_id] = counts.get(request_id, 0) + n
        return counts

    def refresh_metrics(self) -> None:
        for metrics in self._metrics.values():
            metrics.refresh()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<DirectoryCluster shards={len(self.shards)} "
            f"rf={self.replication_factor} names={self.total_names()}>"
        )


#: Re-export for callers building keys by hand (bench, tests).
__all__ = [
    "DirectoryCluster",
    "shard_key",
]
