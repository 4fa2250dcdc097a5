"""One shard's replica group: leader/follower log replication.

The replication discipline, in acknowledgment order:

1. the leader builds the :class:`LogEntry` for a write,
2. every **live follower** appends + applies it first,
3. the leader appends + applies it last,
4. only then is the response released to the client.

Because the leader commits *last*, there is never an acknowledged (or
even leader-applied) entry that lives only on the leader — so when the
leader dies, promoting the most-caught-up live follower preserves every
acknowledged write by construction.  A follower can briefly hold an
entry the leader never applied (crash between steps 2 and 3); that
write was never acknowledged, the client retries it, and the dedup
table answers the retry from the entry that survived — at-least-once
delivery collapsing to exactly-once execution.

Failover bumps ``term``; a rejoining replica whose log is not a prefix
of the new leader's (it wrote under a dead leadership) rebuilds from
scratch by full log replay — ``O(log)`` but unconditionally correct,
and the replay *is* the recovery proof the acceptance criteria ask for.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.directory.cluster.log import CommandLog, LogEntry
from repro.directory.cluster.protocol import (
    CommandRequest,
    canonical_params,
)
from repro.directory.cluster.store import ShardStore
from repro.obs.recorder import NULL_RECORDER
from repro.obs.trace import NULL_TRACER


def _zero_clock() -> float:
    return 0.0

#: Replica roles.
LEADER = "leader"
FOLLOWER = "follower"


class ShardUnavailableError(RuntimeError):
    """No live leader can serve this shard right now (retryable)."""


class ShardReplica:
    """One copy of a shard: a log, the store it materializes, a role."""

    def __init__(self, shard_id: str, replica_id: str) -> None:
        self.shard_id = shard_id
        self.replica_id = replica_id
        self.log = CommandLog()
        self.store = ShardStore(shard_id)
        self.role = FOLLOWER
        self.alive = True

    @property
    def last_index(self) -> int:
        return self.log.last_index

    def append_and_apply(self, entry: LogEntry) -> bytes:
        """Append one entry and run it through the state machine."""
        self.log.append(entry)
        return self.store.apply(entry)

    def rebuild_from(self, entries: Tuple[LogEntry, ...]) -> None:
        """Discard everything and replay ``entries`` from index 1."""
        self.log = CommandLog()
        self.store.reset()
        for entry in entries:
            self.append_and_apply(entry)

    def catch_up_from(self, source: "ShardReplica") -> int:
        """Make this replica's log equal to ``source``'s; return entries
        replayed.  Fast path appends the missing suffix; a diverged log
        (not a prefix of the source's) rebuilds by full replay."""
        if self.log.matches_prefix_of(source.log):
            missing = source.log.entries_from(self.last_index + 1)
            for entry in missing:
                self.append_and_apply(entry)
            return len(missing)
        entries = source.log.entries_from(1)
        self.rebuild_from(entries)
        return len(entries)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "down"
        return (
            f"<ShardReplica {self.replica_id} {self.role} {state} "
            f"log={self.last_index}>"
        )


class ReplicatedShard:
    """A leader plus followers serving one slice of the namespace."""

    def __init__(
        self, shard_id: str, replication_factor: int = 2
    ) -> None:
        if replication_factor < 1:
            raise ValueError("replication_factor must be >= 1")
        self.shard_id = shard_id
        self.term = 1
        self.failovers = 0
        self.dedup_hits = 0
        self.commands_applied = 0
        #: Observability hooks — NULL by default, installed by the
        #: cluster (or a test) via the tracer/recorder install pattern.
        self.tracer = NULL_TRACER
        self.recorder = NULL_RECORDER
        self.clock: Callable[[], float] = _zero_clock
        #: Trace ids that hit this shard while leaderless: the next
        #: promotion is stitched into them (trace continuity across
        #: failover).
        self._awaiting_traces: Set[int] = set()
        self.replicas: List[ShardReplica] = []
        for n in range(replication_factor):
            replica = ShardReplica(shard_id, f"{shard_id}/r{n}")
            self.replicas.append(replica)
        self.replicas[0].role = LEADER

    # -- roster ------------------------------------------------------------

    @property
    def leader(self) -> Optional[ShardReplica]:
        for replica in self.replicas:
            if replica.role == LEADER and replica.alive:
                return replica
        return None

    def followers(self, live_only: bool = True) -> List[ShardReplica]:
        return [
            r for r in self.replicas
            if r.role == FOLLOWER and (r.alive or not live_only)
        ]

    def replica(self, replica_id: str) -> ShardReplica:
        for r in self.replicas:
            if r.replica_id == replica_id:
                return r
        raise KeyError(replica_id)

    def log_lag(self) -> int:
        """Worst live-follower lag behind the leader (entries)."""
        leader = self.leader
        if leader is None:
            return 0
        lags = [
            leader.last_index - f.last_index for f in self.followers()
        ]
        return max(lags) if lags else 0

    # -- command execution -------------------------------------------------

    def execute(self, request: CommandRequest) -> bytes:
        """Serve one command; return canonical response bytes.

        Raises :class:`ShardUnavailableError` when leaderless — the
        caller (cluster front) translates that into the retryable
        ``shard_unavailable`` protocol error.
        """
        tid = request.trace_id
        traced = tid and self.tracer.enabled
        parent = request.trace_dict.get("parent", "") if traced else ""
        leader = self.leader
        if leader is None:
            if traced:
                self.tracer.event(
                    tid, self.clock(), self.shard_id, "shard_unavailable",
                    parent=parent, term=self.term,
                )
                self._awaiting_traces.add(tid)
            raise ShardUnavailableError(
                f"{self.shard_id} has no live leader (term {self.term})"
            )
        if not request.is_write:
            if traced:
                self.tracer.event(
                    tid, self.clock(), leader.replica_id, "leader_read",
                    parent=parent, method=request.method,
                )
            return leader.store.read(request).encode()
        cached = leader.store.cached_response(request.request_id)
        if cached is not None:
            self.dedup_hits += 1
            if traced:
                self.tracer.event(
                    tid, self.clock(), leader.replica_id, "dedup_replay",
                    parent=parent, request_id=request.request_id,
                )
            return cached
        entry = LogEntry(
            index=leader.last_index + 1,
            term=self.term,
            request_id=request.request_id,
            method=request.method,
            params_json=canonical_params(request.params_dict),
        )
        # Followers first (see module docstring for why this ordering
        # is the zero-acked-loss argument), leader last, then ack.
        for follower in self.followers():
            if follower.last_index < leader.last_index:
                follower.catch_up_from(leader)
            follower.append_and_apply(entry)
            if traced:
                self.tracer.event(
                    tid, self.clock(), follower.replica_id,
                    "follower_apply", parent=leader.replica_id,
                    index=entry.index,
                )
        response = leader.append_and_apply(entry)
        self.commands_applied += 1
        if traced:
            self.tracer.event(
                tid, self.clock(), leader.replica_id, "leader_commit",
                parent=parent, index=entry.index, term=self.term,
            )
        if self.recorder.enabled:
            self.recorder.record(
                "log_appended", node=self.shard_id, t=self.clock(),
                index=entry.index, method=request.method,
                request_id=request.request_id, term=self.term,
            )
        return response

    # -- failure & recovery ------------------------------------------------

    def kill_leader(self) -> Optional[str]:
        """Crash the current leader; returns its replica id (or None)."""
        leader = self.leader
        if leader is None:
            return None
        leader.alive = False
        if self.recorder.enabled:
            self.recorder.record(
                "leader_killed", node=self.shard_id, t=self.clock(),
                replica=leader.replica_id, term=self.term,
            )
        return leader.replica_id

    def fail_over(self) -> Optional[str]:
        """Promote the most-caught-up live follower; bump the term.

        Returns the new leader's replica id, or None when no live
        follower exists (the shard stays unavailable until a restart).
        """
        candidates = self.followers()
        if not candidates:
            return None
        # Most-caught-up wins; replica id breaks ties deterministically.
        new_leader = max(
            candidates, key=lambda r: (r.last_index, r.replica_id)
        )
        for replica in self.replicas:
            if replica.role == LEADER:
                replica.role = FOLLOWER
        new_leader.role = LEADER
        self.term += 1
        self.failovers += 1
        if self.recorder.enabled:
            self.recorder.record(
                "leader_promoted", node=self.shard_id, t=self.clock(),
                replica=new_leader.replica_id, term=self.term,
            )
        # Stitch the promotion into every trace that found this shard
        # leaderless: the client's retry will land on the new leader,
        # and the trace shows *why* the retry succeeded.
        if self._awaiting_traces and self.tracer.enabled:
            now = self.clock()
            for tid in self._awaiting_traces:
                self.tracer.event(
                    tid, now, new_leader.replica_id, "leader_promoted",
                    parent=self.shard_id, term=self.term,
                )
        self._awaiting_traces.clear()
        return new_leader.replica_id

    def restart_replica(self, replica_id: str) -> int:
        """Bring a crashed replica back as a follower and catch it up.

        Returns the number of entries replayed to converge.
        """
        replica = self.replica(replica_id)
        replica.alive = True
        replica.role = FOLLOWER
        leader = self.leader
        replayed = 0
        if leader is not None and leader is not replica:
            replayed = replica.catch_up_from(leader)
        if self.recorder.enabled:
            self.recorder.record(
                "replica_restarted", node=self.shard_id, t=self.clock(),
                replica=replica_id, replayed=replayed, term=self.term,
            )
        return replayed

    # -- forensics ---------------------------------------------------------

    def authoritative_log(self) -> CommandLog:
        """The current leader's log (falls back to longest live log)."""
        leader = self.leader
        if leader is not None:
            return leader.log
        live = [r for r in self.replicas if r.alive]
        pool = live or self.replicas
        return max(pool, key=lambda r: r.last_index).log

    def request_id_counts(self) -> Dict[str, int]:
        return self.authoritative_log().request_id_counts()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        leader = self.leader
        return (
            f"<ReplicatedShard {self.shard_id} term={self.term} "
            f"leader={leader.replica_id if leader else None}>"
        )
