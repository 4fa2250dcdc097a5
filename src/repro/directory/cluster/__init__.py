"""The sharded, replicated directory cluster (ROADMAP item 1).

§3 makes routes directory attributes, which concentrates every lookup,
register and rebind on one name directory.  This package makes that
directory horizontal:

* :mod:`repro.directory.cluster.ring` — consistent hashing over
  hierarchical name *prefixes* (a region's bindings co-locate);
* :mod:`repro.directory.cluster.log` /
  :mod:`~repro.directory.cluster.store` — per-shard append-only command
  log and the deterministic state machine it materializes;
* :mod:`repro.directory.cluster.replica` — leader/follower replication
  with followers-first acknowledgment, most-caught-up promotion and
  replay-based rejoin;
* :mod:`repro.directory.cluster.cluster` — the membership front:
  routing and per-shard observability;
* :mod:`repro.directory.cluster.client` — the shard-aware client with
  idempotent retries and the TTL lookup cache;
* :mod:`repro.directory.cluster.protocol` — the versioned (v2) command
  protocol shared with the live NDJSON directory;
* :mod:`repro.directory.cluster.chaos` — shard-failover soaks feeding
  the PR 5 invariant checker.
"""

from repro.directory.cluster.client import ClusterClient, ClusterCommandError
from repro.directory.cluster.cluster import DirectoryCluster
from repro.directory.cluster.log import CommandLog, LogEntry, LogError
from repro.directory.cluster.protocol import (
    CommandError,
    CommandRequest,
    CommandResponse,
    PROTOCOL_V1,
    PROTOCOL_V2,
    ProtocolError,
    VersionError,
    canonical_encode,
    decode_response,
)
from repro.directory.cluster.replica import (
    FOLLOWER,
    LEADER,
    ReplicatedShard,
    ShardReplica,
    ShardUnavailableError,
)
from repro.directory.cluster.ring import (
    ConsistentHashRing,
    RingError,
    shard_key,
)
from repro.directory.cluster.store import ShardStore

__all__ = [
    "ClusterClient",
    "ClusterCommandError",
    "CommandError",
    "CommandLog",
    "CommandRequest",
    "CommandResponse",
    "ConsistentHashRing",
    "DirectoryCluster",
    "FOLLOWER",
    "LEADER",
    "LogEntry",
    "LogError",
    "PROTOCOL_V1",
    "PROTOCOL_V2",
    "ProtocolError",
    "ReplicatedShard",
    "RingError",
    "ShardReplica",
    "ShardStore",
    "ShardUnavailableError",
    "VersionError",
    "canonical_encode",
    "decode_response",
    "shard_key",
]
