"""The shard-aware client: same-id retries, typed failures, TTL cache."""

import pytest

from repro.directory.cluster.client import ClusterClient, ClusterCommandError
from repro.directory.cluster.cluster import DirectoryCluster
from repro.directory.cluster.protocol import (
    CommandError,
    CommandRequest,
    CommandResponse,
)


class _Clock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def _cluster_client(cluster, **kwargs):
    return ClusterClient(cluster.execute_raw, **kwargs)


# -- retry-through-failover ------------------------------------------------

def test_write_retries_through_failover_with_the_same_request_id():
    """The end-to-end at-least-once story: a write whose shard is down
    fails retryably; the membership monitor (here: the retry hook)
    promotes a follower; the retry — same request id — lands and wins."""
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    seen_ids = []

    def heal_on_retry(request_id, attempt):
        seen_ids.append(request_id)
        cluster.fail_over(shard_id)

    client = _cluster_client(cluster, on_retry=heal_on_retry)
    client.register_host("h.region.net", "node-a")  # learn the topology
    shard_id = cluster.shard_for("h2.region.net")
    cluster.kill_shard_leader(shard_id)

    result = client.register_host("h2.region.net", "node-b")
    assert result["created"] is True
    assert client.retries == 1
    assert len(set(seen_ids)) == 1  # every retry reused the one id
    assert cluster.request_id_counts()[seen_ids[0]] == 1


def test_replayed_write_is_byte_identical_not_reexecuted():
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    responses = []
    original_execute = cluster.execute_raw

    def recording_execute(request):
        payload = original_execute(request)
        responses.append(payload)
        return payload

    # First delivery succeeds but the "ack is lost": resend manually.
    client = ClusterClient(recording_execute)
    client.rebind("h.region.net", "node-a")
    request_id = f"{client.name}-1"
    replay = original_execute(CommandRequest.make(
        "rebind", {"name": "h.region.net", "node": "node-a"}, request_id,
    ))
    assert replay == responses[0]
    shard = cluster.shards[cluster.shard_for("h.region.net")]
    assert shard.dedup_hits == 1
    assert shard.leader.store.executions[request_id] == 1


def test_retries_exhausted_raises_with_code_and_attempts():
    cluster = DirectoryCluster(shard_count=1, replication_factor=1)
    client = _cluster_client(cluster, max_attempts=3)
    cluster.kill_shard_leader("shard-0")  # rf=1: nobody to promote
    with pytest.raises(ClusterCommandError) as err:
        client.register_host("h.region.net", "node-a")
    assert err.value.code == "shard_unavailable"
    assert err.value.attempts == 3
    assert client.retries == 2


def test_non_retryable_conflict_fails_fast():
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    client = _cluster_client(cluster, max_attempts=4)
    client.register_host("h.region.net", "node-a")
    with pytest.raises(ClusterCommandError) as err:
        client.register_host("h.region.net", "node-b")
    assert err.value.code == "conflict"
    assert err.value.attempts == 1  # conflicts must never burn retries
    assert client.retries == 0


def test_identical_reregistration_is_a_success_noop():
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    client = _cluster_client(cluster)
    first = client.register_host("h.region.net", "node-a")
    again = client.register_host("h.region.net", "node-a")
    assert first["created"] is True
    assert again["created"] is False


# -- the TTL lookup cache --------------------------------------------------

def test_lookup_cache_cold_then_warm():
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    clock = _Clock()
    client = _cluster_client(cluster, cache_ttl_s=5.0, clock=clock)
    client.register_host("h.region.net", "node-a")
    cold = client.lookup("h.region.net")
    warm = client.lookup("h.region.net")
    assert cold == warm
    assert client.cache_misses == 1
    assert client.cache_hits == 1
    assert client.cache_hit_rate == 0.5


def test_lookup_cache_expires_by_ttl():
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    clock = _Clock()
    client = _cluster_client(cluster, cache_ttl_s=1.0, clock=clock)
    client.register_host("h.region.net", "node-a")
    client.lookup("h.region.net")
    clock.t = 2.0  # past the TTL
    client.lookup("h.region.net")
    assert client.cache_misses == 2


def test_own_writes_invalidate_the_cache():
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    clock = _Clock()
    client = _cluster_client(cluster, cache_ttl_s=100.0, clock=clock)
    client.register_host("h.region.net", "node-a")
    assert client.lookup("h.region.net")["node"] == "node-a"
    client.rebind("h.region.net", "node-b")
    assert client.lookup("h.region.net")["node"] == "node-b"


def test_lookup_miss_is_a_typed_not_found():
    cluster = DirectoryCluster(shard_count=2, replication_factor=2)
    client = _cluster_client(cluster)
    with pytest.raises(ClusterCommandError) as err:
        client.lookup("nobody.region.net")
    assert err.value.code == "not_found"


# -- transport-agnosticism -------------------------------------------------

def test_client_speaks_to_any_bytes_transport():
    """The execute callable is the seam: a canned transport works."""

    def canned(request):
        return CommandResponse.failure(
            request.request_id,
            CommandError.make("unavailable", "maintenance window"),
        ).encode()

    client = ClusterClient(canned, max_attempts=2)
    with pytest.raises(ClusterCommandError) as err:
        client.register_host("h.region.net", "n1")
    assert err.value.code == "unavailable"
    assert err.value.attempts == 2
