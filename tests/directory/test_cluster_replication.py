"""Leader/follower replication: zero acked-write loss, proved by replay.

The discipline under test (replica.py's module docstring): followers
append first, the leader last, the ack only after both — so no
acknowledged entry ever exists solely on the leader, and promoting the
most-caught-up follower preserves every acknowledged write.
"""

import pytest

from repro.directory.cluster.cluster import DirectoryCluster
from repro.directory.cluster.log import CommandLog, LogEntry, LogError
from repro.directory.cluster.protocol import CommandRequest, decode_response
from repro.directory.cluster.replica import (
    FOLLOWER,
    LEADER,
    ReplicatedShard,
    ShardUnavailableError,
)


def _write(shard, name, node, request_id):
    return shard.execute(CommandRequest.make(
        "register_host", {"name": name, "node": node}, request_id,
    ))


# -- the log itself --------------------------------------------------------

def test_log_append_enforces_density():
    log = CommandLog()
    log.append(LogEntry(1, 1, "a", "rebind", "{}"))
    with pytest.raises(LogError):
        log.append(LogEntry(3, 1, "b", "rebind", "{}"))


def test_log_append_refuses_term_regression():
    log = CommandLog()
    log.append(LogEntry(1, 3, "a", "rebind", "{}"))
    with pytest.raises(LogError):
        log.append(LogEntry(2, 2, "b", "rebind", "{}"))


def test_prefix_check_spots_divergence():
    a, b = CommandLog(), CommandLog()
    a.append(LogEntry(1, 1, "x", "rebind", "{}"))
    b.append(LogEntry(1, 1, "x", "rebind", "{}"))
    assert a.matches_prefix_of(b)
    a.append(LogEntry(2, 1, "only-mine", "rebind", "{}"))
    b.append(LogEntry(2, 2, "only-yours", "rebind", "{}"))
    assert not a.matches_prefix_of(b)


# -- acknowledgment ordering ----------------------------------------------

def test_acknowledged_writes_reach_every_live_follower():
    shard = ReplicatedShard("s", replication_factor=3)
    for n in range(10):
        _write(shard, f"h{n}.region.net", f"node-{n}", f"w-{n}")
    leader = shard.leader
    for follower in shard.followers():
        assert follower.last_index == leader.last_index == 10
    assert shard.log_lag() == 0


def test_failover_after_leader_crash_loses_zero_acked_writes():
    shard = ReplicatedShard("s", replication_factor=2)
    acked = {}
    for n in range(25):
        name = f"h{n}.region.net"
        acked[name] = _write(shard, name, f"node-{n}", f"w-{n}")
    killed = shard.kill_leader()
    promoted = shard.fail_over()
    assert promoted is not None and promoted != killed
    assert shard.term == 2
    leader = shard.leader
    # Every acknowledged binding survives, and the *log replay* proves
    # it: replaying the survivor's log into a fresh store reproduces
    # the exact state.
    for n in range(25):
        assert leader.store.names[f"h{n}.region.net"] == f"node-{n}"
    from repro.directory.cluster.replica import ShardReplica

    fresh = ShardReplica("s", "s/replay")
    fresh.rebuild_from(leader.log.entries_from(1))
    assert fresh.store.names == leader.store.names


def test_retry_after_failover_returns_byte_identical_response():
    shard = ReplicatedShard("s", replication_factor=2)
    original = _write(shard, "h.region.net", "node-1", "w-retry")
    shard.kill_leader()
    shard.fail_over()
    replay = _write(shard, "h.region.net", "node-1", "w-retry")
    assert replay == original
    assert shard.dedup_hits == 1
    # Dedup means exactly one execution and one log entry.
    assert shard.request_id_counts()["w-retry"] == 1
    assert shard.leader.store.executions["w-retry"] == 1


def test_most_caught_up_follower_wins_promotion():
    shard = ReplicatedShard("s", replication_factor=3)
    _write(shard, "h0.region.net", "n0", "w-0")
    # One follower falls behind (crashed), more writes land, then it
    # returns just before the leader dies: promotion must pick the
    # caught-up follower, not the stale one.
    behind = shard.followers()[0]
    behind.alive = False
    for n in range(1, 6):
        _write(shard, f"h{n}.region.net", f"n{n}", f"w-{n}")
    behind.alive = True  # back, but with a 5-entry hole
    shard.kill_leader()
    promoted = shard.fail_over()
    assert promoted != behind.replica_id
    assert shard.leader.last_index == 6


def test_restarted_replica_catches_up_by_suffix():
    shard = ReplicatedShard("s", replication_factor=2)
    _write(shard, "h0.region.net", "n0", "w-0")
    follower = shard.followers()[0]
    follower.alive = False
    for n in range(1, 4):
        _write(shard, f"h{n}.region.net", f"n{n}", f"w-{n}")
    replayed = shard.restart_replica(follower.replica_id)
    assert replayed == 3  # only the missed suffix, not the whole log
    assert follower.last_index == shard.leader.last_index


def test_diverged_replica_rebuilds_by_full_replay():
    shard = ReplicatedShard("s", replication_factor=2)
    _write(shard, "h0.region.net", "n0", "w-0")
    old_leader_id = shard.kill_leader()
    shard.fail_over()
    for n in range(1, 4):
        _write(shard, f"h{n}.region.net", f"n{n}", f"w-{n}")
    # The old leader's log (1 entry, term 1) is still a prefix here;
    # force divergence by giving it a private term-1 tail no one saw.
    old_leader = shard.replica(old_leader_id)
    old_leader.log.append(
        LogEntry(2, 1, "ghost", "rebind",
                 '{"name":"g.region.net","node":"ghost"}')
    )
    old_leader.store.apply(old_leader.log.entry_at(2))
    replayed = shard.restart_replica(old_leader_id)
    assert replayed == shard.leader.last_index  # full rebuild
    assert "g.region.net" not in old_leader.store.names
    assert old_leader.store.names == shard.leader.store.names


def test_leaderless_shard_is_unavailable_not_wrong():
    shard = ReplicatedShard("s", replication_factor=1)
    shard.kill_leader()
    with pytest.raises(ShardUnavailableError):
        _write(shard, "h.region.net", "n", "w-0")
    assert shard.fail_over() is None  # nobody to promote


def test_roles_are_singular_after_failover():
    shard = ReplicatedShard("s", replication_factor=3)
    shard.kill_leader()
    shard.fail_over()
    leaders = [r for r in shard.replicas if r.role == LEADER]
    followers = [r for r in shard.replicas if r.role == FOLLOWER]
    assert len(leaders) == 1
    assert len(followers) == 2


# -- cluster-level routing -----------------------------------------------

def _populate(cluster, count):
    names = []
    for n in range(count):
        name = f"h{n}.region{n % 23}.net"
        response = cluster.execute(CommandRequest.make(
            "register_host", {"name": name, "node": f"node-{n}"},
            f"seed-{n}",
        ))
        assert response.ok, response
        names.append(name)
    return names


def test_commands_route_by_region_prefix():
    cluster = DirectoryCluster(shard_count=4, replication_factor=2)
    _populate(cluster, 80)
    shard_id = cluster.shard_for("h0.region0.net")
    leader = cluster.shards[shard_id].leader
    assert "h0.region0.net" in leader.store.names


def test_unavailable_shard_yields_retryable_error_response():
    cluster = DirectoryCluster(shard_count=2, replication_factor=1)
    names = _populate(cluster, 20)
    target = names[0]
    shard_id = cluster.shard_for(target)
    cluster.kill_shard_leader(shard_id)
    response = decode_response(cluster.execute_raw(CommandRequest.make(
        "rebind", {"name": target, "node": "elsewhere"}, "r-1",
    )))
    assert not response.ok
    assert response.error.code == "shard_unavailable"
    assert response.error.retryable
