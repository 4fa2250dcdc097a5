"""Trace continuity across shard failover.

A traced v2 rebind whose owning shard loses its leader mid-command must
still come out as ONE stitched trace: the unavailable attempt, the
promotion that fixed it, and the retry's commit all land in the same
trace record, parented into one tree (host → cluster → shard →
replicas).  This is the observability counterpart of the dedup
guarantee — retries reuse the request id *and* the trace.
"""

import pytest

from repro.directory.cluster.client import ClusterClient
from repro.directory.cluster.cluster import DirectoryCluster
from repro.obs.recorder import FlightRecorder
from repro.obs.trace import Tracer, tree_of


class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def now(self) -> float:
        return self.t


def _flatten(node, depth=0):
    yield node["node"], depth
    for child in node["children"]:
        yield from _flatten(child, depth + 1)


def test_traced_rebind_survives_leader_kill_as_one_trace():
    clock = _Clock()
    tracer = Tracer(clock=clock.now)
    cluster = DirectoryCluster(shard_count=1, replication_factor=2)
    cluster.set_tracer(tracer)

    client = ClusterClient(
        cluster.execute_raw, name="c1", max_attempts=4,
        clock=clock.now,
        on_retry=lambda rid, attempt: cluster.fail_over("shard-0"),
    )
    client.register_host("a.example.net", "node-1")

    # Kill the leader, then issue a traced rebind: the first attempt
    # finds the shard leaderless; the on_retry hook plays the part of
    # the membership monitor and promotes; the retry commits.
    cluster.kill_shard_leader("shard-0")
    tid = tracer.begin("client-host")
    assert tid != 0
    result = client.rebind(
        "a.example.net", "node-2",
        trace={"id": tid, "parent": "client-host"},
    )
    assert result["node"] == "node-2"
    assert client.last_attempts == 2  # exactly one retry

    record = tracer.record(tid)
    assert record is not None
    names = [e.name for e in record.events]
    # The whole saga is one record: route, unavailable, promotion,
    # re-route, commit — in causal order.
    assert names == [
        "send",
        "command_route",
        "shard_unavailable",
        "leader_promoted",
        "command_route",
        "leader_commit",
    ]
    promoted = [e for e in record.events if e.name == "leader_promoted"]
    assert promoted[0].node == "shard-0/r1"
    assert promoted[0].attrs["term"] == 2
    commit = [e for e in record.events if e.name == "leader_commit"]
    assert commit[0].node == "shard-0/r1"

    # The parent chain renders as one tree spanning all four layers.
    tree = tree_of(record)
    assert len(tree["roots"]) == 1
    flat = dict(_flatten(tree["roots"][0]))
    assert flat == {
        "client-host": 0,
        "cluster": 1,
        "shard-0": 2,
        "shard-0/r1": 3,
    }


def test_replica_events_are_stamped_on_the_installed_clocks():
    """The cluster keeps no clock: a shard's trace events take the
    tracer's and its flight-recorder events the recorder's, each read
    when the event happens."""
    clock = _Clock()
    tracer = Tracer(clock=clock.now)
    recorder = FlightRecorder(clock=lambda: 1000.0 + clock.t)
    cluster = DirectoryCluster(shard_count=1, replication_factor=2)
    cluster.set_tracer(tracer)
    cluster.set_recorder(recorder)
    client = ClusterClient(cluster.execute_raw, name="c3", clock=clock.now)

    clock.t = 2.5
    tid = tracer.begin("client-host")
    clock.t = 4.0
    client.register_host(
        "c.example.net", "node-1", trace={"id": tid, "parent": "client-host"},
    )
    clock.t = 6.0
    cluster.kill_shard_leader("shard-0")
    clock.t = 7.25
    cluster.fail_over("shard-0")

    stamps = {e.name: e.t for e in tracer.record(tid).events}
    assert stamps == {
        "send": 2.5, "command_route": 4.0, "follower_apply": 4.0,
        "leader_commit": 4.0,
    }
    assert [(e.name, e.t) for e in recorder.events()] == [
        ("log_appended", 1004.0),
        ("leader_killed", 1006.0),
        ("leader_promoted", 1007.25),
    ]


def test_untraced_commands_record_nothing():
    tracer = Tracer()
    cluster = DirectoryCluster(shard_count=1, replication_factor=2)
    cluster.set_tracer(tracer)
    client = ClusterClient(cluster.execute_raw, name="c2")
    client.register_host("b.example.net", "node-1")
    client.lookup("b.example.net")
    assert tracer.records == {}


def test_failover_with_no_awaiting_traces_stays_silent():
    tracer = Tracer()
    cluster = DirectoryCluster(shard_count=1, replication_factor=2)
    cluster.set_tracer(tracer)
    cluster.kill_shard_leader("shard-0")
    cluster.fail_over("shard-0")
    assert tracer.records == {}
