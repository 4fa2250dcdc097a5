"""One trace across the whole v2 write path, over real TCP.

The cross-layer propagation story end to end: a client host begins a
trace, sends a traced v2 ``rebind`` over the NDJSON-TCP directory
protocol; the live server stitches its command span in, forwards the
context to the cluster backend; the cluster records its routing
decision; the owning shard's leader and follower record their log
appends.  One trace id, one record, one tree spanning host → directory
→ cluster → both replicas.
"""

import asyncio

import pytest

from repro.directory.cluster.client import ClusterClient
from repro.directory.cluster.cluster import DirectoryCluster
from repro.live.directory import (
    ClusterDirectoryBackend,
    LiveDirectoryClient,
    LiveDirectoryServer,
)
from repro.obs.trace import Tracer, tree_of

pytestmark = pytest.mark.live


def _flatten(node, depth=0):
    yield node["node"], depth
    for child in node["children"]:
        yield from _flatten(child, depth + 1)


def _cluster_server(tracer):
    """A live directory server fronting a 1-shard, rf=2 cluster."""
    cluster = DirectoryCluster(shard_count=1, replication_factor=2)
    cluster.set_tracer(tracer)
    backend = ClusterDirectoryBackend(
        ClusterClient(cluster.execute_raw, name="front")
    )
    server = LiveDirectoryServer(lambda client, query: [], backend=backend)
    server.set_tracer(tracer)
    return cluster, server


def test_traced_rebind_stitches_host_directory_cluster_replicas():
    async def scenario():
        tracer = Tracer()
        cluster, server = _cluster_server(tracer)
        address = await server.start()
        client = LiveDirectoryClient("h1")
        await client.connect(address)
        try:
            await client.register_host("venus.cs.stanford.edu", "venus")
            tid = tracer.begin("h1")
            result = await client.rebind(
                "venus.cs.stanford.edu", "mars",
                trace={"id": tid, "parent": "h1"},
            )
            assert result["node"] == "mars"
            return tracer, tracer.record(tid)
        finally:
            client.close()
            server.stop()

    tracer, record = asyncio.run(scenario())
    assert record is not None
    names = [e.name for e in record.events]
    assert names == [
        "send",             # h1 (the begin)
        "command_received",  # directory, parent=h1
        "command_route",     # cluster, parent=directory
        "follower_apply",    # shard-0/r1, parent=shard-0/r0
        "leader_commit",     # shard-0/r0, parent=cluster
        "command_answered",  # directory
    ]
    # One stitched tree: host -> directory -> cluster -> leader -> follower.
    tree = tree_of(record)
    assert len(tree["roots"]) == 1
    flat = dict(_flatten(tree["roots"][0]))
    assert flat == {
        "h1": 0,
        "directory": 1,
        "cluster": 2,
        "shard-0/r0": 3,
        "shard-0/r1": 4,
    }


def test_traced_retry_replays_dedup_into_same_trace():
    async def scenario():
        tracer = Tracer()
        cluster, server = _cluster_server(tracer)
        address = await server.start()
        client = LiveDirectoryClient("h1")
        await client.connect(address)
        try:
            await client.register_host("a.net", "n1")
            tid = tracer.begin("h1")
            trace = {"id": tid, "parent": "h1"}
            # Simulate a lost response: re-send the same frame bytes.
            request_id = client._next_id()
            first = await client._request_with_id(
                "rebind", {"name": "a.net", "node": "n2"},
                request_id, 1.0, trace=trace,
            )
            second = await client._request_with_id(
                "rebind", {"name": "a.net", "node": "n2"},
                request_id, 1.0, trace=trace,
            )
            assert first == second
            return server, tracer.record(tid)
        finally:
            client.close()
            server.stop()

    server, record = asyncio.run(scenario())
    assert server.dedup_hits == 1
    names = [e.name for e in record.events]
    # The replay shows up in the SAME trace as a dedup_replay span at
    # the directory — never a second commit at the replicas.
    assert names.count("dedup_replay") == 1
    assert names.count("leader_commit") == 1
    assert names.count("follower_apply") == 1
