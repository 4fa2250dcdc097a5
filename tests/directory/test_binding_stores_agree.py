"""The two binding stores agree: one write script, the same outcomes.

The in-sim :class:`~repro.directory.service.DirectoryService` and the
replicated :class:`~repro.directory.cluster.cluster.DirectoryCluster`
(through its :class:`~repro.directory.cluster.client.ClusterClient`)
keep the same bindings under one rule each: a retried identical write is
a no-op, a contradictory one is a ``conflict``, ``rebind`` moves a host
name, and a name is a host or a service, never both.  Hypothesis drives
both with the same script of writes; every write's outcome and every
name's final resolution must match.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.host import SirpentHost
from repro.directory.cluster.client import ClusterClient, ClusterCommandError
from repro.directory.cluster.cluster import DirectoryCluster
from repro.directory.service import BindingConflictError, DirectoryService
from repro.net.topology import Topology
from repro.sim.engine import Simulator

NAMES = ("web.lcs.mit.edu", "print.lcs.mit.edu", "venus.cs.stanford.edu")
NODES = ("h1", "h2", "h3")

nodes = st.sampled_from(NODES)
writes = st.one_of(
    st.tuples(st.just("register_host"), st.sampled_from(NAMES), nodes),
    st.tuples(st.just("rebind"), st.sampled_from(NAMES), nodes),
    st.tuples(
        st.just("register_service"), st.sampled_from(NAMES),
        st.lists(nodes, min_size=1, max_size=3, unique=True),
    ),
)


def _directory() -> DirectoryService:
    sim = Simulator()
    topology = Topology(sim)
    for node in NODES:
        topology.add_node(SirpentHost(sim, node))
    return DirectoryService(sim, topology)


def _on_directory(directory, method, name, target):
    write = {
        "register_host": lambda: directory.register_host(target, name),
        "register_service": lambda: directory.register_service(name, target),
        "rebind": lambda: directory.rebind_host(target, name),
    }[method]
    try:
        write()
    except BindingConflictError:
        return "conflict"
    return "ok"


def _on_cluster(client, method, name, target):
    try:
        getattr(client, method)(name, target)
    except ClusterCommandError as exc:
        return exc.code
    return "ok"


def _resolved(client, name):
    try:
        found = client.lookup(name, use_cache=False)
    except ClusterCommandError as exc:
        assert exc.code == "not_found"
        return []
    return found["nodes"] if found["kind"] == "service" else [found["node"]]


@settings(max_examples=200, deadline=None)
@given(script=st.lists(writes, max_size=12))
def test_one_write_script_has_one_outcome_on_both_stores(script):
    directory = _directory()
    client = ClusterClient(
        DirectoryCluster(shard_count=2, replication_factor=2).execute_raw,
    )
    for method, name, target in script:
        here = _on_directory(directory, method, name, target)
        there = _on_cluster(client, method, name, target)
        assert here == there, (method, name, target)
    for name in NAMES:
        assert directory.nodes_of(name) == _resolved(client, name), name


def test_a_host_name_cannot_become_a_service_nor_a_service_a_host():
    directory = _directory()
    directory.register_host("h1", "web.lcs.mit.edu")
    directory.register_service("print.lcs.mit.edu", ["h2", "h3"])
    for write in (
        lambda: directory.register_service("web.lcs.mit.edu", ["h2", "h3"]),
        lambda: directory.register_host("h1", "print.lcs.mit.edu"),
        lambda: directory.rebind_host("h1", "print.lcs.mit.edu"),
    ):
        with pytest.raises(BindingConflictError):
            write()
    assert directory.nodes_of("web.lcs.mit.edu") == ["h1"]
    assert directory.nodes_of("print.lcs.mit.edu") == ["h2", "h3"]
