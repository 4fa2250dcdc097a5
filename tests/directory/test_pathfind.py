"""Unit tests for constrained path finding (Dijkstra, widest path, Yen)."""

import pytest

from repro.directory.pathfind import (
    PathObjective,
    dijkstra,
    edge_allowed,
    edge_weight,
    k_shortest_paths,
    path_weight,
)
from repro.net.topology import Edge


def edge(src, dst, port, rate=10e6, prop=1e-3, cost=1.0, secure=True, mtu=1500):
    return Edge(src, dst, port, rate, prop, mtu, cost=cost, secure=secure)


def duplex(a, b, pa, pb, **kwargs):
    return [edge(a, b, pa, **kwargs), edge(b, a, pb, **kwargs)]


def diamond():
    """a -> b -> d (fast) and a -> c -> d (slow), plus a -> d direct slowest."""
    edges = []
    edges += duplex("a", "b", 1, 1, prop=1e-3)
    edges += duplex("b", "d", 2, 2, prop=1e-3)
    edges += duplex("a", "c", 2, 1, prop=5e-3)
    edges += duplex("c", "d", 2, 3, prop=5e-3)
    edges += duplex("a", "d", 3, 4, prop=20e-3)
    return edges


def path_nodes(path):
    return [path[0].src] + [e.dst for e in path]


def test_low_delay_picks_fast_branch():
    path = dijkstra(diamond(), "a", "d", PathObjective.LOW_DELAY)
    assert path_nodes(path) == ["a", "b", "d"]


def test_unreachable_returns_none():
    assert dijkstra(diamond(), "a", "zzz") is None


def test_trivial_path_to_self():
    assert dijkstra(diamond(), "a", "a") == []


def test_low_cost_objective():
    edges = duplex("a", "b", 1, 1, cost=10.0)
    edges += duplex("a", "c", 2, 1, cost=1.0)
    edges += duplex("c", "b", 2, 2, cost=1.0)
    path = dijkstra(edges, "a", "b", PathObjective.LOW_COST)
    assert path_nodes(path) == ["a", "c", "b"]


def test_secure_objective_avoids_insecure_links():
    edges = duplex("a", "b", 1, 1, prop=1e-3, secure=False)
    edges += duplex("a", "c", 2, 1, prop=5e-3)
    edges += duplex("c", "b", 2, 2, prop=5e-3)
    fast = dijkstra(edges, "a", "b", PathObjective.LOW_DELAY)
    assert path_nodes(fast) == ["a", "b"]
    secure = dijkstra(edges, "a", "b", PathObjective.SECURE)
    assert path_nodes(secure) == ["a", "c", "b"]


def test_secure_unreachable_when_all_paths_insecure():
    edges = duplex("a", "b", 1, 1, secure=False)
    assert dijkstra(edges, "a", "b", PathObjective.SECURE) is None


def test_widest_path_maximizes_bottleneck():
    edges = duplex("a", "b", 1, 1, rate=1e6, prop=1e-3)      # fast, narrow
    edges += duplex("a", "c", 2, 1, rate=100e6, prop=10e-3)  # slow, wide
    edges += duplex("c", "b", 2, 2, rate=100e6, prop=10e-3)
    narrow = dijkstra(edges, "a", "b", PathObjective.LOW_DELAY)
    assert path_nodes(narrow) == ["a", "c", "b"] or path_nodes(narrow) == ["a", "b"]
    wide = dijkstra(edges, "a", "b", PathObjective.HIGH_BANDWIDTH)
    assert path_nodes(wide) == ["a", "c", "b"]
    assert min(e.rate_bps for e in wide) == 100e6


def test_widest_path_ties_broken_by_delay():
    edges = duplex("a", "b", 1, 1, rate=10e6, prop=1e-3)
    edges += duplex("a", "c", 2, 1, rate=10e6, prop=9e-3)
    edges += duplex("c", "b", 2, 2, rate=10e6, prop=9e-3)
    path = dijkstra(edges, "a", "b", PathObjective.HIGH_BANDWIDTH)
    assert path_nodes(path) == ["a", "b"]


def test_k_shortest_ordered_and_distinct():
    paths = k_shortest_paths(diamond(), "a", "d", k=3)
    assert len(paths) == 3
    weights = [path_weight(p, PathObjective.LOW_DELAY) for p in paths]
    assert weights == sorted(weights)
    node_lists = [tuple(path_nodes(p)) for p in paths]
    assert len(set(node_lists)) == 3
    assert node_lists[0] == ("a", "b", "d")


def test_k_shortest_exhausts_gracefully():
    paths = k_shortest_paths(diamond(), "a", "d", k=10)
    assert len(paths) == 3  # only three loopless alternatives exist


def test_k_shortest_zero():
    assert k_shortest_paths(diamond(), "a", "d", k=0) == []


def test_k_shortest_unreachable():
    assert k_shortest_paths(diamond(), "a", "nowhere", k=2) == []


def test_paths_are_loopless():
    paths = k_shortest_paths(diamond(), "a", "d", k=5)
    for path in paths:
        nodes = path_nodes(path)
        assert len(nodes) == len(set(nodes))


def test_edge_weight_includes_serialization():
    slow = edge("a", "b", 1, rate=1e6, prop=0.0)
    fast = edge("a", "b", 1, rate=1e9, prop=0.0)
    assert edge_weight(slow, PathObjective.LOW_DELAY) > edge_weight(
        fast, PathObjective.LOW_DELAY
    )


@pytest.mark.parametrize("objective", list(PathObjective))
def test_only_the_secure_objective_excludes_an_insecure_edge(objective):
    assert edge_allowed(edge("a", "b", 1, secure=True), objective)
    assert edge_allowed(edge("a", "b", 1, secure=False), objective) is (
        objective is not PathObjective.SECURE
    )
