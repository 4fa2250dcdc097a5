"""The directory's path memo never outlives its topology.

``DirectoryService.query`` remembers the paths it has found against the
edge list it found them in.  Two services over one topology take the
same scripted sequence of topology and binding changes interleaved with
repeated queries — one keeps its memo, the other has it cleared before
every query, i.e. runs the path search every time — and must grant the
same routes: same segments, same attributes, same tokens (the two share
the routers' mints, and a query names its account).
"""

import random

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.directory import DirectoryService, RouteQuery
from repro.directory.pathfind import PathObjective
from repro.net.topology import Topology
from repro.sim.engine import Simulator

LINKS = ["main", "alt-a", "alt-b", "side", "h2-r2", "h3-r3"]


def build(refresh_interval):
    """h1 - r1 = r2 - h2, a detour r1 - r3 - r2, h3 behind r3 and a
    slow, cheap side link r1 ~ r2."""
    sim = Simulator()
    topo = Topology(sim)
    nodes = {
        name: topo.add_node(kind(sim, name))
        for name, kind in [
            ("h1", SirpentHost), ("h2", SirpentHost), ("h3", SirpentHost),
            ("r1", SirpentRouter), ("r2", SirpentRouter), ("r3", SirpentRouter),
        ]
    }
    topo.connect(nodes["h1"], nodes["r1"], name="h1-r1")
    topo.connect(nodes["h2"], nodes["r2"], name="h2-r2")
    topo.connect(nodes["h3"], nodes["r3"], name="h3-r3")
    topo.connect(nodes["r1"], nodes["r2"], propagation_delay=1e-3, name="main")
    topo.connect(nodes["r1"], nodes["r3"], propagation_delay=2e-3, name="alt-a")
    topo.connect(nodes["r3"], nodes["r2"], propagation_delay=2e-3, name="alt-b")
    topo.connect(
        nodes["r1"], nodes["r2"], propagation_delay=5e-3, rate_bps=1e6,
        name="side",
    )

    def service():
        directory = DirectoryService(
            sim, topo, refresh_interval=refresh_interval, advisory_interval=None
        )
        directory.register_host("h1", "h1.a.edu")
        directory.register_host("h2", "h2.b.edu")
        directory.register_host("h3", "h3.c.edu")
        directory.register_service("print.b.edu", ["h2", "h3"])
        return directory

    return topo, service(), service()


def script(rng, steps):
    """``(op, args)`` steps: mostly queries, and each of them repeated."""
    queries = [
        ("h2.b.edu", 1), ("h2.b.edu", 3), ("print.b.edu", 1),
        ("print.b.edu", 2), ("h3.c.edu", 1), ("roaming.a.edu", 1),
    ]
    for step in range(steps):
        roll = rng.random()
        if roll < 0.55:
            destination, k = rng.choice(queries)
            yield "query", (
                destination, k, rng.choice(list(PathObjective)), step % 7,
            )
        elif roll < 0.70:
            yield rng.choice(["fail_link", "restore_link"]), (rng.choice(LINKS),)
        elif roll < 0.80:
            yield "record_load", (rng.choice(LINKS), rng.choice([0.0, 0.3, 0.9]))
        elif roll < 0.88:
            yield "refresh", ()
        elif roll < 0.95:
            yield "rebind_host", (rng.choice(["h2", "h3"]), "roaming.a.edu")
        else:
            yield "register_service", (
                f"svc{step}.b.edu", rng.sample(["h2", "h3"], rng.choice([1, 2])),
            )
            queries.append((f"svc{step}.b.edu", rng.choice([1, 2])))


@pytest.mark.parametrize("refresh_interval", [None, 1.0])
@pytest.mark.parametrize("seed", range(6))
def test_a_memoising_directory_grants_what_a_searching_one_does(
    seed, refresh_interval
):
    topo, memoising, searching = build(refresh_interval)
    searches = answered = 0
    for op, args in script(random.Random(seed), 400):
        if op in ("fail_link", "restore_link"):
            getattr(topo, op)(*args)
        elif op == "refresh":  # a stale directory's periodic snapshot, now
            for directory in (memoising, searching):
                if directory._edge_snapshot is not None:
                    directory._edge_snapshot = topo.edges()
        elif op != "query":
            for directory in (memoising, searching):
                getattr(directory, op)(*args)
        else:
            destination, k, objective, account = args
            query = RouteQuery(
                destination, objective=objective, k=k, with_tokens=True,
                account=account, dest_socket=3,
            )
            for _ in range(2):  # the repeat is what the memo answers
                searching._path_memo = ([], {})
                expected = searching.query("h1", query)
                assert memoising.query("h1", query) == expected
                assert len(searching._path_memo[1]) <= 1  # it did search
                searches += 1
                answered += bool(expected)
    # The script reached both arms, and the memo did answer.
    assert answered > 50 and searches > answered
    assert memoising.tokens_issued == searching.tokens_issued
    assert memoising.queries_served == searching.queries_served


def test_the_memo_is_dropped_by_any_change_of_the_edge_list():
    topo, directory, _ = build(refresh_interval=None)
    # Reported load scales a link's cost, which this objective weighs.
    query = RouteQuery("h2.b.edu", objective=PathObjective.LOW_COST)
    first = directory.query("h1", query)[0]
    assert directory.query("h1", query)[0].segments == first.segments
    paths = directory._path_memo[1]
    assert len(paths) == 1
    for change, undo in [
        (lambda: topo.fail_link("main"), lambda: topo.restore_link("main")),
        (lambda: directory.record_load("main", 0.9),
         lambda: directory.record_load("main", 0.0)),
    ]:
        change()
        detour = directory.query("h1", query)[0]
        assert directory._path_memo[1] is not paths
        assert [s.port for s in detour.segments] != [
            s.port for s in first.segments
        ]
        undo()
        assert directory.query("h1", query)[0].segments == first.segments
        paths = directory._path_memo[1]


def test_tokens_are_minted_per_query_not_remembered():
    _, directory, _ = build(refresh_interval=None)
    a = directory.query("h1", RouteQuery("h2.b.edu", with_tokens=True, account=1))
    b = directory.query("h1", RouteQuery("h2.b.edu", with_tokens=True, account=2))
    assert [s.port for s in a[0].segments] == [s.port for s in b[0].segments]
    assert a[0].segments[0].token != b[0].segments[0].token
    assert directory.tokens_issued == 4
