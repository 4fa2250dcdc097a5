"""Span self-time arithmetic on hand-built traces, and the wrappers."""

import asyncio

from benchmarks.e2e.probes import ROOT, Ledger, Tracer, call_counts, profiling, self_shares


def test_ledger_rows_and_residual_sum_to_the_wall_clock():
    spans = [
        (ROOT, 0, 1000, -1, 0),            # 0: the transaction
        ("live.host.send", 100, 400, 0, 0),  # 1: top level (child of root)
        ("live.link.send", 150, 250, 1, 0),  # 2: child of 1
        ("live.router.on_batch", 500, 600, -1, 0),  # 3: reader callback
        ("dataplane.decide", 520, 560, 3, 0),       # 4: child of 3
        ("tokens.admit", 530, 540, 4, 0),           # 5: grandchild
    ]
    ledger = Ledger(spans, 0, 1000)
    assert ledger.self_ns("live.host.send") == 200
    assert ledger.self_ns("live.link.send") == 100
    assert ledger.self_ns("live.router.on_batch") == 60
    assert ledger.self_ns("dataplane.decide") == 30
    assert ledger.self_ns("tokens.admit") == 10
    assert ledger.total_ns["dataplane.decide"] == 40
    assert ledger.busy_ns == 400
    assert ledger.residual_ns == 600
    assert sum(s for s, _ in ledger.rows.values()) + ledger.residual_ns == ledger.wall_ns
    # The root's own time: its interval minus the seams inside it.
    assert ledger.roots == 1 and ledger.root_self_ns == 600
    assert "= window wall clock" in ledger.render("t")


def test_ledger_ignores_spans_outside_the_window_and_open_spans():
    spans = [
        ("a", 0, 50, -1, -1),        # warm-up, before the window
        ("a", 100, 200, -1, -1),
        None,                         # still open when the run ended
        (ROOT, 150, 900, -1, 3),      # ends after the window: not a root of it
        ("a", 300, 350, 3, 3),
    ]
    ledger = Ledger(spans, 100, 400)
    assert ledger.count("a") == 2 and ledger.self_ns("a") == 150
    assert ledger.roots == 0
    assert ledger.residual_ns == 150


def test_overlapping_transactions_share_the_seams_between_them():
    spans = [
        (ROOT, 0, 100, -1, 0),
        (ROOT, 0, 100, -1, 1),
        ("a", 10, 60, -1, -1),
    ]
    ledger = Ledger(spans, 0, 100)
    assert ledger.root_self_ns == 100   # 50 uncovered in each


def test_synchronous_wrappers_nest_and_restore_the_parent():
    tracer = Tracer()

    class Node:
        def outer(self, x):
            return self.inner(x) + self.inner(x)

        def inner(self, x):
            return x + 1

    node = Node()
    tracer.wrap(node, "inner", "inner")
    tracer.wrap(node, "outer", "outer")
    assert node.outer(1) == 4
    assert node.inner(5) == 6
    names = [(s[0], s[3]) for s in tracer.spans]
    assert names == [("outer", -1), ("inner", 0), ("inner", 0), ("inner", -1)]
    for _name, start, end, _parent, tx in tracer.spans:
        assert end >= start and tx == -1


def test_root_span_carries_the_transaction_across_awaits():
    tracer = Tracer()
    sent = tracer.traced(lambda: None, "send")
    callback = tracer.traced(lambda: None, "on_batch")

    async def original(label, replied):
        sent()
        await replied.wait()
        return label

    transact = tracer.traced_transact(original)

    async def scenario():
        replied = asyncio.Event()
        first = asyncio.ensure_future(transact("a", replied))
        await asyncio.sleep(0)          # first is in flight, alone
        callback()                      # a reader callback: no parent
        second = asyncio.ensure_future(transact("b", replied))
        await asyncio.sleep(0)
        callback()                      # two in flight: belongs to neither
        replied.set()
        return await first, await second

    assert asyncio.run(scenario()) == ("a", "b")
    roots = [s for s in tracer.spans if s[0] == ROOT]
    assert sorted(s[4] for s in roots) == [0, 1]
    sends = [s for s in tracer.spans if s[0] == "send"]
    assert {(s[3], s[4]) for s in sends} == {
        (tracer.spans.index(r), r[4]) for r in roots
    }
    batches = [s for s in tracer.spans if s[0] == "on_batch"]
    assert [(s[3], s[4]) for s in batches] == [(-1, 0), (-1, -1)]


def test_profile_reduces_to_counts_and_shares():
    import heapq

    heap = []
    with profiling() as profiler:
        for value in range(50):
            heapq.heappush(heap, value)
    stats = profiler.getstats()
    assert call_counts(stats)["heappush"] == 50
    shares = self_shares(stats, ("sim", "core"))
    assert abs(sum(shares.values()) - 1.0) < 1e-9
    assert shares["sim"] == 0.0 and shares["builtins"] > 0.0
    with profiling(enabled=False) as idle:
        heapq.heappush(heap, 1)
    assert idle.getstats() == []
