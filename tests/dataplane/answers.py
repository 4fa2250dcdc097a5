"""Whether the flow cache answered a decision, read off the cache.

A decision does not say who built it: the first packet of a flow is
handed the very object the cache memoises for every later one.  The
cache's own counters say it: :func:`answered` is True when the lookup
found a live entry (``stats.hits`` moved) and the warm arm served it —
a warm arm that falls back to the full decision invalidates the entry
first (``stats.invalidations`` moves).
"""


def decide(pipeline, hop):
    """``(decision, answered)`` for ``pipeline.decide(hop)``."""
    stats = pipeline.flow_cache.stats
    before = stats.hits, stats.invalidations
    decision = pipeline.decide(hop)
    return decision, (stats.hits, stats.invalidations) == (
        before[0] + 1, before[1]
    )


def answered(pipeline, hop):
    """Whether the flow cache answered ``pipeline.decide(hop)``."""
    return decide(pipeline, hop)[1]
