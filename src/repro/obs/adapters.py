"""Bridges between existing stats holders and the metrics registry.

The refactor rule for this layer is *no hot-path changes*: the
simulator's :class:`~repro.core.router.RouterStats` fields already are
registry primitives (they moved into :mod:`repro.obs.registry` and
:mod:`repro.sim.monitor` re-exports them), so they only need to be
*adopted* with a ``node`` label; the live overlay's
:class:`~repro.live.metrics.EndpointMetrics` stays a plain-int
dataclass (its ``frames_in += 1`` is as cheap as counting gets) and is
surfaced through a pull-time *collector* that reads ``snapshot()``
only when someone scrapes.

Either way the exposed names are exactly the ones the benchmark tables
already print — ``forwarded``, ``delivered_local``, ``drop_<reason>``,
``frames_in`` … — so a sim run's snapshot and a live run's ``/metrics``
compare line by line.
"""

from __future__ import annotations

from typing import Iterator

from repro.obs.registry import MetricsRegistry, Sample, _label_pairs

#: RouterStats field -> exposed metric name (the names the sim
#: benchmarks have always printed).
ROUTER_STAT_NAMES = (
    ("forwarded", "forwarded"),
    ("delivered_local", "delivered_local"),
    ("dropped_no_route", "drop_no_route"),
    ("dropped_token", "drop_token_reject"),
    ("dropped_bad_portinfo", "drop_bad_portinfo"),
    ("route_exhausted", "drop_route_exhausted"),
    ("truncated", "truncated"),
    ("multicast_copies", "multicast_copies"),
    ("cut_through_forwards", "cut_through_forwards"),
    ("store_forwards", "store_forwards"),
    ("slick_reroutes", "slick_reroutes"),
    ("slick_fallback_exhausted", "drop_slick_fallback_exhausted"),
)


def router_stats_samples(stats, node: str) -> Iterator[Sample]:
    """Exposition samples for one router's :class:`RouterStats`."""
    labels = _label_pairs({"node": node})
    for attr, name in ROUTER_STAT_NAMES:
        counter = getattr(stats, attr)
        yield Sample(name, labels, float(counter.count))
    delay = stats.router_delay
    for q in (0.5, 0.95, 0.99):
        yield Sample(
            "router_delay",
            labels + (("quantile", str(q)),),
            delay.quantile(q),
        )
    yield Sample("router_delay_sum", labels, delay.mean * delay.count)
    yield Sample("router_delay_count", labels, float(delay.count))


def endpoint_metrics_samples(metrics) -> Iterator[Sample]:
    """Exposition samples for one live :class:`EndpointMetrics`.

    Uses the dataclass's own ``snapshot()`` flattening, so the metric
    names (``frames_in``, ``drop_<reason>`` …) are byte-identical to the
    keys the live benchmark tables report.
    """
    labels = _label_pairs({"node": metrics.name or "?"})
    for key, value in metrics.snapshot().items():
        yield Sample(key, labels, float(value))


def register_endpoint_metrics(registry: MetricsRegistry, metrics) -> None:
    """Adopt one live endpoint's counters into ``registry`` (pull-time)."""
    registry.register_collector(lambda: endpoint_metrics_samples(metrics))
