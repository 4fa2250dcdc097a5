"""The bridge from the live overlay's endpoint counters to a registry.

The rule for this layer is *no hot-path changes*: the live overlay's
:class:`~repro.live.metrics.EndpointMetrics` stays a plain-int
dataclass (its ``frames_in += 1`` is as cheap as counting gets) and is
surfaced through a pull-time *collector* that reads ``snapshot()``
only when someone scrapes.  The exposed names are the keys the live
benchmark tables print — ``frames_in``, ``drop_<reason>`` …

Nothing registers a simulated router's
:class:`~repro.core.router.RouterStats`, so a sim run has no
``/metrics`` to set beside a live one.
"""

from __future__ import annotations

from typing import Iterator

from repro.obs.registry import MetricsRegistry, Sample, _label_pairs

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
