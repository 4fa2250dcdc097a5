"""Unified observability layer: metrics registry, packet tracer, exporters.

``repro.obs`` is shared by the simulator and the live UDP overlay: one
packet tracer, one flight recorder and one set of metric primitives
serve both substrates.

Submodules
----------
``registry``
    Labeled :class:`Counter` / :class:`Gauge` / :class:`Histogram`
    primitives plus :class:`MetricsRegistry` with ``snapshot()`` and
    Prometheus text exposition.  The sim monitors
    (:mod:`repro.sim.monitor`) re-export the value-shaped primitives
    from here.
``trace``
    Sampling per-packet hop tracer (:class:`Tracer`) with the
    zero-cost-when-disabled :data:`NULL_TRACER` default, NDJSON and
    Chrome ``trace_event`` export.
``adapters``
    The pull-time bridge that exposes the live overlay's
    :class:`repro.live.metrics.EndpointMetrics` through a registry.
``recorder``
    The always-on bounded flight recorder (:class:`FlightRecorder`)
    with NDJSON dumps, :func:`load_dump` and :func:`fault_timeline`
    forensics, and the guarded :data:`NULL_RECORDER` default.
``slo``
    Declarative SLOs (:class:`SloSpec`) evaluated as multi-window burn
    rates over registry histograms by :class:`SloEngine`.
``httpd``
    Opt-in asyncio HTTP endpoint serving ``/metrics``, ``/trace``,
    ``/slo`` and ``/dump``.
``report``
    ``python -m repro.obs.report`` — flame-style per-hop latency
    breakdowns, cross-layer trace trees and top-k drop reasons from
    exported files.
``top``
    ``python -m repro.obs.top`` — live SLO burn-rate console polling
    an obs endpoint's ``/slo``.
"""

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.recorder import (
    NULL_RECORDER,
    FlightRecorder,
    NullRecorder,
    fault_timeline,
    load_dump,
)
from repro.obs.slo import SloEngine, SloSpec, default_slos
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_RECORDER",
    "NullRecorder",
    "FlightRecorder",
    "fault_timeline",
    "load_dump",
    "SloEngine",
    "SloSpec",
    "default_slos",
    "NULL_TRACER",
    "NullTracer",
    "Tracer",
]
