"""Unified observability layer: metrics registry, packet tracer, exporters.

``repro.obs`` is shared by the simulator and the live UDP overlay: one
packet tracer, one flight recorder and one set of metric primitives
serve both substrates.  A tracer and a recorder each own the clock
that stamps their events (``time.monotonic`` live, the simulator's
``now`` in a simulation); a component with neither installed holds
``None`` and tests ``is not None`` before each event.

Submodules
----------
``registry``
    Labeled :class:`Counter` / :class:`Gauge` / :class:`Histogram`
    primitives plus :class:`MetricsRegistry` with Prometheus text
    exposition.  The sim monitors
    (:mod:`repro.sim.monitor`) re-export the value-shaped primitives
    from here.
``trace``
    Sampling per-packet hop tracer (:class:`Tracer`) on its own clock,
    with NDJSON and Chrome ``trace_event`` export.
``adapters``
    The pull-time bridge that exposes the live overlay's
    :class:`repro.live.metrics.EndpointMetrics` through a registry.
``recorder``
    The always-on bounded flight recorder (:class:`FlightRecorder`)
    on its own clock, with NDJSON dumps, :func:`load_dump` and
    :func:`fault_timeline` forensics.
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
from repro.obs.recorder import FlightRecorder, fault_timeline, load_dump
from repro.obs.slo import SloEngine, SloSpec, default_slos
from repro.obs.trace import Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "FlightRecorder",
    "fault_timeline",
    "load_dump",
    "SloEngine",
    "SloSpec",
    "default_slos",
    "Tracer",
]
