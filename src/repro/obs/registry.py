"""The unified metrics registry: labeled counters, gauges, histograms.

Before this module the repository had three disjoint accounting
systems — the simulator's monitors (:mod:`repro.sim.monitor`), the
router's :class:`~repro.core.router.RouterStats` and the live overlay's
:class:`~repro.live.metrics.EndpointMetrics`.  They now share one set of
metric primitives (``Counter``/``Gauge``/``Histogram`` live *here*; the
sim monitors re-export them) and one exposition path: a
:class:`MetricsRegistry` that can

* hold metrics it created itself (``registry.counter("forwarded",
  node="r1")``),
* adopt metrics created elsewhere (``registry.register(stats.forwarded,
  node="r1")``) — this is how ``RouterStats`` instances surface without
  changing a single call site, and
* pull samples from *collector* callbacks at scrape time
  (``registry.register_collector(fn)``) — this is how the live
  overlay's plain-int ``EndpointMetrics`` are exposed without putting a
  method call on the per-frame hot path.

``snapshot()`` flattens everything to ``{exposition_key: value}``;
``render_prometheus()`` emits Prometheus text exposition format
(version 0.0.4), which is what a ``LiveOverlay``'s ``/metrics``
endpoint serves.  Metric names are the ones the benchmark tables print
(``frames_in``, ``drop_<reason>`` …).

The primitives are deliberately as cheap as the ad-hoc ones they
replace: a ``Counter.add`` is one integer addition, and registration is
an exposition-time concern, never a hot-path one.
"""

from __future__ import annotations

import math
import threading
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

#: A point-in-time measurement: ``(name, labels, value)``.
LabelPairs = Tuple[Tuple[str, str], ...]


class Sample:
    """One exposed measurement: a metric name, its labels, a value."""

    __slots__ = ("name", "labels", "value")

    def __init__(
        self, name: str, labels: LabelPairs, value: float
    ) -> None:
        self.name = name
        self.labels = labels
        self.value = value

    def key(self) -> str:
        """The flat exposition key, e.g. ``forwarded{node="r1"}``."""
        if not self.labels:
            return self.name
        inner = ",".join(f'{k}="{_escape(v)}"' for k, v in self.labels)
        return f"{self.name}{{{inner}}}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Sample {self.key()}={self.value}>"


def _escape(value: str) -> str:
    """Escape a label value per the Prometheus text format."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_pairs(labels: Optional[Dict[str, str]]) -> LabelPairs:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _valid_name(name: str) -> str:
    if not name or not all(c.isalnum() or c in "_:" for c in name):
        raise ValueError(f"metric name {name!r} is not Prometheus-legal")
    if name[0].isdigit():
        raise ValueError(f"metric name {name!r} starts with a digit")
    return name


class Counter:
    """A monotonically increasing event counter.

    API-compatible with the simulator's historical ``Counter`` (it *is*
    that class now — :mod:`repro.sim.monitor` re-exports it): ``add``,
    ``count``, ``rate``.
    """

    kind = "counter"
    __slots__ = ("name", "count", "labels")

    def __init__(self, name: str = "", labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.count = 0
        self.labels: LabelPairs = _label_pairs(labels)

    def add(self, n: int = 1) -> None:
        """Count ``n`` more events."""
        self.count += n

    def rate(self, elapsed: float) -> float:
        """Events per second over ``elapsed`` seconds."""
        return self.count / elapsed if elapsed > 0 else 0.0

    def samples(self) -> Iterator[Sample]:
        """This counter's single exposition sample."""
        yield Sample(self.name or "counter", self.labels, float(self.count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name!r}={self.count}>"


class Gauge:
    """A value that can go up and down (queue depth, uptime, capacity)."""

    kind = "gauge"
    __slots__ = ("name", "value", "labels")

    def __init__(
        self,
        name: str = "",
        labels: Optional[Dict[str, str]] = None,
        initial: float = 0.0,
    ) -> None:
        self.name = name
        self.value = initial
        self.labels: LabelPairs = _label_pairs(labels)

    def set(self, value: float) -> None:
        """Replace the current value."""
        self.value = value

    def inc(self, n: float = 1.0) -> None:
        """Increase the value by ``n``."""
        self.value += n

    def dec(self, n: float = 1.0) -> None:
        """Decrease the value by ``n``."""
        self.value -= n

    def samples(self) -> Iterator[Sample]:
        """This gauge's single exposition sample."""
        yield Sample(self.name or "gauge", self.labels, float(self.value))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name!r}={self.value}>"


class Histogram:
    """Streaming sample statistics plus quantiles from retained samples.

    Retains every sample; the benchmarks produce at most a few hundred
    thousand, which is cheap, and exact quantiles beat approximations
    when comparing against closed-form queueing results.

    The sorted view used by :meth:`quantile` is **cached** and
    invalidated on :meth:`add`, so ``summary()`` — which needs three
    quantiles plus min/max — sorts once, not four times, and repeated
    quantile queries over a settled histogram are O(1).  ``NaN``
    samples are excluded from the ordered view (they have no place on a
    quantile axis) but still count toward ``count``.
    """

    kind = "histogram"
    __slots__ = ("name", "labels", "samples", "_sum", "_sumsq", "_sorted")

    def __init__(self, name: str = "", labels: Optional[Dict[str, str]] = None) -> None:
        self.name = name
        self.labels: LabelPairs = _label_pairs(labels)
        self.samples: List[float] = []
        self._sum = 0.0
        self._sumsq = 0.0
        self._sorted: Optional[List[float]] = None

    def add(self, value: float) -> None:
        """Record one sample (invalidates the cached sorted view)."""
        self.samples.append(value)
        self._sum += value
        self._sumsq += value * value
        self._sorted = None

    @property
    def count(self) -> int:
        """Number of recorded samples (NaNs included)."""
        return len(self.samples)

    @property
    def mean(self) -> float:
        """Arithmetic mean of all samples (0 when empty)."""
        return self._sum / len(self.samples) if self.samples else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance (0 below two samples)."""
        n = len(self.samples)
        if n < 2:
            return 0.0
        mean = self._sum / n
        return max(0.0, self._sumsq / n - mean * mean) * n / (n - 1)

    @property
    def stdev(self) -> float:
        """Sample standard deviation."""
        return math.sqrt(self.variance)

    @property
    def minimum(self) -> float:
        """Smallest non-NaN sample (0 when none)."""
        ordered = self._ordered()
        return ordered[0] if ordered else 0.0

    @property
    def maximum(self) -> float:
        """Largest non-NaN sample (0 when none)."""
        ordered = self._ordered()
        return ordered[-1] if ordered else 0.0

    def _ordered(self) -> List[float]:
        """The cached sorted non-NaN sample list."""
        if self._sorted is None:
            self._sorted = sorted(
                s for s in self.samples if not math.isnan(s)
            )
        return self._sorted

    def quantile(self, q: float) -> float:
        """Exact empirical quantile, q in [0, 1]; NaN samples ignored."""
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile {q} outside [0, 1]")
        ordered = self._ordered()
        if not ordered:
            return 0.0
        index = min(len(ordered) - 1, int(q * len(ordered)))
        return ordered[index]

    def summary(self) -> Dict[str, float]:
        """count/mean/stdev/min/p50/p95/p99/max in one dict (one sort)."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "stdev": self.stdev,
            "min": self.minimum,
            "p50": self.quantile(0.50),
            "p95": self.quantile(0.95),
            "p99": self.quantile(0.99),
            "max": self.maximum,
        }

    def samples_for_exposition(self) -> Iterator[Sample]:
        """Prometheus-summary-shaped samples: quantiles, sum, count."""
        name = self.name or "histogram"
        for q in (0.5, 0.95, 0.99):
            yield Sample(
                name, self.labels + (("quantile", str(q)),), self.quantile(q)
            )
        yield Sample(f"{name}_sum", self.labels, self._sum)
        yield Sample(f"{name}_count", self.labels, float(self.count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Histogram {self.name!r} n={self.count} mean={self.mean:.6g}>"


#: Everything the registry can hold.
Metric = object  # Counter | Gauge | Histogram (py39-friendly alias)


class MetricsRegistry:
    """A process- or subsystem-wide set of metrics with one exposition.

    Thread-safe for registration and scraping (the live overlay scrapes
    from an asyncio HTTP handler while the event loop mutates
    counters; individual ``add`` calls are plain int ops and need no
    lock of their own).
    """

    def __init__(self, namespace: str = "") -> None:
        self.namespace = _valid_name(namespace) if namespace else ""
        self._lock = threading.Lock()
        #: (name, labels) -> metric, for get-or-create semantics.
        self._children: Dict[Tuple[str, LabelPairs], Metric] = {}
        #: Registration order, for stable exposition.
        self._metrics: List[Metric] = []
        self._collectors: List[Callable[[], Iterable[Sample]]] = []

    # -- creation ----------------------------------------------------------

    def _get_or_create(self, factory, name: str, labels: Dict[str, str]):
        qualified = _valid_name(
            f"{self.namespace}_{name}" if self.namespace else name
        )
        key = (qualified, _label_pairs(labels))
        with self._lock:
            existing = self._children.get(key)
            if existing is not None:
                if not isinstance(existing, factory):
                    raise ValueError(
                        f"metric {qualified!r} already registered as "
                        f"{type(existing).__name__}"
                    )
                return existing
            metric = factory(qualified, labels=labels)
            self._children[key] = metric
            self._metrics.append(metric)
            return metric

    def counter(self, name: str, **labels: str) -> Counter:
        """Get or create a registered :class:`Counter`."""
        return self._get_or_create(Counter, name, labels)

    def gauge(self, name: str, **labels: str) -> Gauge:
        """Get or create a registered :class:`Gauge`."""
        return self._get_or_create(Gauge, name, labels)

    def histogram(self, name: str, **labels: str) -> Histogram:
        """Get or create a registered :class:`Histogram`."""
        return self._get_or_create(Histogram, name, labels)

    # -- adoption ----------------------------------------------------------

    def register(self, metric, **labels: str) -> None:
        """Adopt a metric created elsewhere (e.g. a ``RouterStats`` field).

        Extra ``labels`` are layered over the metric's own at exposition
        time, so the same unlabeled counter can be registered once per
        node with a distinguishing ``node=...`` label.
        """
        with self._lock:
            if labels:
                self._metrics.append(_Relabeled(metric, _label_pairs(labels)))
            else:
                self._metrics.append(metric)

    def register_collector(
        self, collect: Callable[[], Iterable[Sample]]
    ) -> None:
        """Adopt a pull-time sample source (called at every scrape)."""
        with self._lock:
            self._collectors.append(collect)

    # -- exposition --------------------------------------------------------

    def samples(self) -> List[Sample]:
        """Every sample from every metric and collector, scrape-time."""
        with self._lock:
            metrics = list(self._metrics)
            collectors = list(self._collectors)
        out: List[Sample] = []
        for metric in metrics:
            out.extend(_metric_samples(metric))
        for collect in collectors:
            out.extend(collect())
        return out

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{exposition_key: value}`` over everything registered."""
        return {sample.key(): sample.value for sample in self.samples()}

    def render_prometheus(self) -> str:
        """Prometheus text exposition format (version 0.0.4)."""
        samples = self.samples()
        kinds: Dict[str, str] = {}
        with self._lock:
            for metric in self._metrics:
                target = getattr(metric, "metric", metric)
                name = getattr(target, "name", "")
                kind = getattr(target, "kind", "")
                if name and kind:
                    kinds[name] = "summary" if kind == "histogram" else kind
        lines: List[str] = []
        typed: set = set()
        for sample in samples:
            base = sample.name
            for suffix in ("_sum", "_count"):
                if base.endswith(suffix) and base[: -len(suffix)] in kinds:
                    base = base[: -len(suffix)]
            kind = kinds.get(base, "untyped")
            if base not in typed:
                typed.add(base)
                lines.append(f"# TYPE {base} {kind}")
            value = sample.value
            rendered = (
                str(int(value)) if float(value).is_integer() else repr(value)
            )
            lines.append(f"{sample.key()} {rendered}")
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<MetricsRegistry metrics={len(self._metrics)} "
            f"collectors={len(self._collectors)}>"
        )


class _Relabeled:
    """A registered metric viewed with extra exposition-time labels."""

    __slots__ = ("metric", "extra")

    def __init__(self, metric, extra: LabelPairs) -> None:
        self.metric = metric
        self.extra = extra

    def samples(self) -> Iterator[Sample]:
        for sample in _metric_samples(self.metric):
            merged = dict(sample.labels)
            merged.update(dict(self.extra))
            yield Sample(sample.name, _label_pairs(merged), sample.value)


def _metric_samples(metric) -> Iterator[Sample]:
    """Samples of any metric-ish object (histograms expose summaries)."""
    exposition = getattr(metric, "samples_for_exposition", None)
    if exposition is not None:
        return exposition()
    return metric.samples()
