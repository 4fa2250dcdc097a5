"""Declarative SLOs evaluated as multi-window burn rates.

The ROADMAP's "fast as the hardware allows" north star needs a
definition to be held to.  This module supplies it: an :class:`SloSpec`
declares an objective ("99% of deliveries under 2 ms over 60 s"), an
:class:`SloEngine` evaluates a set of specs against the live metrics in
a :class:`~repro.obs.registry.MetricsRegistry`, and the result is the
SRE-standard *burn rate*:

    ``burn = bad_fraction / error_budget``  where ``error_budget = 1 - target``.

A burn rate of 1.0 means the service is consuming its error budget
exactly as fast as the objective allows; 10× means the budget for the
window is gone in a tenth of it.  Burn is computed over **multiple
windows** (fast + slow, per the classic multi-window multi-burn alert
pattern) so a transient rebind storm shows up in the 10 s window while
the 60 s window says whether it actually matters.

One spec kind, ``latency``, covers every objective in the repository:
good events are samples of a named histogram at or under
``threshold``; the histogram's cached sorted view makes the counting a
single :func:`bisect.bisect_right`.

The engine keeps a per-spec history of cumulative ``(t, good, total)``
evaluation points so windowed burn is an O(log n) lookback subtraction
— no per-event bookkeeping, nothing on any hot path; cost is paid only
at evaluation (scrape) time.  ``GET /slo`` on the obs HTTP server
serves :meth:`SloEngine.report` as JSON, and ``python -m
repro.obs.top`` renders it as a live console.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Tuple

from .registry import Histogram, MetricsRegistry

#: Default burn-rate windows, seconds (fast, slow).
DEFAULT_WINDOWS_S = (10.0, 60.0)

#: Burn rate at or above which a spec's status becomes "page".
PAGE_BURN = 10.0

#: Burn rate at or above which a spec's status becomes "burn".
WARN_BURN = 1.0

#: Evaluation points an engine keeps per spec.
MAX_POINTS = 4096

_KINDS = ("latency",)


class SloSpec:
    """One declarative objective.

    ``kind="latency"``: ``metric`` names a histogram in the registry
    (label filters via ``labels``); an event is *good* when its sample
    is ``<= threshold``.  ``target`` is the objective fraction in
    (0, 1), e.g. 0.99.
    """

    __slots__ = (
        "name", "kind", "target", "metric", "labels", "threshold",
        "description", "windows_s",
    )

    def __init__(
        self,
        name: str,
        kind: str,
        target: float,
        metric: str = "",
        labels: Optional[Dict[str, str]] = None,
        threshold: float = 0.0,
        description: str = "",
        windows_s: Sequence[float] = DEFAULT_WINDOWS_S,
    ) -> None:
        if kind not in _KINDS:
            raise ValueError(f"unknown SLO kind {kind!r} (want one of {_KINDS})")
        if not 0.0 < target < 1.0:
            raise ValueError(f"target {target} outside (0, 1)")
        if not metric:
            raise ValueError("latency SLO needs a metric name")
        self.name = name
        self.kind = kind
        self.target = target
        self.metric = metric
        self.labels = dict(labels or {})
        self.threshold = threshold
        self.description = description
        self.windows_s = tuple(windows_s)

    @property
    def error_budget(self) -> float:
        """The allowed bad fraction, ``1 - target``."""
        return 1.0 - self.target

    def to_json(self) -> Dict[str, Any]:
        """The spec's declarative form (schema in ARCHITECTURE §13)."""
        out: Dict[str, Any] = {
            "name": self.name,
            "kind": self.kind,
            "target": self.target,
            "windows_s": list(self.windows_s),
        }
        if self.description:
            out["description"] = self.description
        out["metric"] = self.metric
        if self.labels:
            out["labels"] = dict(sorted(self.labels.items()))
        out["threshold"] = self.threshold
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SloSpec {self.name!r} {self.kind} target={self.target}>"


def default_slos() -> List[SloSpec]:
    """The repository's standard objectives over existing obs metrics."""
    return [
        SloSpec(
            "directory_command_latency", "latency", target=0.99,
            metric="directory_command_ms", threshold=5.0,
            description="99% of v2 directory commands answer in <= 5 ms",
        ),
        SloSpec(
            "rebind_recovery", "latency", target=0.95,
            metric="rebind_recovery_s", threshold=0.5,
            description="95% of rebinds recover routing in <= 500 ms",
        ),
    ]


class SloStatus:
    """One spec's evaluation: per-window burn rates plus a verdict."""

    __slots__ = ("spec", "t", "good", "total", "windows")

    def __init__(
        self, spec: SloSpec, t: float, good: float, total: float,
        windows: Dict[float, Dict[str, float]],
    ) -> None:
        self.spec = spec
        self.t = t
        self.good = good
        self.total = total
        #: window seconds -> {"good","total","bad_fraction","burn"}
        self.windows = windows

    @property
    def worst_burn(self) -> float:
        """Highest burn across windows (what alerting keys on)."""
        burns = [w["burn"] for w in self.windows.values()]
        return max(burns) if burns else 0.0

    @property
    def status(self) -> str:
        """``ok`` / ``burn`` / ``page`` from the worst window."""
        worst = self.worst_burn
        if worst >= PAGE_BURN:
            return "page"
        if worst >= WARN_BURN:
            return "burn"
        return "ok"

    def to_json(self) -> Dict[str, Any]:
        return {
            "slo": self.spec.name,
            "target": self.spec.target,
            "t": round(self.t, 6),
            "good": self.good,
            "total": self.total,
            "status": self.status,
            "worst_burn": round(self.worst_burn, 6),
            "windows": {
                str(window): {k: round(v, 6) for k, v in values.items()}
                for window, values in sorted(self.windows.items())
            },
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<SloStatus {self.spec.name!r} {self.status} "
            f"burn={self.worst_burn:.3g}>"
        )


class SloEngine:
    """Evaluates specs against a registry, keeping burn-rate history.

    Each :meth:`evaluate` reads the current cumulative (good, total)
    for every spec from the registry and appends an evaluation point;
    windowed burn subtracts the point just before the window start.
    History is bounded by :data:`MAX_POINTS` per spec.
    """

    def __init__(
        self,
        registry: MetricsRegistry,
        specs: Optional[Sequence[SloSpec]] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        import time

        self.registry = registry
        self.specs: List[SloSpec] = list(
            default_slos() if specs is None else specs
        )
        self.clock = clock if clock is not None else time.monotonic
        #: spec name -> deque of (t, cumulative good, cumulative total)
        self._history: Dict[str, Deque[Tuple[float, float, float]]] = {
            spec.name: deque(maxlen=MAX_POINTS) for spec in self.specs
        }

    # -- measurement -------------------------------------------------------

    def _latency_counts(self, spec: SloSpec) -> Tuple[float, float]:
        good = 0.0
        total = 0.0
        for hist in self._matching_histograms(spec):
            ordered = hist._ordered()
            good += bisect_right(ordered, spec.threshold)
            total += len(ordered)
        return good, total

    def _matching_histograms(self, spec: SloSpec) -> List[Histogram]:
        want = tuple(sorted((k, str(v)) for k, v in spec.labels.items()))
        out: List[Histogram] = []
        for metric in list(self.registry._metrics):
            target = getattr(metric, "metric", metric)
            if not isinstance(target, Histogram):
                continue
            name = target.name
            if name != spec.metric and not name.endswith(f"_{spec.metric}"):
                continue
            have = dict(target.labels)
            if all(have.get(k) == v for k, v in want):
                out.append(target)
        return out

    # -- evaluation --------------------------------------------------------

    def evaluate(self, now: Optional[float] = None) -> List[SloStatus]:
        """Measure every spec, append history, return per-spec status."""
        t = self.clock() if now is None else now
        out: List[SloStatus] = []
        for spec in self.specs:
            good, total = self._latency_counts(spec)
            history = self._history[spec.name]
            history.append((t, good, total))
            windows: Dict[float, Dict[str, float]] = {}
            for window in spec.windows_s:
                w_good, w_total = _window_delta(history, t - window)
                bad_fraction = (
                    (w_total - w_good) / w_total if w_total > 0 else 0.0
                )
                windows[window] = {
                    "good": w_good,
                    "total": w_total,
                    "bad_fraction": bad_fraction,
                    "burn": bad_fraction / spec.error_budget,
                }
            out.append(SloStatus(spec, t, good, total, windows))
        return out

    def report(self, now: Optional[float] = None) -> Dict[str, Any]:
        """The ``/slo`` payload: specs plus current statuses."""
        statuses = self.evaluate(now=now)
        return {
            "type": "slo_report",
            "specs": [spec.to_json() for spec in self.specs],
            "statuses": [status.to_json() for status in statuses],
        }

    def report_json(self, now: Optional[float] = None) -> str:
        """:meth:`report` serialized canonically for the endpoint."""
        return json.dumps(
            self.report(now=now), sort_keys=True, separators=(",", ":")
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<SloEngine specs={len(self.specs)}>"


def _window_delta(
    history: "Deque[Tuple[float, float, float]]", start: float
) -> Tuple[float, float]:
    """(good, total) accrued since the last point at or before ``start``.

    With no point old enough the window covers all recorded history —
    the engine's best available estimate early in a run.
    """
    if not history:
        return 0.0, 0.0
    latest = history[-1]
    base: Optional[Tuple[float, float, float]] = None
    for point in history:
        if point[0] <= start:
            base = point
        else:
            break
    if base is None:
        return latest[1], latest[2]
    return latest[1] - base[1], latest[2] - base[2]
