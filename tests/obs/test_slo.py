"""SLO burn-rate engine and the ``repro.obs.top`` console renderer.

The math under test is the SRE-standard burn rate,
``burn = bad_fraction / (1 - target)``, evaluated per window by
subtracting cumulative history points — so the tests drive a virtual
clock, feed histograms/counters, and assert exact burns.
"""

import json
import os
import re

import pytest

from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_WINDOWS_S,
    SloEngine,
    SloSpec,
    default_slos,
)
from repro.obs.top import render_report


class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_spec_validation():
    with pytest.raises(ValueError):
        SloSpec("x", "unknown", target=0.5)
    with pytest.raises(ValueError):
        SloSpec("x", "latency", target=1.0, metric="m")
    with pytest.raises(ValueError):
        SloSpec("x", "latency", target=0.9)  # no metric
    with pytest.raises(ValueError):
        SloSpec("x", "ratio", target=0.9, metric="m")  # not a kind
    spec = SloSpec("x", "latency", target=0.99, metric="m", threshold=2.0)
    assert spec.error_budget == pytest.approx(0.01)


def test_default_slos_cover_the_required_objectives():
    names = {spec.name for spec in default_slos()}
    assert names == {"directory_command_latency", "rebind_recovery"}
    for spec in default_slos():
        assert spec.windows_s == DEFAULT_WINDOWS_S


def test_every_default_slo_reads_a_metric_the_program_produces():
    """An objective over a metric nothing registers reports no data on
    ``/slo`` forever: each default one names a counter or histogram
    that ``src/`` creates."""
    package = os.path.join(
        os.path.dirname(__file__), "..", "..", "src", "repro"
    )
    produced = set()
    for dirpath, _dirs, files in os.walk(package):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as handle:
                    produced.update(re.findall(
                        r'\.(?:counter|histogram)\(\s*"([^"]+)"', handle.read()
                    ))
    for spec in default_slos():
        assert spec.metric in produced, (spec.name, spec.metric)


def test_latency_burn_exact():
    registry = MetricsRegistry()
    hist = registry.histogram("transaction_rtt_ms")
    clock = _Clock()
    spec = SloSpec(
        "delivery", "latency", target=0.99,
        metric="transaction_rtt_ms", threshold=2.0, windows_s=(10.0,),
    )
    engine = SloEngine(registry, specs=[spec], clock=clock)
    # 95 good, 5 bad -> bad_fraction 0.05 -> burn 0.05/0.01 = 5.0
    for _ in range(95):
        hist.add(1.0)
    for _ in range(5):
        hist.add(10.0)
    (status,) = engine.evaluate()
    assert status.good == 95 and status.total == 100
    assert status.windows[10.0]["burn"] == pytest.approx(5.0)
    assert status.status == "burn"


def test_latency_matches_namespaced_metric_names():
    registry = MetricsRegistry()
    hist = registry.histogram("live_transaction_rtt_ms")
    hist.add(1.0)
    spec = SloSpec(
        "delivery", "latency", target=0.99,
        metric="transaction_rtt_ms", threshold=2.0, windows_s=(10.0,),
    )
    engine = SloEngine(registry, specs=[spec], clock=_Clock())
    (status,) = engine.evaluate()
    assert status.total == 1 and status.good == 1


def test_windowed_burn_forgets_old_badness():
    registry = MetricsRegistry()
    hist = registry.histogram("op_ms")
    clock = _Clock()
    spec = SloSpec(
        "op", "latency", target=0.9, metric="op_ms", threshold=1.0,
        windows_s=(10.0,),
    )
    engine = SloEngine(registry, specs=[spec], clock=clock)
    # An early storm: 10 bad samples at t=0.
    for _ in range(10):
        hist.add(5.0)
    engine.evaluate()
    assert engine.evaluate()[0].worst_burn == pytest.approx(10.0)
    # 100 s later the window holds only fresh, good samples.
    clock.t = 100.0
    for _ in range(20):
        hist.add(0.5)
    engine.evaluate()
    clock.t = 105.0
    (status,) = engine.evaluate()
    assert status.windows[10.0]["total"] == 20
    assert status.worst_burn == 0.0
    assert status.status == "ok"


def test_page_status_at_ten_x_burn():
    registry = MetricsRegistry()
    hist = registry.histogram("op_ms")
    spec = SloSpec(
        "op", "latency", target=0.99, metric="op_ms", threshold=1.0,
        windows_s=(10.0,),
    )
    engine = SloEngine(registry, specs=[spec], clock=_Clock())
    for _ in range(8):
        hist.add(0.5)
    hist.add(99.0)
    hist.add(99.0)  # 20% bad on a 1% budget -> burn 20.0
    (status,) = engine.evaluate()
    assert status.worst_burn == pytest.approx(20.0)
    assert status.status == "page"


def test_report_json_is_canonical_and_complete():
    registry = MetricsRegistry()
    engine = SloEngine(registry, clock=_Clock())
    payload = json.loads(engine.report_json())
    assert payload["type"] == "slo_report"
    assert len(payload["specs"]) == len(default_slos())
    assert len(payload["statuses"]) == len(default_slos())
    for status in payload["statuses"]:
        assert set(status) >= {
            "slo", "target", "status", "worst_burn", "windows",
        }


def test_top_renders_every_slo_and_flags_burn():
    registry = MetricsRegistry()
    hist = registry.histogram("directory_command_ms")
    for _ in range(5):
        hist.add(50.0)  # everything bad: directory_command_latency pages
    engine = SloEngine(registry, clock=_Clock())
    text = render_report(engine.report())
    for spec in default_slos():
        assert spec.name in text
    assert "page" in text
    assert "0/0" in text  # specs with no samples yet show empty totals
