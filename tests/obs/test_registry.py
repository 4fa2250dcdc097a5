"""Unit tests for the unified metrics registry."""

import pytest

from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Sample,
)


def snapshot(registry):
    """Flat ``{exposition_key: value}`` over everything registered."""
    return {sample.key(): sample.value for sample in registry.samples()}


class TestPrimitives:
    def test_counter_is_the_sim_counter(self):
        from repro.sim.monitor import Counter as SimCounter
        assert SimCounter is Counter  # one implementation, two names

    def test_gauge_set_inc_dec(self):
        gauge = Gauge("depth")
        gauge.set(5.0)
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value == 6.0
        (sample,) = list(gauge.samples())
        assert sample.name == "depth"
        assert sample.value == 6.0

    def test_histogram_exposition_is_summary_shaped(self):
        hist = Histogram("delay")
        for v in (1.0, 2.0, 3.0):
            hist.add(v)
        samples = {s.key(): s.value for s in hist.samples_for_exposition()}
        assert samples['delay{quantile="0.5"}'] == 2.0
        assert samples["delay_sum"] == pytest.approx(6.0)
        assert samples["delay_count"] == 3.0


class TestRegistry:
    def test_get_or_create_returns_same_metric(self):
        registry = MetricsRegistry()
        a = registry.counter("forwarded", node="r1")
        b = registry.counter("forwarded", node="r1")
        other = registry.counter("forwarded", node="r2")
        assert a is b
        assert a is not other

    def test_kind_collision_rejected(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.histogram("x")

    def test_illegal_names_rejected(self):
        registry = MetricsRegistry()
        for bad in ("", "1abc", "has space", "dash-ed"):
            with pytest.raises(ValueError):
                registry.counter(bad)

    def test_namespace_prefixes(self):
        registry = MetricsRegistry(namespace="live")
        counter = registry.counter("frames_in")
        assert counter.name == "live_frames_in"

    def test_adopt_existing_metric_with_labels(self):
        registry = MetricsRegistry()
        counter = Counter("forwarded")
        counter.add(3)
        registry.register(counter, node="r1")
        snap = snapshot(registry)
        assert snap['forwarded{node="r1"}'] == 3.0

    def test_collector_called_at_scrape_time(self):
        registry = MetricsRegistry()
        state = {"v": 1.0}
        registry.register_collector(
            lambda: [Sample("pull", (), state["v"])]
        )
        assert snapshot(registry)["pull"] == 1.0
        state["v"] = 9.0
        assert snapshot(registry)["pull"] == 9.0

    def test_snapshot_keys_include_labels(self):
        registry = MetricsRegistry()
        registry.counter("hits", node="a", port="2").add(7)
        assert snapshot(registry) == {'hits{node="a",port="2"}': 7.0}

    def test_label_values_escaped(self):
        sample = Sample("m", (("who", 'say "hi"\n'),), 1.0)
        assert sample.key() == 'm{who="say \\"hi\\"\\n"}'


class TestPrometheusRendering:
    def test_type_lines_and_values(self):
        registry = MetricsRegistry()
        registry.counter("forwarded", node="r1").add(2)
        qdepth = Gauge("qdepth")
        qdepth.set(1.5)
        registry.register(qdepth, node="r1")
        hist = registry.histogram("delay", node="r1")
        hist.add(0.5)
        text = registry.render_prometheus()
        assert "# TYPE forwarded counter" in text
        assert "# TYPE qdepth gauge" in text
        assert "# TYPE delay summary" in text
        assert 'forwarded{node="r1"} 2' in text
        assert 'qdepth{node="r1"} 1.5' in text
        assert 'delay_count{node="r1"} 1' in text
        assert text.endswith("\n")

    def test_each_type_line_emitted_once(self):
        registry = MetricsRegistry()
        registry.counter("forwarded", node="r1").add(1)
        registry.counter("forwarded", node="r2").add(1)
        text = registry.render_prometheus()
        assert text.count("# TYPE forwarded counter") == 1


class TestAdapters:
    def test_endpoint_metrics_names_preserved(self):
        from repro.live.metrics import EndpointMetrics
        from repro.obs.adapters import endpoint_metrics_samples

        metrics = EndpointMetrics("h1")
        metrics.frames_in += 1
        metrics.bytes_in += 100
        metrics.drop("no_route")
        snap = {
            s.key(): s.value for s in endpoint_metrics_samples(metrics)
        }
        assert snap['frames_in{node="h1"}'] == 1.0
        assert snap['bytes_in{node="h1"}'] == 100.0
        assert snap['drop_no_route{node="h1"}'] == 1.0
