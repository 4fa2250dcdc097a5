"""Unit tests for the sampling packet tracer and its exporters."""

import json

from repro.obs.trace import NULL_TRACER, NullTracer, Tracer, spans_of


class TestNullTracer:
    def test_begin_returns_untraced(self):
        assert NULL_TRACER.begin("src", 0.0) == 0

    def test_everything_is_a_noop(self):
        tracer = NullTracer()
        tracer.event(1, 0.0, "n", "x")
        tracer.drop(1, 0.0, "n", "reason")
        tracer.deliver(1, 0.0, "n")
        assert tracer.record(1) is None
        assert tracer.enabled is False


class TestSampling:
    def test_sample_every_one_traces_all(self):
        tracer = Tracer(sample_every=1)
        ids = [tracer.begin("s", float(i)) for i in range(5)]
        assert all(ids)
        assert len(set(ids)) == 5
        assert tracer.sampled == 5
        assert tracer.seen == 5

    def test_sample_every_n_is_exact(self):
        tracer = Tracer(sample_every=10)
        ids = [tracer.begin("s", float(i)) for i in range(100)]
        assert sum(1 for i in ids if i) == 10
        assert ids[0] != 0  # the first send is always sampled
        assert tracer.sampled == 10
        assert tracer.seen == 100

    def test_eviction_bounds_memory(self):
        tracer = Tracer(max_traces=3)
        ids = [tracer.begin("s", float(i)) for i in range(5)]
        assert len(tracer.records) == 3
        assert tracer.record(ids[0]) is None  # oldest evicted
        assert tracer.record(ids[-1]) is not None


class TestRecording:
    def test_lifecycle_delivered(self):
        tracer = Tracer()
        tid = tracer.begin("h1", 0.0)
        tracer.event(tid, 1.0, "r1", "strip_reverse_append", out_port=2)
        tracer.deliver(tid, 2.0, "h2", socket=5)
        record = tracer.record(tid)
        assert record.status == "delivered"
        assert [e.name for e in record.events] == [
            "send", "strip_reverse_append", "deliver",
        ]
        assert record.total == 2.0

    def test_lifecycle_dropped(self):
        tracer = Tracer()
        tid = tracer.begin("h1", 0.0)
        tracer.drop(tid, 1.0, "r1", "no_route", port=9)
        record = tracer.record(tid)
        assert record.status == "dropped"
        assert record.drop_reason == "no_route"

    def test_id_zero_is_discarded(self):
        tracer = Tracer(sample_every=2)
        tracer.begin("h1", 0.0)
        tracer.event(0, 1.0, "r1", "x")
        tracer.drop(0, 1.0, "r1", "y")
        tracer.deliver(0, 1.0, "h2")
        assert len(tracer.records) == 1

    def test_unknown_id_adopted_midflight(self):
        tracer = Tracer()
        tracer.event(0xABC, 5.0, "r1", "strip_reverse_append")
        record = tracer.record(0xABC)
        assert record is not None
        assert record.source == "r1"

    def test_spans_group_consecutive_same_node_events(self):
        tracer = Tracer()
        tid = tracer.begin("h1", 0.0)
        tracer.event(tid, 0.1, "h1", "tx_start")
        tracer.event(tid, 0.5, "r1", "cut_through_start")
        tracer.event(tid, 0.6, "r1", "strip_reverse_append")
        tracer.deliver(tid, 1.0, "h2")
        spans = tracer.spans(tid)
        assert [s.node for s in spans] == ["h1", "r1", "h2"]
        assert spans[1].end - spans[1].start == 0.6 - 0.5


class TestInstall:
    def test_install_prefers_set_tracer(self):
        class WithSetter:
            def __init__(self):
                self.installed = None

            def set_tracer(self, tracer):
                self.installed = tracer

        class WithAttr:
            tracer = NULL_TRACER

        setter, plain = WithSetter(), WithAttr()
        tracer = Tracer().install(setter, plain)
        assert setter.installed is tracer
        assert plain.tracer is tracer


class TestExport:
    def _traced(self):
        tracer = Tracer()
        tid = tracer.begin("h1", 0.0)
        tracer.event(tid, 1e-4, "r1", "strip_reverse_append", out_port=2)
        tracer.deliver(tid, 2e-4, "h2")
        dropped = tracer.begin("h1", 1.0)
        tracer.drop(dropped, 1.1, "r1", "token_reject")
        return tracer, tid

    def test_ndjson_roundtrip(self, tmp_path):
        tracer, tid = self._traced()
        path = str(tmp_path / "traces.ndjson")
        lines = tracer.export_ndjson(path)
        with open(path) as handle:
            parsed = [json.loads(line) for line in handle]
        assert len(parsed) == lines
        headers = [p for p in parsed if p["type"] == "trace"]
        events = [p for p in parsed if p["type"] == "event"]
        assert {h["status"] for h in headers} == {"delivered", "dropped"}
        assert any(
            e["event"] == "strip_reverse_append"
            and e["attrs"] == {"out_port": 2}
            for e in events
        )

    def test_chrome_export_loads_as_trace_event_json(self, tmp_path):
        tracer, tid = self._traced()
        path = str(tmp_path / "trace.json")
        count = tracer.export_chrome(path)
        with open(path) as handle:
            doc = json.load(handle)
        events = doc["traceEvents"]
        assert len(events) == count
        slices = [e for e in events if e["ph"] == "X"]
        assert {e["name"] for e in slices} >= {"h1", "r1", "h2"}
        drops = [e for e in events if e["ph"] == "i"]
        assert drops and drops[0]["name"] == "drop:token_reject"

    def test_spans_of_empty_record(self):
        from repro.obs.trace import TraceRecord
        assert spans_of(TraceRecord(trace_id=1, source="s", started=0.0)) == []
