"""Unit tests for the sampling packet tracer and its exporters."""

import json
import time

from repro.obs.trace import Tracer, spans_of


def ticks(*times):
    """A clock that reads ``times`` in order, one per stamped event."""
    return iter(times).__next__


class TestClock:
    def test_every_event_is_stamped_by_the_tracers_clock(self):
        tracer = Tracer(clock=ticks(3.0, 4.5, 7.0))
        tid = tracer.begin("h1")
        tracer.event(tid, "r1", "strip_reverse_append")
        tracer.deliver(tid, "h2")
        record = tracer.record(tid)
        assert record.started == 3.0
        assert [e.t for e in record.events] == [3.0, 4.5, 7.0]

    def test_the_default_clock_is_monotonic(self):
        before = time.monotonic()
        tracer = Tracer()
        tid = tracer.begin("h1")
        assert before <= tracer.record(tid).started <= time.monotonic()

    def test_an_unsampled_send_and_id_zero_read_no_clock(self):
        tracer = Tracer(sample_every=2, clock=ticks(0.0))
        assert tracer.begin("h1") and not tracer.begin("h1")
        tracer.event(0, "r1", "x")
        tracer.drop(0, "r1", "y")
        tracer.deliver(0, "h2")


class TestSampling:
    def test_sample_every_one_traces_all(self):
        tracer = Tracer(sample_every=1)
        ids = [tracer.begin("s") for _ in range(5)]
        assert all(ids)
        assert len(set(ids)) == 5
        assert tracer.sampled == 5
        assert tracer.seen == 5

    def test_sample_every_n_is_exact(self):
        tracer = Tracer(sample_every=10)
        ids = [tracer.begin("s") for _ in range(100)]
        assert sum(1 for i in ids if i) == 10
        assert ids[0] != 0  # the first send is always sampled
        assert tracer.sampled == 10
        assert tracer.seen == 100

    def test_eviction_bounds_memory(self):
        tracer = Tracer(max_traces=3)
        ids = [tracer.begin("s") for _ in range(5)]
        assert len(tracer.records) == 3
        assert tracer.record(ids[0]) is None  # oldest evicted
        assert tracer.record(ids[-1]) is not None


class TestRecording:
    def test_lifecycle_delivered(self):
        tracer = Tracer(clock=ticks(0.0, 1.0, 2.0))
        tid = tracer.begin("h1")
        tracer.event(tid, "r1", "strip_reverse_append", out_port=2)
        tracer.deliver(tid, "h2", socket=5)
        record = tracer.record(tid)
        assert record.status == "delivered"
        assert [e.name for e in record.events] == [
            "send", "strip_reverse_append", "deliver",
        ]
        assert record.total == 2.0

    def test_lifecycle_dropped(self):
        tracer = Tracer(clock=ticks(0.0, 1.0))
        tid = tracer.begin("h1")
        tracer.drop(tid, "r1", "no_route", port=9)
        record = tracer.record(tid)
        assert record.status == "dropped"
        assert record.drop_reason == "no_route"

    def test_id_zero_is_discarded(self):
        tracer = Tracer(sample_every=2)
        tracer.begin("h1")
        tracer.event(0, "r1", "x")
        tracer.drop(0, "r1", "y")
        tracer.deliver(0, "h2")
        assert len(tracer.records) == 1

    def test_unknown_id_adopted_midflight(self):
        tracer = Tracer(clock=ticks(5.0))
        tracer.event(0xABC, "r1", "strip_reverse_append")
        record = tracer.record(0xABC)
        assert record is not None
        assert record.source == "r1"
        assert record.started == 5.0

    def test_spans_group_consecutive_same_node_events(self):
        tracer = Tracer(clock=ticks(0.0, 0.1, 0.5, 0.6, 1.0))
        tid = tracer.begin("h1")
        tracer.event(tid, "h1", "tx_start")
        tracer.event(tid, "r1", "cut_through_start")
        tracer.event(tid, "r1", "strip_reverse_append")
        tracer.deliver(tid, "h2")
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
            tracer = None

        setter, plain = WithSetter(), WithAttr()
        tracer = Tracer().install(setter, plain)
        assert setter.installed is tracer
        assert plain.tracer is tracer


class TestExport:
    def _traced(self):
        tracer = Tracer(clock=ticks(0.0, 1e-4, 2e-4, 1.0, 1.1))
        tid = tracer.begin("h1")
        tracer.event(tid, "r1", "strip_reverse_append", out_port=2)
        tracer.deliver(tid, "h2")
        dropped = tracer.begin("h1")
        tracer.drop(dropped, "r1", "token_reject")
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
