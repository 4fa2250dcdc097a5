"""Unit tests for the trace report CLI (``python -m repro.obs.report``)."""

from repro.obs.report import (
    load_ndjson,
    main,
    render_drop_reasons,
    render_trace,
    render_tree,
)
from repro.obs.trace import Tracer


def _exported(tmp_path):
    """One delivered and one dropped trace round-tripped through NDJSON."""
    tracer = Tracer(clock=iter([0.0, 1e-4, 1.2e-4, 3e-4, 1.0, 1.1, 1.2]).__next__)
    tid = tracer.begin("h1")
    tracer.event(tid, "r1", "cut_through_start", in_port=1)
    tracer.event(tid, "r1", "strip_reverse_append", out_port=2)
    tracer.deliver(tid, "h2", socket=0)
    dropped = tracer.begin("h1")
    tracer.event(dropped, "r1", "switch_decision")
    tracer.drop(dropped, "r1", "no_route", port=9)
    path = str(tmp_path / "traces.ndjson")
    tracer.export_ndjson(path)
    return path, tid, dropped


class TestLoad:
    def test_roundtrip_preserves_records(self, tmp_path):
        path, tid, dropped = _exported(tmp_path)
        records = {r.trace_id: r for r in load_ndjson(path)}
        assert set(records) == {tid, dropped}
        ok = records[tid]
        assert ok.status == "delivered"
        assert [e.name for e in ok.events] == [
            "send", "cut_through_start", "strip_reverse_append", "deliver",
        ]
        assert ok.events[2].attrs == {"out_port": 2}
        bad = records[dropped]
        assert bad.status == "dropped"
        assert bad.drop_reason == "no_route"

    def test_orphan_events_adopt_a_record(self, tmp_path):
        path = tmp_path / "orphan.ndjson"
        path.write_text(
            '{"type": "event", "trace_id": 7, "t": 0.5, '
            '"node": "r9", "event": "x"}\n'
        )
        (record,) = load_ndjson(str(path))
        assert record.trace_id == 7
        assert record.source == "r9"
        assert record.started == 0.5


class TestRendering:
    def test_trace_breakdown_has_one_line_per_span(self, tmp_path):
        path, tid, _ = _exported(tmp_path)
        record = next(r for r in load_ndjson(path) if r.trace_id == tid)
        text = render_trace(record)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {tid:#018x} from h1 [delivered]")
        # h1, r1, h2 — one body line per hop, each with a bar and a %.
        assert len(lines) == 4
        assert all("%" in line for line in lines[1:])
        assert "strip_reverse_append" in text

    def test_drop_table_counts_and_sites(self, tmp_path):
        path, _, _ = _exported(tmp_path)
        text = render_drop_reasons(load_ndjson(path))
        assert "no_route" in text
        assert "r1 x1" in text

    def test_no_drops_is_a_sentence(self):
        assert render_drop_reasons([]) == "no drops recorded"

    def test_tree_indents_parented_layers(self, tmp_path):
        tracer = Tracer(clock=iter([0.0, 1e-4, 2e-4]).__next__)
        tid = tracer.begin("h1")
        tracer.event(tid, "directory", "command_received", parent="h1")
        tracer.event(tid, "cluster", "command_route", parent="directory")
        record = tracer.record(tid)
        text = render_tree(record)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {tid:#018x}")
        assert lines[1].lstrip().startswith("h1")
        assert lines[2].startswith("    directory") or (
            "directory" in lines[2]
            and len(lines[2]) - len(lines[2].lstrip())
            < len(lines[3]) - len(lines[3].lstrip())
        )
        # Strictly deepening indentation: one level per layer.
        indents = [len(l) - len(l.lstrip()) for l in lines[1:]]
        assert indents == sorted(indents) and len(set(indents)) == 3


class TestMain:
    def test_exit_zero_and_output(self, tmp_path, capsys):
        path, tid, _ = _exported(tmp_path)
        assert main([path]) == 0
        out = capsys.readouterr().out
        assert "2 trace(s) loaded" in out
        assert "no_route" in out

    def test_trace_filter_hex(self, tmp_path, capsys):
        path, tid, _ = _exported(tmp_path)
        assert main([path, "--trace", f"{tid:#x}"]) == 0
        out = capsys.readouterr().out
        assert "1 trace(s) loaded" in out

    def test_unknown_trace_id_exits_one(self, tmp_path, capsys):
        path, _, _ = _exported(tmp_path)
        assert main([path, "--trace", "0xdeadbeef"]) == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.ndjson")]) == 2

    def test_limit_elides_extra_traces(self, tmp_path, capsys):
        path, _, _ = _exported(tmp_path)
        assert main([path, "--limit", "1"]) == 0
        assert "1 more not shown" in capsys.readouterr().out

    def test_tree_flag_prints_trees(self, tmp_path, capsys):
        path, tid, _ = _exported(tmp_path)
        assert main([path, "--tree"]) == 0
        out = capsys.readouterr().out
        assert "] tree" in out
        assert "event(s)" in out
