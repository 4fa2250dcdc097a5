"""The flight recorder: ring bounds, dumps, forensics.

Pure unit coverage of :mod:`repro.obs.recorder` — the always-on ring
every live node and the chaos seam append to.  The contract under test:
append order is causal order, the ring is bounded, a dump round-trips
through :func:`load_dump`, and :func:`fault_timeline` reduces a dump to
the onset → detection → promotion → recovery story.
"""

import json

import pytest

from repro.directory.cluster.replica import ReplicatedShard
from repro.obs.httpd import ObsHttpServer
from repro.obs.recorder import FlightRecorder, fault_timeline, load_dump
from repro.obs.registry import MetricsRegistry


class _Clock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_record_preserves_causal_order_and_seq():
    clock = _Clock()
    rec = FlightRecorder(clock=clock)
    rec.record("first", node="a")
    clock.t = 5.0
    rec.record("second", node="b", detail=1)
    clock.t = 2.0  # timestamp goes *backwards*: order must not change
    rec.record("third", node="c")
    events = rec.events()
    assert [e.name for e in events] == ["first", "second", "third"]
    assert [e.seq for e in events] == [1, 2, 3]
    assert events[1].fields == {"detail": 1}


def test_ring_is_bounded_and_counts_evictions():
    rec = FlightRecorder(capacity=4, clock=_Clock())
    for n in range(10):
        rec.record("tick", node="x", n=n)
    assert len(rec._ring) == 4
    assert rec.recorded == 10
    assert [e.fields["n"] for e in rec.events()] == [6, 7, 8, 9]


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        FlightRecorder(capacity=0)


def test_events_window_filters_by_time():
    clock = _Clock()
    rec = FlightRecorder(clock=clock)
    for t in (0.0, 1.0, 2.0, 3.0):
        rec.record("tick", node="x", t=t)
    clock.t = 3.0
    recent = rec.events(last_s=1.5)
    assert [e.t for e in recent] == [2.0, 3.0]
    assert [e.t for e in rec.events(last_s=10.0, now=3.0)] == [
        0.0, 1.0, 2.0, 3.0,
    ]


def test_dump_round_trips_through_load_dump(tmp_path):
    clock = _Clock()
    rec = FlightRecorder(clock=clock)
    rec.record("slick_reroute", node="r1", in_port=1, out_port=2)
    clock.t = 0.5
    rec.record("link_down", node="dst")
    path = tmp_path / "dump.ndjson"
    text = rec.dump_ndjson(path=str(path), reason="unit_test")
    assert path.read_text() == text
    header, events = load_dump(text)
    assert header["reason"] == "unit_test"
    assert header["events"] == 2
    assert header["recorded_total"] == 2
    assert [e["event"] for e in events] == [
        "slick_reroute", "link_down",
    ]
    assert events[0]["in_port"] == 1 and events[0]["node"] == "r1"
    # Canonical lines: each parses alone and is key-sorted.
    for line in text.strip().splitlines():
        obj = json.loads(line)
        assert list(obj) == sorted(obj)
    assert rec.dumps == 1


def test_load_dump_rejects_non_dumps():
    with pytest.raises(ValueError):
        load_dump('{"type":"event","seq":1}')
    with pytest.raises(ValueError):
        load_dump('{"type":"mystery"}')


def test_off_is_none_until_installed():
    """A component with no telemetry installed holds None, and the obs
    endpoint answers 404 for the dump and the traces it does not hold."""
    shard = ReplicatedShard("shard-0")
    assert shard.tracer is None and shard.recorder is None
    server = ObsHttpServer(MetricsRegistry())
    for path in (b"/dump", b"/trace", b"/trace?id=1"):
        status, _, _ = server._respond(b"GET " + path + b" HTTP/1.0\r\n")
        assert status == "404 Not Found", path


def test_install_uses_setter_or_attribute():
    class WithSetter:
        def __init__(self):
            self.got = None

        def set_recorder(self, recorder):
            self.got = recorder

    class WithAttr:
        recorder = None

    rec = FlightRecorder(clock=_Clock())
    a, b = WithSetter(), WithAttr()
    assert rec.install(a, b) is rec
    assert a.got is rec
    assert b.recorder is rec


def test_fault_timeline_reduces_to_four_phases():
    clock = _Clock()
    rec = FlightRecorder(clock=clock)
    rec.record("fault_applied", node="chaos", t=1.0,
               kind="shard_failover", target="shard:shard-0",
               action="start")
    rec.record("shard_leader_killed", node="chaos", t=1.0,
               shard="shard-0")
    rec.record("leader_killed", node="shard-0", t=1.0,
               replica="shard-0/r0")
    rec.record("frame_dropped", node="r1", t=1.1, reason="no_socket")
    rec.record("leader_promoted", node="shard-0", t=1.2,
               replica="shard-0/r1")
    rec.record("replica_restarted", node="shard-0", t=1.5,
               replica="shard-0/r0")
    rec.record("fault_applied", node="chaos", t=1.5,
               kind="shard_failover", target="shard:shard-0",
               action="stop")
    _, events = load_dump(rec.dump_ndjson(now=2.0))
    timeline = fault_timeline(events)
    assert [e["event"] for e in timeline["onset"]] == ["fault_applied"]
    assert timeline["onset"][0]["action"] == "start"
    assert {e["event"] for e in timeline["detection"]} == {
        "shard_leader_killed", "leader_killed",
    }
    assert [e["event"] for e in timeline["promotion"]] == [
        "leader_promoted",
    ]
    assert [e["event"] for e in timeline["recovery"]] == [
        "replica_restarted", "fault_applied",
    ]
    assert timeline["recovery"][1]["action"] == "stop"
