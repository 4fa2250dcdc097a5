"""Per-rule fixtures: each rule must fire on its negative snippet,
stay silent on the positive one, and honour inline suppression."""

import textwrap

from sirlint.engine import analyze_source
from sirlint.rules.hotpath import REQUIRED_HOT


def analyze(source, module_name, path="src/repro/fixture.py", extra=()):
    return analyze_source(
        textwrap.dedent(source), module_name, path=path, extra_modules=extra
    )


def rules_fired(findings):
    return sorted({f.rule for f in findings})


def live_router(source):
    """Findings for ``source`` as ``repro.live.router``, less SIR008's
    pin on that module name (a fixture is not the batch loop)."""
    return [
        f for f in analyze(
            source, "repro.live.router", path="src/repro/live/router.py"
        )
        if f.symbol != "hot-marker:_on_batch"
    ]


#: SIR008's pins on ``repro.live.frames``: the payload walk and the move.
FRAMES_PINS = {
    f"hot-marker:{name}" for name in REQUIRED_HOT["repro.live.frames"]
}


def live_frames(source):
    """Findings for ``source`` as ``repro.live.frames``, less SIR008's
    pins on that module name (a fixture is not the payload walk or the
    move)."""
    return [
        f for f in analyze(
            source, "repro.live.frames", path="src/repro/live/frames.py"
        )
        if f.symbol not in FRAMES_PINS
    ]


# -- SIR001: sans-IO purity --------------------------------------------------


def test_sir001_fires_on_effectful_import_in_pure_module():
    findings = analyze(
        """
        import time

        def now():
            return time.monotonic()
        """,
        "repro.dataplane.fixture",
    )
    assert rules_fired(findings) == ["SIR001"]
    assert any("time" in f.message for f in findings)


def test_sir001_fires_on_open_call_in_pure_module():
    findings = analyze(
        """
        def load(path):
            with open(path) as handle:
                return handle.read()
        """,
        "repro.viper.fixture",
    )
    assert rules_fired(findings) == ["SIR001"]


def test_sir001_fires_on_repo_import_outside_pure_closure():
    findings = analyze(
        """
        from repro.live.router import LiveRouter
        """,
        "repro.tokens.fixture",
    )
    assert rules_fired(findings) == ["SIR001"]
    assert any("closure" in f.message for f in findings)


def test_sir001_silent_on_pure_module():
    findings = analyze(
        """
        import math
        from repro.viper.wire import HeaderSegment
        from repro.net.addresses import MacAddress

        def pure(x):
            return math.sqrt(x)
        """,
        "repro.dataplane.fixture",
    )
    assert findings == []


def test_sir001_silent_outside_pure_packages():
    findings = analyze(
        """
        import time

        def now():
            return time.monotonic()
        """,
        "repro.live.fixture",
    )
    assert findings == []


def test_sir001_inline_suppression():
    findings = analyze(
        """
        import time  # sirlint: disable=SIR001 -- fixture: vendored timing shim
        """,
        "repro.dataplane.fixture",
    )
    assert findings == []


def test_sir001_silent_on_the_transaction_machine():
    findings = analyze(
        """
        from repro.transport.flowcontrol import DeliveryMask
        from repro.transport.ids import EntityId
        from repro.transport.timestamps import TimestampPolicy
        """,
        "repro.transport.machine",
    )
    assert findings == []


def test_sir001_fires_on_the_transaction_machine_reaching_for_a_loop():
    findings = analyze(
        """
        import asyncio
        from repro.sim.engine import Simulator
        """,
        "repro.transport.machine",
    )
    assert rules_fired(findings) == ["SIR001"]
    assert len(findings) == 2


def test_sir001_fires_on_a_clock_in_the_router_core():
    findings = analyze(
        """
        import time

        def now_ms():
            return int(time.monotonic() * 1000)
        """,
        "repro.dataplane.router",
        path="src/repro/dataplane/router.py",
    )
    assert [f.rule for f in findings if f.rule != "SIR008"] == ["SIR001"]
    assert any("time" in f.message for f in findings)


def test_sir001_keeps_the_frame_moves_in_the_closure():
    core = analyze(
        """
        from repro.live.frames import forward_into, truncate_into
        """,
        "repro.dataplane.router",
        path="src/repro/dataplane/router.py",
    )
    assert "SIR001" not in rules_fired(core)
    frames = live_frames(
        """
        import struct
        import time
        """
    )
    assert rules_fired(frames) == ["SIR001"]


# -- SIR002: no module-global mutable state ----------------------------------


def test_sir002_fires_on_module_level_mutable_container():
    findings = analyze(
        """
        CACHE = {}

        def remember(k, v):
            CACHE[k] = v
        """,
        "repro.core.fixture",
    )
    assert rules_fired(findings) == ["SIR002"]
    symbols = {f.symbol for f in findings}
    assert "global:CACHE" in symbols
    assert "mutate:CACHE" in symbols


def test_sir002_fires_on_global_statement_and_augassign():
    findings = analyze(
        """
        COUNT = 0
        COUNT += 1

        def bump():
            global COUNT
            COUNT = COUNT + 1
        """,
        "repro.core.fixture",
    )
    symbols = {f.symbol for f in findings}
    assert "augassign:COUNT" in symbols
    assert "global-stmt:COUNT" in symbols


def test_sir002_silent_on_immutable_constants():
    findings = analyze(
        """
        NAMES = ("a", "b")
        ALLOWED = frozenset({"x", "y"})
        MAGIC = b"VL"
        __all__ = ["NAMES", "ALLOWED"]
        """,
        "repro.core.fixture",
    )
    assert findings == []


def test_sir002_inline_suppression():
    findings = analyze(
        """
        CACHE = {}  # sirlint: disable=SIR002 -- fixture: audited process-wide cache
        """,
        "repro.core.fixture",
    )
    assert findings == []


# -- SIR003: async hygiene ---------------------------------------------------


def test_sir003_fires_on_blocking_call_in_coroutine():
    findings = analyze(
        """
        import time

        async def pump():
            time.sleep(0.1)
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR003"]
    assert any("time.sleep" in f.message for f in findings)


def test_sir003_fires_on_discarded_repo_coroutine():
    findings = analyze(
        """
        async def open_endpoint():
            return 1

        def boot():
            open_endpoint()
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR003"]
    assert any("never" in f.message for f in findings)


def test_sir003_fires_on_discarded_asyncio_coroutine():
    findings = analyze(
        """
        import asyncio

        def nap():
            asyncio.sleep(1)
        """,
        "repro.live.fixture",
    )
    assert rules_fired(findings) == ["SIR003"]


def test_sir003_silent_on_awaited_and_scheduled_calls():
    findings = analyze(
        """
        import asyncio

        async def open_endpoint():
            return 1

        async def boot():
            await open_endpoint()
            asyncio.create_task(open_endpoint())
        """,
        "repro.live.fixture",
    )
    assert findings == []


def test_sir003_ambiguous_method_name_not_flagged():
    # `close` is async in one class, sync in another: never flagged.
    findings = analyze(
        """
        class A:
            async def close(self):
                pass

        class B:
            def close(self):
                pass

        def shutdown(thing):
            thing.close()
        """,
        "repro.live.fixture",
    )
    assert findings == []


def test_sir003_inline_suppression():
    findings = analyze(
        """
        import time

        async def pump():
            time.sleep(0.1)  # sirlint: disable=SIR003 -- fixture: micro-sleep below budget
        """,
        "repro.live.fixture",
    )
    assert findings == []


# -- SIR004: metrics discipline ----------------------------------------------


def test_sir004_fires_on_dotted_metric_name():
    findings = analyze(
        """
        from repro.sim.monitor import Counter

        class Stats:
            def __init__(self):
                self.rtt = Counter("route.switches")
        """,
        "repro.transport.fixture",
    )
    assert rules_fired(findings) == ["SIR004"]


def test_sir004_allows_instance_prefixed_fstring():
    findings = analyze(
        """
        from repro.sim.monitor import Counter

        class Stats:
            def __init__(self, name):
                self.drops = Counter(f"{name}.drops_total")
        """,
        "repro.transport.fixture",
    )
    assert findings == []


def test_sir004_fires_on_cross_file_kind_conflict():
    findings = analyze(
        """
        from repro.sim.monitor import Counter
        rtt = Counter("rtt")
        """,
        "repro.transport.fixture",
        extra=[(
            "from repro.sim.monitor import Histogram\nrtt = Histogram('rtt')\n",
            "repro.workloads.fixture",
            "src/repro/workloads/fixture.py",
        )],
    )
    assert any(f.symbol == "metric-kind:rtt" for f in findings)


def test_sir004_fires_on_label_set_conflict():
    findings = analyze(
        """
        def setup(registry):
            registry.counter("forwarded", node="r1")
            registry.counter("forwarded")
        """,
        "repro.obs.fixture",
    )
    assert any(f.symbol == "metric-labels:forwarded" for f in findings)


def test_sir004_inline_suppression():
    findings = analyze(
        """
        from repro.sim.monitor import Counter
        rtt = Counter("route.switches")  # sirlint: disable=SIR004 -- fixture: legacy metric name
        """,
        "repro.transport.fixture",
    )
    assert findings == []


# -- SIR005: wire-layout consistency -----------------------------------------


def test_sir005_fires_on_non_power_of_two_flag():
    findings = analyze(
        """
        FLAG_BAD = 3
        """,
        "repro.viper.flags",
        path="src/repro/viper/flags.py",
    )
    assert any(f.symbol == "flag-bit:FLAG_BAD" for f in findings)


def test_sir005_fires_on_overlapping_flags():
    findings = analyze(
        """
        FLAG_A = 4
        FLAG_B = 4
        """,
        "repro.viper.flags",
        path="src/repro/viper/flags.py",
    )
    assert any(f.symbol == "flag-overlap:FLAG_A:FLAG_B" for f in findings)


def test_sir005_fires_on_magic_to_bytes_width():
    findings = analyze(
        """
        def encode(seq):
            return seq.to_bytes(4, "big")
        """,
        "repro.live.frames",
        path="src/repro/live/frames.py",
    )
    assert any(f.symbol.startswith("magic-width:4") for f in findings)


def test_sir005_fires_on_cross_file_constant_disagreement():
    findings = analyze(
        """
        HEADER_BYTES = 4
        """,
        "repro.viper.wire",
        path="src/repro/viper/wire.py",
        extra=[(
            "HEADER_BYTES = 6\n",
            "repro.live.frames",
            "src/repro/live/frames.py",
        )],
    )
    assert any(f.symbol == "const-conflict:HEADER_BYTES" for f in findings)


def test_sir005_silent_on_disciplined_layout():
    findings = live_frames(
        """
        FLAG_A = 1
        FLAG_B = 2
        SEQ_BYTES = 4

        def encode(seq):
            return seq.to_bytes(SEQ_BYTES, "big")
        """
    )
    assert findings == []


def test_sir005_not_applied_outside_wire_modules():
    findings = analyze(
        """
        def encode(seq):
            return seq.to_bytes(4, "big")
        """,
        "repro.transport.fixture",
    )
    assert findings == []


def test_sir005_inline_suppression():
    findings = live_frames(
        """
        def encode(seq):
            return seq.to_bytes(4, "big")  # sirlint: disable=SIR005 -- fixture: layout change is deliberate
        """
    )
    assert findings == []


# -- SIR006: drop discipline -------------------------------------------------


def test_sir006_fires_on_adhoc_drop_call():
    findings = live_router(
        """
        class Router:
            def on_frame(self, frame):
                self.metrics.drop("undecodable")
        """
    )
    assert rules_fired(findings) == ["SIR006"]


def test_sir006_fires_on_direct_counter_bump():
    findings = analyze(
        """
        class Router:
            def route(self, packet):
                self.stats.dropped_no_port.add(1)
        """,
        "repro.core.router",
        path="src/repro/core/router.py",
    )
    assert any("dropped_no_port" in f.message for f in findings)


def test_sir006_allows_effect_sink_adapters():
    findings = analyze(
        """
        class RouterSink(EffectSink):
            def bump(self, name, n=1):
                self.stats.dropped_no_port.add(n)

            def trace_drop(self, reason):
                self.tracer.drop(reason)
        """,
        "repro.core.router",
        path="src/repro/core/router.py",
    )
    # (SIR008 pins hot markers in this module name; not this fixture's.)
    assert "SIR006" not in rules_fired(findings)


def test_sir006_recognises_the_one_router_sink():
    """The router core's sink is exempt because it is an ``EffectSink``:
    the same source with the base removed is a finding."""
    import pathlib

    import repro.dataplane.router as core_module

    source = pathlib.Path(core_module.__file__).read_text()
    declared = "class RouterSink(EffectSink):"
    assert declared in source

    def sir006(text):
        return [
            f for f in analyze_source(
                text, "repro.dataplane.router",
                path="src/repro/dataplane/router.py",
            )
            if f.rule == "SIR006"
        ]

    assert sir006(source) == []
    unbased = sir006(source.replace(declared, "class RouterSink:"))
    assert [f.symbol for f in unbased] == ["adhoc-drop:RouterSink.bump:drop"]


def test_sir006_not_applied_outside_router_modules():
    findings = analyze(
        """
        class Monitor:
            def observe(self):
                self.metrics.drop("sample")
        """,
        "repro.sim.monitor",
        path="src/repro/sim/monitor.py",
    )
    assert findings == []


def test_sir006_inline_suppression():
    findings = live_router(
        """
        class Router:
            def on_frame(self, frame):
                self.metrics.drop("undecodable")  # sirlint: disable=SIR006 -- fixture: sanctioned second applicator
        """
    )
    assert findings == []


# -- SIR007: flight-recorder event discipline --------------------------------


def test_sir007_fires_on_dynamic_event_name():
    findings = live_router(
        """
        class Router:
            def restart(self, kind):
                self.recorder.record(kind, node=self.name)
        """
    )
    assert rules_fired(findings) == ["SIR007"]
    assert any("static string" in f.message for f in findings)


def test_sir007_fires_on_interpolated_event_name():
    findings = live_router(
        """
        class Router:
            def restart(self):
                self.recorder.record(f"restarted_{self.name}")
        """
    )
    assert rules_fired(findings) == ["SIR007"]


def test_sir007_fires_on_non_snake_case_event_name():
    findings = live_router(
        """
        class Router:
            def restart(self):
                self.recorder.record("RouterRestarted", node=self.name)
        """
    )
    assert rules_fired(findings) == ["SIR007"]
    assert any("snake_case" in f.message for f in findings)
    assert any(f.symbol == "record-event:RouterRestarted" for f in findings)


def test_sir007_fires_on_ring_access_and_direct_event():
    findings = analyze(
        """
        from repro.obs.recorder import RecorderEvent

        class Sneaky:
            def inject(self, recorder):
                recorder._ring.append(
                    RecorderEvent(0, 0.0, "x", "forged", {})
                )
        """,
        "repro.chaos.fixture",
        path="src/repro/chaos/fixture.py",
    )
    symbols = {f.symbol for f in findings if f.rule == "SIR007"}
    assert "ring-access:_ring" in symbols
    assert "direct-event:RecorderEvent" in symbols


def test_sir007_silent_on_static_snake_case_names():
    findings = live_router(
        """
        class Router:
            def restart(self):
                if self.recorder is not None:
                    self.recorder.record("router_restarted", node=self.name)

        def drive(injector, now):
            injector.record("shard_promoted", now, shard="shard-0")
        """
    )
    assert findings == []


def test_sir007_exempts_delegating_record_wrappers():
    findings = analyze(
        """
        class FaultInjector:
            def record(self, kind, at, **fields):
                if self.recorder is not None:
                    self.recorder.record(kind, node="chaos", t=at, **fields)
        """,
        "repro.chaos.seam",
        path="src/repro/chaos/seam.py",
    )
    assert findings == []


def test_sir007_ring_access_allowed_inside_recorder_module():
    findings = analyze(
        """
        class FlightRecorder:
            def events(self):
                return list(self._ring)
        """,
        "repro.obs.recorder",
        path="src/repro/obs/recorder.py",
    )
    assert findings == []


def test_sir007_inline_suppression():
    findings = live_router(
        """
        class Router:
            def restart(self, kind):
                self.recorder.record(kind)  # sirlint: disable=SIR007 -- fixture: duplicate event is intended
        """
    )
    assert findings == []


# -- SIR008: hot-path allocation discipline ----------------------------------


def test_sir008_fires_on_bytes_construction_in_hot_function():
    findings = analyze(
        """
        def parse(buffer, offset):  # sirlint: hot
            return bytes(buffer[offset:offset + 4])
        """,
        "repro.viper.fixture",
    )
    assert "SIR008" in rules_fired(findings)
    assert any("bytes()" in f.message for f in findings)


def test_sir008_fires_on_bytes_concat_and_container_literals():
    findings = analyze(
        """
        def advance(self, span):  # sirlint: hot
            header = span + b"tail"
            slots = []
            meta = {"a": 1}
            return header, slots, meta
        """,
        "repro.dataplane.fixture",
    )
    symbols = {f.symbol for f in findings if f.rule == "SIR008"}
    assert "advance:bytes-concat" in symbols
    assert "advance:list-literal" in symbols
    assert "advance:dict-literal" in symbols


def test_sir008_fires_on_per_packet_closure():
    findings = analyze(
        """
        def decide(self, hop):  # sirlint: hot
            return self.lookup(lambda: hop.segment.portinfo)
        """,
        "repro.dataplane.fixture",
    )
    assert any(
        f.rule == "SIR008" and "closure" in f.message for f in findings
    )


def test_sir008_silent_on_unmarked_slow_path_and_view_idioms():
    findings = analyze(
        """
        def materialise(view):
            return bytes(view.mem)

        def parse(buffer, offset):  # sirlint: hot
            end = offset + 4
            return buffer[offset:end], end
        """,
        "repro.viper.fixture",
    )
    assert "SIR008" not in rules_fired(findings)


def test_sir008_out_of_scope_packages_ignored():
    findings = analyze(
        """
        def drain(self):  # sirlint: hot
            return [bytes(b"x")]
        """,
        "repro.transport.fixture",
        path="src/repro/transport/fixture.py",
    )
    assert "SIR008" not in rules_fired(findings)


def test_sir008_required_marker_cannot_be_dropped():
    findings = analyze(
        """
        def lookup(self, in_port, lead, now_ms):
            return self._entries.get((in_port, lead))

        def install(self, entry, now_ms):  # sirlint: hot
            self._entries[(entry.in_port, entry.lead)] = entry
        """,
        "repro.dataplane.flowcache",
        path="src/repro/dataplane/flowcache.py",
    )
    assert [f.symbol for f in findings if f.rule == "SIR008"] == [
        "hot-marker:lookup"
    ]


def test_sir008_fires_on_per_hop_closure_in_the_sim_frame_hop():
    """The router driver's forward step once built a ``submit`` closure
    and two lambdas per hop; reintroducing one is a finding, and so is
    dropping a pinned marker of the sim's frame-hop loop."""
    findings = analyze(
        """
        def _process(self, packet, inport, tx, size):  # sirlint: hot
            return self.pipeline.decide(packet, lambda: inport.port_id)

        def _apply(self, decision, packet):  # sirlint: hot
            packet.segments[0:0] = [s for s in decision.splice_tail]

        def _forward(self, packet, size, port):
            def submit():
                self.output_ports[port].submit(packet, size)
            self.congestion.admit_or_hold(packet, size, submit)
        """,
        "repro.core.router",
        path="src/repro/core/router.py",
    )
    assert sorted(f.symbol for f in findings if f.rule == "SIR008") == [
        "_apply:list-comprehension",
        "_process:closure:<lambda>",
        "hot-marker:_forward",
    ]


def test_sir008_silent_on_the_lean_sim_frame_hop():
    """Bound methods, tuples and annotations allocate nothing per hop:
    ``Callable[[], None]`` is a list literal only to the parser."""
    findings = analyze(
        """
        from typing import Any, Callable, Optional

        def at(self, time, fn, *args):  # sirlint: hot
            entry = EventHandle((time, self._seq, fn, args))
            heappush(self._heap, entry)
            return entry

        def after(self, delay, fn, *args):  # sirlint: hot
            return self.at(self.now + delay, fn, *args)

        def run(  # sirlint: hot
            self, until: Optional[float] = None
        ) -> None:
            on_idle: Callable[[], None] = self._idle
            while self._heap:
                fn = self._heap[0][2]
                fn(*self._heap[0][3])
            on_idle()
        """,
        "repro.sim.engine",
        path="src/repro/sim/engine.py",
    )
    assert "SIR008" not in rules_fired(findings)


def test_sir008_fires_in_the_live_batch_loop():
    """``LiveRouter._on_batch`` runs once per frame-hop: a copy or a
    container per frame is a finding, and so is dropping its marker or
    that of the pipeline's ``decide`` (whose warm arm is the per-packet
    stage)."""
    findings = analyze(
        """
        class LiveRouter:
            def _on_batch(self, batch):  # sirlint: hot
                for view, source, preamble in batch:
                    lead = bytes(view.mem[11:15])
                    self.seen.append({"source": source, "lead": lead})
        """,
        "repro.live.router",
        path="src/repro/live/router.py",
    )
    assert sorted(f.symbol for f in findings if f.rule == "SIR008") == [
        "_on_batch:call:bytes", "_on_batch:dict-literal",
    ]
    unmarked = analyze(
        """
        class LiveRouter:
            def _on_batch(self, batch):
                return [view.tobytes() for view, _, _ in batch]
        """,
        "repro.live.router",
        path="src/repro/live/router.py",
    )
    assert [f.symbol for f in unmarked if f.rule == "SIR008"] == [
        "hot-marker:_on_batch"
    ]
    pipeline = analyze(
        """
        def decide(self, hop):
            cached = self.flow_cache.lookup(hop.in_port, hop.lead, hop.now_ms)
            return cached.decision if cached else self._decide_cold(hop)

        def _decide_cold(self, hop):  # sirlint: hot
            return Decision(Action.DROP, drop_fields={"port": hop.lead[2]})
        """,
        "repro.dataplane.pipeline",
        path="src/repro/dataplane/pipeline.py",
    )
    assert sorted(f.symbol for f in pipeline if f.rule == "SIR008") == [
        "_decide_cold:dict-literal", "hot-marker:decide",
    ]


def test_sir008_fires_in_the_link_layer_drain():
    """``LiveEndpoint._on_readable`` runs once per frame at batch fill 1:
    a dict per wakeup, a copy per datagram or a list per ack is a
    finding, and so is dropping any of the four pinned markers."""
    findings = analyze(
        """
        class LiveEndpoint:
            def _on_readable(self):  # sirlint: hot
                batch = []
                acks = {}
                for _ in range(self.rx_batch):
                    nbytes, _anc, flags, addr = self._sock.recvmsg_into(self._buffers)
                    acks.setdefault(addr, []).append(bytes(self._slot.view[4:8]))

            def send(self, datagram, addr):
                if addr not in self._probes:
                    self._probe(addr)
                self._raw_send(datagram, addr)

            def send_view(self, view, addr):  # sirlint: hot
                self._sock.sendto(view.mem, addr)

            def _on_ack(self, acked, addr):  # sirlint: hot
                for peer, (seq, _sent_at) in self._probes.items():
                    if seq in [*acked]:
                        return
        """,
        "repro.live.link",
        path="src/repro/live/link.py",
    )
    assert sorted(f.symbol for f in findings if f.rule == "SIR008") == [
        "_on_ack:list-literal",
        "_on_readable:call:bytes", "_on_readable:dict-literal",
        "_on_readable:list-literal", "_on_readable:list-literal",
        "hot-marker:send",
    ]


def test_sir008_silent_on_the_drain_with_its_one_reasoned_container():
    """The batch is the wakeup's product and carries the reasoned disable;
    a probe is acked by a call, and a probe's entry and its probe frame
    allocate in an unmarked helper."""
    findings = analyze(
        """
        class LiveEndpoint:
            def _on_readable(self):  # sirlint: hot
                batch = []  # sirlint: disable=SIR008 -- fixture: the wakeup's product
                slot = self._rx_slot
                for _ in range(self.rx_batch):
                    nbytes, _anc, flags, addr = self._sock.recvmsg_into(self._buffers)
                    datagram = slot.view[:nbytes]
                    preamble = decode_preamble(datagram)
                    if preamble.kind != FRAME_DATA:
                        nonce = control_nonce(datagram, preamble)
                    if preamble.kind == FRAME_ACK:
                        self._on_ack(nonce, addr)
                        continue
                    if preamble.kind == FRAME_PROBE:
                        self._raw_send(encode_ack(nonce), addr)
                        continue
                    batch.append((slot, addr, preamble))

            def send(self, datagram, addr):  # sirlint: hot
                if addr not in self._probes:
                    self._probe(addr)
                self._raw_send(datagram, addr)

            def send_view(self, view, addr):  # sirlint: hot
                if addr not in self._probes:
                    self._probe(addr)
                mem = view.mem
                self._sock.sendto(mem, addr)

            def _probe(self, addr):
                nonce = None
                if self._unheard.setdefault(addr, 0):
                    nonce = self._nonce = (self._nonce + 1) & 0xFFFFFFFF
                    self._impaired_send(encode_probe(nonce), addr)
                self._probes[addr] = (nonce, self._loop.time())

            def _on_ack(self, nonce, addr):  # sirlint: hot
                for peer, (sent, _sent_at) in self._probes.items():
                    if sent == nonce and peer != addr:
                        return
                self._unheard.pop(addr, None)
        """,
        "repro.live.link",
        path="src/repro/live/link.py",
    )
    assert "SIR008" not in rules_fired(findings)


def test_sir008_silent_on_the_batch_loop_and_the_one_key_copy():
    """Locals, tuple unpacking and a memoryview slice handed to the
    pipeline in the driver; in the flow cache a compare against the last
    entry's bytes — and the one reasoned copy, on the dict path only."""
    findings = analyze(
        """
        class LiveRouter:
            def _on_batch(self, batch):  # sirlint: hot
                hop = self._hop
                for view, source, preamble in batch:
                    mem = view.mem
                    next_rel = segment_span(mem, preamble.header_len)
                    hop.lead = mem[preamble.header_len:next_rel]
                    decision = self.pipeline.decide(hop)
                    self.endpoint.send_view(view, self.ports[decision.out_port])
        """,
        "repro.live.router",
        path="src/repro/live/router.py",
    )
    assert "SIR008" not in rules_fired(findings)
    findings = analyze(
        """
        def lookup(self, in_port, lead, now_ms):  # sirlint: hot
            entry = self._last
            if entry is None or entry.in_port != in_port or lead != entry.lead:
                key = (in_port, bytes(lead))  # sirlint: disable=SIR008 -- fixture: off the last-entry path, a dict needs a hashable key
                entry = self._entries.get(key)
            return entry
        """,
        "repro.dataplane.flowcache",
        path="src/repro/dataplane/flowcache.py",
    )
    assert "SIR008" not in rules_fired(findings)


def test_sir008_inline_suppression():
    findings = analyze(
        """
        def parse(buffer):  # sirlint: hot
            return bytes(buffer)  # sirlint: disable=SIR008 -- fixture: cold-path copy is fine
        """,
        "repro.viper.fixture",
    )
    assert "SIR008" not in rules_fired(findings)
