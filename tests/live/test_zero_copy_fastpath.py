"""The in-place hop move is byte-exact against the structural oracle.

``hop_move_into`` finds the strip boundary arithmetically
(:func:`repro.viper.wire.segment_span`), rewrites the preamble directly
before the surviving bytes and appends the return tail inside the ring
slot; the bytes it forwards are never decoded.  The oracle
(``tests/live/oracle.py``) round-trips the whole frame through
:class:`SirpentPacket` instead.  The acceptance criterion is that the
two are indistinguishable on the wire — for every decodable frame
shape, over multiple hops, including the traced debug option, the 255
length-escape, and slots whose tail-room is too short for the tail —
and that ``LiveRouter._on_batch``, the one way a frame crosses a live
router, reproduces the oracle's fate for every frame.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import random

import pytest

from repro.live import frames, router as router_module
from repro.live.frames import (
    PREAMBLE_BYTES,
    decode_live_frame,
    decode_preamble,
    encode_live_frame,
    hop_move_into,
    return_tail_of,
)
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import SirpentPacket, TrailerElement
from repro.viper.ring import BufferRing
from repro.viper.wire import (
    HeaderSegment,
    decode_segment,
    encode_segment,
    segment_span,
)
from tests.live.oracle import (
    alive,
    batch_of,
    capture_router,
    expected_outcome,
    free_slots,
    hop_in_place,
    slot_view,
    strip_and_append_slow,
    sweep_tail_room,
)


def frame(segments, payload=b"hello world", trailer=(), trace_id=0):
    packet = SirpentPacket(
        segments=list(segments),
        payload_size=len(payload),
        payload=payload,
        trailer=list(trailer),
        trace_id=trace_id,
    )
    return encode_live_frame(packet, payload, trace_id=trace_id)


FRAME_SHAPES = {
    "plain": frame([HeaderSegment(port=1), HeaderSegment(port=0)]),
    "tokened": frame([
        HeaderSegment(port=1, token=b"T" * 32, priority=5),
        HeaderSegment(port=2, token=b"U" * 32),
        HeaderSegment(port=0),
    ]),
    "portinfo": frame([
        HeaderSegment(port=3, portinfo=bytes(range(14))),
        HeaderSegment(port=0),
    ]),
    "flags": frame([
        HeaderSegment(port=9, vnt=True, dib=True, rpf=True, priority=0xF),
        HeaderSegment(port=0),
    ]),
    "escape_token": frame([
        # 300 >= 255 forces the 32-bit extended-length escape (§5).
        HeaderSegment(port=1, token=b"E" * 300),
        HeaderSegment(port=0),
    ], payload=b"x" * 500),
    "empty_payload": frame([HeaderSegment(port=1), HeaderSegment(port=0)],
                           payload=b""),
    "existing_trailer": frame(
        [HeaderSegment(port=1), HeaderSegment(port=0)],
        trailer=[TrailerElement(HeaderSegment(port=4, token=b"rv"))],
    ),
    "traced": frame([HeaderSegment(port=1), HeaderSegment(port=0)],
                    trace_id=0xDEADBEEF_CAFE_0001),
}

RETURN_SEGMENTS = {
    "bare": HeaderSegment(port=7),
    "tokened": HeaderSegment(port=7, token=b"R" * 32, priority=5),
    "ethernet": HeaderSegment(port=7, portinfo=bytes(range(14))),
}


class TestHopMoveInPlace:
    """hop_move_into is byte-exact against the structural oracle."""

    @pytest.mark.parametrize("shape", sorted(FRAME_SHAPES))
    @pytest.mark.parametrize("ret", sorted(RETURN_SEGMENTS))
    def test_in_place_move_equals_the_oracle(self, shape, ret):
        hop_in_place(FRAME_SHAPES[shape], RETURN_SEGMENTS[ret])

    @pytest.mark.parametrize("shape", sorted(FRAME_SHAPES))
    def test_short_tail_room_slides_to_the_slot_head(self, shape):
        """Tail-room from none to exactly enough: whenever the outgoing
        frame fits the slot the move succeeds and equals the oracle;
        when it cannot fit, False and the view is untouched."""
        fitted, _refused = sweep_tail_room(
            hop_move_into, strip_and_append_slow,
            FRAME_SHAPES[shape], RETURN_SEGMENTS["tokened"],
        )
        assert fitted >= 2  # so at least one slot made the frame slide

    def test_exactness_holds_across_multiple_hops(self):
        datagram = FRAME_SHAPES["tokened"]
        ring = BufferRing(slots=1)
        view = slot_view(ring, datagram)
        shadow = datagram
        for hop_port in (7, 8):
            ret = HeaderSegment(port=hop_port, token=b"R" * 16)
            assert hop_move_into(view, return_tail_of(ret))
            shadow = strip_and_append_slow(shadow, ret)
            assert view.tobytes() == shadow
        # And the result still decodes into a coherent packet.
        _, packet, payload = decode_live_frame(view.tobytes())
        view.release()
        assert [s.port for s in packet.segments] == [0]
        assert payload == b"hello world"
        assert [e.segment.port for e in packet.trailer] == [7, 8]

    def test_traced_frames_keep_their_trace_id(self):
        forwarded = hop_in_place(FRAME_SHAPES["traced"], HeaderSegment(port=7))
        preamble, _, _ = decode_live_frame(forwarded)
        assert preamble.trace_id == 0xDEADBEEF_CAFE_0001

    def test_middle_bytes_are_forwarded_verbatim(self):
        """The forwarded frame contains the original middle region as-is."""
        datagram = FRAME_SHAPES["tokened"]
        first_len = len(encode_segment(
            HeaderSegment(port=1, token=b"T" * 32, priority=5)
        ))
        middle = datagram[PREAMBLE_BYTES + first_len:]
        assert middle in hop_in_place(datagram, HeaderSegment(port=7))

    def test_fuzz_multi_hop_in_one_slot(self):
        """Random frames advance hop after hop inside one slot."""
        rng = random.Random(0xF457)

        def blob(choices):
            n = rng.choice(choices)
            return bytes(rng.randrange(256) for _ in range(n))

        for trial in range(120):
            hops = rng.randrange(1, 5)
            segments = [
                HeaderSegment(
                    port=rng.randrange(1, 256),
                    priority=rng.randrange(16),
                    vnt=rng.random() < 0.2,
                    dib=rng.random() < 0.2,
                    rpf=rng.random() < 0.2,
                    token=blob((0, 0, 8, 32, 300)),
                    portinfo=blob((0, 0, 14, 260)),
                )
                for _ in range(hops)
            ] + [HeaderSegment(port=0)]
            datagram = frame(
                segments,
                payload=blob((0, 1, 64, 500)),
                trace_id=rng.getrandbits(64) if rng.random() < 0.3 else 0,
            )
            # Half the trials run in a slot with a few bytes of
            # tail-room, so most hops take the slide-to-head step.
            slot_bytes = (
                len(datagram) + rng.randrange(40) if trial % 2 else 4096
            )
            ring = BufferRing(slots=1, slot_bytes=slot_bytes)
            view = slot_view(ring, datagram)
            shadow = datagram
            for hop in range(hops):
                ret = HeaderSegment(
                    port=rng.randrange(1, 256), token=blob((0, 16)),
                    portinfo=blob((0, 14)),
                )
                tail = return_tail_of(ret)
                expected = strip_and_append_slow(shadow, ret)
                if len(expected) > slot_bytes:
                    before = (view.start, view.end, bytes(view.buffer))
                    assert not hop_move_into(view, tail)
                    assert before == (view.start, view.end, bytes(view.buffer))
                    break
                assert hop_move_into(view, tail)
                shadow = expected
                assert view.tobytes() == shadow
            view.release()

    def test_refuses_frames_with_no_leading_segment(self):
        empty_route = frame([])
        ring = BufferRing(slots=1)
        view = slot_view(ring, empty_route)
        with pytest.raises(ViperDecodeError):
            hop_move_into(view, return_tail_of(HeaderSegment(port=7)))
        view.release()
        with pytest.raises(ViperDecodeError):
            strip_and_append_slow(empty_route, HeaderSegment(port=7))


class TestSegmentSpan:
    """segment_span is the arithmetic twin of decode_segment."""

    @pytest.mark.parametrize("segment", [
        HeaderSegment(port=1),
        HeaderSegment(port=1, token=b"t" * 8),
        HeaderSegment(port=1, portinfo=b"p" * 14),
        HeaderSegment(port=1, token=b"t" * 300),       # escape
        HeaderSegment(port=1, portinfo=b"p" * 260),     # escape
        HeaderSegment(port=1, token=b"t" * 255, portinfo=b"p" * 255),
        HeaderSegment(port=255, vnt=True, dib=True, rpf=True, priority=0xF),
    ])
    def test_agrees_with_decode_on_valid_segments(self, segment):
        buffer = b"\xAA" * 3 + encode_segment(segment) + b"\xBB" * 5
        _, next_offset = decode_segment(buffer, 3)
        assert segment_span(buffer, 3) == next_offset

    @pytest.mark.parametrize("mutate", [
        lambda b: b[:3],                          # truncated fixed fields
        lambda b: b[:-1],                         # truncated portinfo
        lambda b: bytes([200]) + b[1:],           # overclaimed portinfo
        lambda b: bytes([255]) + b[1:],           # escape w/o extension
    ])
    def test_rejects_what_decode_rejects(self, mutate):
        good = encode_segment(HeaderSegment(port=1, portinfo=b"p" * 4))
        bad = mutate(good)
        with pytest.raises(ViperDecodeError):
            decode_segment(bad, 0)
        with pytest.raises(ViperDecodeError):
            segment_span(bad, 0)

    def test_rejects_non_canonical_extended_length(self):
        # A 255 length octet whose 32-bit extension says 4 (< 255) is
        # non-canonical; both parsers must refuse it identically.
        bad = bytes([0, 255, 1, 0]) + (4).to_bytes(4, "big") + b"tttt"
        with pytest.raises(ViperDecodeError):
            decode_segment(bad, 0)
        with pytest.raises(ViperDecodeError):
            segment_span(bad, 0)

    def test_negative_offset_rejected(self):
        with pytest.raises(ViperDecodeError):
            segment_span(b"\x00" * 8, -1)


class TestBatchedForwardingDifferential:
    """``LiveRouter._on_batch`` reproduces the oracle's fate per frame.

    The batched view path (ring slots, in-place hop move, memoized
    return tails) against ``forward_structurally`` over an identically
    configured router: every forwarded datagram, destination, and drop
    counter must agree — including warm flow-cache passes where the
    router appends a memoized ``Decision.return_tail`` it never
    re-encoded.
    """

    SOURCE = ("127.0.0.1", 9001)

    def _feed(self, datagrams, slot_bytes=4096):
        fast, fast_sent = capture_router("fast", slot_bytes=slot_bytes)
        oracle, _ = capture_router("oracle", slot_bytes=slot_bytes)
        views = []
        for datagram in datagrams:
            view = slot_view(fast.endpoint.ring, datagram)
            views.append(view)
            fast._on_batch(batch_of(view, self.SOURCE))
        oracle_sent, oracle_drops = expected_outcome(
            oracle, [(datagram, self.SOURCE) for datagram in datagrams]
        )
        assert fast_sent == oracle_sent
        assert fast.metrics.drops == oracle_drops
        assert fast.metrics.forwarded == len(oracle_sent)
        # Every slot came back to the ring; no escaped view is alive.
        assert free_slots(fast.endpoint.ring) == len(fast.endpoint.ring._slots)
        assert all(not alive(view) for view in views)
        return fast, fast_sent

    def _fuzz_frames(self, rng, count):
        datagrams = []
        for trial in range(count):
            route = [HeaderSegment(
                port=2,
                priority=rng.randrange(16),
                dib=rng.random() < 0.2,
                portinfo=(
                    bytes(rng.randrange(256) for _ in range(14))
                    if rng.random() < 0.4 else b""
                ),
            )]
            route += [
                HeaderSegment(port=rng.randrange(1, 256))
                for _ in range(rng.randrange(3))
            ]
            route.append(HeaderSegment(port=0))
            datagrams.append(frame(
                route,
                payload=bytes(
                    rng.randrange(256) for _ in range(rng.randrange(400))
                ),
                trace_id=rng.getrandbits(64) if rng.random() < 0.2 else 0,
            ))
        return datagrams

    def test_fuzz_forwarded_bytes_identical(self):
        datagrams = self._fuzz_frames(random.Random(0xBA7C4), 150)
        # Each flow twice: a cold install, then a warm flow-cache pass.
        fast, fast_sent = self._feed(datagrams + datagrams)
        assert len(fast_sent) == 2 * len(datagrams)
        assert all(addr == ("127.0.0.1", 9002) for _, addr in fast_sent)
        assert fast.flow_cache.stats.hits >= len(datagrams)

    def test_fuzz_short_tail_room_slots(self):
        """The same differential in slots the frames barely fit: every
        forward here grows the frame by two bytes, so most slide to the
        slot head, and a frame within two bytes of the slot size is
        dropped ``oversize`` by router and oracle alike."""
        datagrams = self._fuzz_frames(random.Random(0x5107), 150)
        slot_bytes = sorted(len(d) for d in datagrams)[100]
        # What the endpoint would deliver: longer datagrams never leave it.
        datagrams = [d for d in datagrams if len(d) <= slot_bytes]
        fast, fast_sent = self._feed(datagrams + datagrams, slot_bytes)
        oversize = sum(len(d) + 2 > slot_bytes for d in datagrams)
        assert oversize >= 1
        assert fast.metrics.drops == {"oversize": 2 * oversize}
        assert len(fast_sent) == 2 * (len(datagrams) - oversize) > 100

    def test_warm_flow_reuses_memoized_tail_byte_exactly(self):
        # The same flow three times: pass 1 is the cold install, passes
        # 2-3 append the memoized Decision.return_tail without re-encoding.
        datagram = frame(
            [HeaderSegment(port=2, portinfo=bytes(range(14))),
             HeaderSegment(port=0)],
        )
        fast, fast_sent = self._feed([datagram] * 3)
        assert fast.flow_cache.stats.hits == 2
        assert len(fast_sent) == 3

    def test_drops_agree_and_release_slots(self):
        # A sound preamble promising a segment the datagram does not
        # hold (a bad preamble never leaves the endpoint).
        undecodable = frame([HeaderSegment(port=2)])[:PREAMBLE_BYTES + 1]
        unknown_peer = frame([HeaderSegment(port=2), HeaderSegment(port=0)])
        no_route = frame([HeaderSegment(port=99), HeaderSegment(port=0)])
        fast, fast_sent = capture_router("fast")
        oracle, _ = capture_router("oracle")
        cases = [
            (undecodable, self.SOURCE),
            (unknown_peer, ("10.9.9.9", 1)),  # unwired peer
            (no_route, self.SOURCE),
        ]
        ring = fast.endpoint.ring
        views = []
        for datagram, source in cases:
            view = slot_view(ring, datagram)
            views.append(view)
            fast._on_batch(batch_of(view, source))
        assert fast_sent == []
        assert expected_outcome(oracle, cases) == ([], fast.metrics.drops)
        assert fast.metrics.drops == {
            "undecodable": 1, "unknown_peer": 1, "no_route": 1,
        }
        # Every slot came back to the ring; no escaped view is alive.
        assert free_slots(ring) == len(ring._slots)
        assert all(not alive(view) for view in views)

    def test_oversize_output_is_dropped_at_the_emitting_router(self):
        """A frame that fits its slot but whose *outgoing* size does not:
        dropped ``oversize`` here — not sent on to be truncated, dropped
        unacked and retried into a false ``on_peer_dead``."""
        datagram = frame([HeaderSegment(port=2), HeaderSegment(port=0)])
        # The 4-byte leading segment goes, a 6-byte return tail comes.
        fast, fast_sent = capture_router("fast", slot_bytes=len(datagram) + 1)
        ring = fast.endpoint.ring
        view = slot_view(ring, datagram)
        fast._on_batch(batch_of(view, self.SOURCE))
        assert fast_sent == []
        assert fast.metrics.drops == {"oversize": 1}
        assert fast.metrics.forwarded == 0
        assert free_slots(ring) == len(ring._slots) and not alive(view)
        # Two bytes of tail-room are enough: same frame, forwarded.
        fits, fits_sent = capture_router("fits", slot_bytes=len(datagram) + 2)
        fits._on_batch(batch_of(
            slot_view(fits.endpoint.ring, datagram), self.SOURCE
        ))
        assert [len(sent) for sent, _ in fits_sent] == [len(datagram) + 2]

    def test_corrupt_slick_block_is_dropped_not_raised(self):
        """A slick-flagged leading segment with a malformed alternate
        block behind the route: the strip must span the block, cannot,
        and the frame is dropped ``undecodable`` — the batch goes on."""
        packet = SirpentPacket(
            segments=[HeaderSegment(port=2, slick=True), HeaderSegment(port=0)],
            payload_size=3, payload=b"abc",
            alternates=[[HeaderSegment(port=1), HeaderSegment(port=0)]],
        )
        corrupt = bytearray(encode_live_frame(packet, b"abc"))
        block_at = PREAMBLE_BYTES
        for _ in range(2):
            block_at = segment_span(corrupt, block_at)
        corrupt[block_at] = 200  # the block now claims 200 segments
        healthy = frame([HeaderSegment(port=2), HeaderSegment(port=0)])
        fast, fast_sent = capture_router("fast")
        ring = fast.endpoint.ring
        fast._on_batch(
            batch_of(slot_view(ring, bytes(corrupt)), self.SOURCE)
            + batch_of(slot_view(ring, healthy), self.SOURCE)
        )
        assert fast.metrics.drops == {"undecodable": 1}
        assert len(fast_sent) == 1
        assert free_slots(ring) == len(ring._slots)

    def test_batch_path_never_decodes_the_preamble_again(self, monkeypatch):
        """One decode per datagram: the endpoint's.  Forward (cold, warm,
        traced), local delivery and a drop all run off the preamble the
        batch entry carries."""
        fast, fast_sent = capture_router("fast")
        delivered = []
        fast.local_handler = lambda datagram, source: delivered.append(datagram)
        forward = frame([HeaderSegment(port=2), HeaderSegment(port=0)])
        datagrams = [
            forward, forward,
            frame([HeaderSegment(port=2), HeaderSegment(port=0)],
                  trace_id=0xFEED_0001),
            frame([HeaderSegment(port=0)]),
            frame([HeaderSegment(port=99), HeaderSegment(port=0)]),
        ]
        ring = fast.endpoint.ring
        batch = []
        for datagram in datagrams:
            batch += batch_of(slot_view(ring, datagram), self.SOURCE)
        calls = []
        monkeypatch.setattr(
            frames, "decode_preamble",
            lambda datagram: calls.append(1) or decode_preamble(datagram),
        )
        fast._on_batch(batch)
        assert calls == []
        # ...nor does the router module hold a private reference to it.
        assert not hasattr(router_module, "decode_preamble")
        assert len(fast_sent) == 3
        assert len(delivered) == 1
        assert fast.metrics.drops.get("no_route") == 1
        assert free_slots(ring) == len(ring._slots)


def test_one_forwarding_path_and_no_twin_in_src():
    """Structural: the in-place view move is the only transform in
    ``src/`` — ``_on_batch`` the live way into it, ``SirpentRouter`` the
    simulator's — and the structural packet algebra lives in the tests
    only."""
    for module in (router_module, frames):
        for name in dir(module):
            assert "_slow" not in name, name
            assert not name.startswith("strip_and_append"), name
            assert name != "peek_leading_segment"
    assert not hasattr(router_module.LiveRouter, "_on_frame")
    assert not hasattr(router_module.LiveRouter, "decide")
    assert not hasattr(capture_router("r")[0].endpoint, "on_frame")
    # The simulator's forwarding modules never see a structural packet.
    for name in ("router", "host", "queues", "congestion"):
        module = importlib.import_module(f"repro.core.{name}")
        assert "SirpentPacket" not in vars(module), name
        assert "SirpentPacket" not in inspect.getsource(module), name
    assert importlib.util.find_spec("repro.core.truncation") is None
    for name in ("advance", "apply_slick_reroute", "mark_truncated",
                 "corrupted_copy", "trailer_segments"):
        assert not hasattr(SirpentPacket, name), name


#: The walks and the reply move that only the one host edge,
#: ``repro.dataplane.host``, runs.
HOST_EDGE_WALKS = (
    "frame_spans", "frame_bounds", "framed_trailer", "return_route_header",
    "truncation_marked",
)


def test_one_host_edge_and_no_twin_in_src():
    """Structural: both hosts are adapters over one ``HostCore``.
    Neither host module runs the frame walks or the reply move itself,
    nor holds a socket table, a trailer memo or a route-header memo of
    its own: every ``wire_header`` in ``src/`` is the host edge's."""
    from repro.core import host as sim_host
    from repro.live import host as live_host
    from repro.sim.engine import Simulator

    for module in (sim_host, live_host):
        tree = ast.parse(inspect.getsource(module))
        used = {
            getattr(node, "id", getattr(node, "attr", None))
            for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute))
        } | {
            alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) for alias in node.names
        }
        assert not used & set(HOST_EDGE_WALKS), module.__name__
        assigned = {
            target.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Attribute)
            and getattr(target.value, "id", None) == "self"
        }
        assert not assigned & {"sockets", "_trailers", "_last", "trailer_evictions"}, (
            module.__name__
        )
    assert [
        (path, c.name) for path, c in _src_classes() if _defines(c, "wire_header")
    ] == [
        ("repro/dataplane/host.py", "SourceRoute"),
        ("repro/dataplane/host.py", "ReturnRoute"),
    ]
    from repro.dataplane.host import HostCore

    sim, live = sim_host.SirpentHost(Simulator(), "h"), live_host.LiveHost("h")
    for host in (sim, live):
        assert isinstance(host.core, HostCore)
        assert "sockets" not in vars(host)
        assert host.bind == host.core.bind
        host.bind(5, print)
        assert host.core.sockets == {5: print}
    assert live.sockets is live.core.sockets


def test_one_pdu_codec_and_no_twin_in_src():
    """Structural: one module writes and opens the PDU's bytes, the
    host edge hands up one delivered type, and the machine's IO is one
    class both substrates' transports extend — neither defines
    ``join``, ``discard``, ``record``, a send or a receive decode of its
    own, nor names the codec."""
    from repro.live import host as live_host
    from repro.transport import codec, vmtp
    from repro.transport.transactor import TransactorIO

    root = pathlib.Path(router_module.__file__).parents[2]
    packers = sorted(
        path.relative_to(root).as_posix() for path in root.rglob("*.py")
        if any(
            isinstance(node, ast.FunctionDef)
            and node.name in ("encode_pdu", "open_pdu")
            or isinstance(node, ast.Name) and node.id == "zlib"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    )
    assert packers == ["repro/transport/codec.py"]
    assert codec.HEADER_BYTES == 64 and codec.TRAILER_BYTES == 8
    assert [
        (path, c.name) for path, c in _src_classes() if "Delivered" in c.name
    ] == [("repro/dataplane/host.py", "Delivered")]
    for module, adapter in (
        (vmtp, vmtp.VmtpTransport), (live_host, live_host.LiveTransactor),
    ):
        assert issubclass(adapter, TransactorIO)
        tree = ast.parse(inspect.getsource(module))
        (node,) = (
            node for node in ast.walk(tree)
            if isinstance(node, ast.ClassDef) and node.name == adapter.__name__
        )
        for name in ("join", "discard", "record", "send", "send_return",
                     "_on_delivered"):
            assert not _defines(node, name), (adapter.__name__, name)
        names = {
            getattr(n, "id", getattr(n, "attr", None)) for n in ast.walk(tree)
        } | {
            alias.name for n in ast.walk(tree)
            if isinstance(n, ast.ImportFrom) for alias in n.names
        }
        assert not names & {"encode_pdu", "open_pdu", "on_pdu"}, module.__name__


#: The modules a route passes through on its way to the wire, each of
#: which takes a route as the route it is.
ROUTE_TAKERS = (
    "repro/transport/machine.py", "repro/core/host.py",
    "repro/dataplane/host.py", "repro/live/directory.py",
    "repro/live/topology.py",
)


def _first_hop_owners(tree):
    """What in ``tree`` is given a ``first_hop_port``: each class that
    defines one (a field, a class attribute, a slot, or on ``self`` in a
    method) and each object outside a class that has one assigned."""

    def walk(node, owner):
        if isinstance(node, ast.ClassDef):
            owner = node.name
        targets = (
            node.targets if isinstance(node, ast.Assign)
            else [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            if getattr(target, "id", None) == "first_hop_port" and owner:
                yield owner
            elif isinstance(target, ast.Attribute) and target.attr == "first_hop_port":
                name = ast.unparse(target.value)
                yield owner if name == "self" and owner else name
        if isinstance(node, ast.Constant) and node.value == "first_hop_port" and owner:
            yield owner
        for child in ast.iter_child_nodes(node):
            yield from walk(child, owner)

    return set(walk(tree, None))


def test_one_route_type_and_no_twin_in_src():
    """Structural: a source holds the directory's ``Route`` on both
    substrates, and a host replies along the ``ReturnRoute`` its trailer
    wrote.  No other class in ``src/``, ``benchmarks/`` or
    ``examples/`` is a route (has a first hop), and no module a route
    passes through asks it with ``getattr`` what it is."""
    src = pathlib.Path(router_module.__file__).parents[2]
    repo = src.parent
    found = [
        (path.relative_to(repo).as_posix(), name)
        for top in ("src", "benchmarks", "examples")
        for path in sorted((repo / top).rglob("*.py"))
        for name in _first_hop_owners(ast.parse(path.read_text()))
    ]
    assert sorted(found) == [
        ("src/repro/dataplane/host.py", "ReturnRoute"),
        ("src/repro/directory/routes.py", "Route"),
    ]
    for relative in ROUTE_TAKERS:
        asked = [
            ast.unparse(node)
            for node in ast.walk(ast.parse((src / relative).read_text()))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getattr", "hasattr")
            and "route" in ast.unparse(node.args[0]).lower()
        ]
        assert not asked, (relative, asked)


def _calls(module, function):
    """The names ``function``, defined in ``module``, calls."""
    tree = ast.parse(inspect.getsource(module))
    node = next(
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == function
    )
    return {
        getattr(call.func, "id", getattr(call.func, "attr", None))
        for call in ast.walk(node) if isinstance(call, ast.Call)
    }


def test_one_walk_per_wire_structure():
    """Structural: each wire structure is validated by one walk, the one
    the forwarding and host paths run; its structural decoder is that
    walk plus materialisation, and the live frame's body is the packet
    codec's."""
    from repro.viper import wire

    for name in ("_decode_field", "_field_span"):
        assert not hasattr(wire, name), name
    assert not hasattr(frames, "restamp_seq_into")
    for module, function, walk in (
        (wire, "decode_segment", "parse_segment_view"),
        (wire, "segment_span", "_field_data_span"),
        (wire, "decode_alt_block", "alt_block_span"),
        (frames, "decode_live_frame", "frame_spans"),
        (frames, "encode_live_frame", "encode_packet"),
    ):
        assert walk in _calls(module, function), (function, walk)


def _src_classes():
    """Every class ``src/`` defines: ``(module path, class node)``."""
    root = pathlib.Path(router_module.__file__).parents[2]
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                yield path.relative_to(root).as_posix(), node


def _defines(node, name):
    return any(
        isinstance(stmt, ast.FunctionDef) and stmt.name == name
        for stmt in node.body
    )


def test_one_router_core_and_no_router_twin_in_src():
    """Structural: both routers are adapters over one ``RouterCore``.
    ``src/`` has one port map (the ``profile`` surface), one
    ``EffectSink`` implementation and one hop reader (the ``alternate``
    surface), all the core's; neither router defines one, nor an
    applier, a counting helper or a soft-state builder of its own."""
    from repro.core.router import SirpentRouter
    from repro.dataplane.router import FrameHop, RouterCore, RouterSink
    from repro.sim.engine import Simulator

    classes = list(_src_classes())
    port_maps = [(p, c.name) for p, c in classes if _defines(c, "profile")]
    sinks = [
        (p, c.name) for p, c in classes
        if any(getattr(b, "id", getattr(b, "attr", "")) == "EffectSink"
               for b in c.bases)
    ]
    hop_readers = [(p, c.name) for p, c in classes if _defines(c, "alternate")]
    assert port_maps == [("repro/dataplane/pipeline.py", "PortMap")]
    assert sinks == [("repro/dataplane/router.py", RouterSink.__name__)]
    assert hop_readers == [("repro/dataplane/router.py", FrameHop.__name__)]
    twins = {"_SimHop", "_LiveHop", "_SimPortMap", "_LivePortMap",
             "_SimEffectSink", "_LiveEffectSink", "MappingPortMap"}
    assert not twins & {c.name for _p, c in classes}

    for router_class in (SirpentRouter, router_module.LiveRouter):
        node = next(
            c for _p, c in classes if c.name == router_class.__name__
        )
        methods = {
            stmt.name for stmt in node.body if isinstance(stmt, ast.FunctionDef)
        }
        assert not methods & {
            "_apply", "_build_soft_state", "_deliver_local", "_revive_port",
            "profile", "bump", "trace_drop", "alternate", "reverse_portinfo",
        }, router_class
        assert not [m for m in methods if m.startswith("_count")], router_class

    sim_router = SirpentRouter(Simulator(), "r")
    live_router = router_module.LiveRouter("r")
    for router in (sim_router, live_router):
        core = router.core
        assert isinstance(core, RouterCore)
        assert router.pipeline is core.pipeline
        assert router.token_cache is core.token_cache
        assert router.flow_cache is core.flow_cache
        assert core.pipeline.ports is core.ports
        assert isinstance(core.sink, RouterSink)
        core.forget()  # a restart rebuilds the soft state, still the core's
        assert router.pipeline is core.pipeline
        assert router.token_cache is core.token_cache
        assert router.flow_cache is core.flow_cache
