"""Slick-Packets failover on the live substrate (ARCHITECTURE §16).

Three layers, matching the zero-copy fastpath suite's discipline:

* **byte differential** — the in-place reroute
  (:func:`~repro.live.frames.slick_reroute_into`) is byte-exact against
  the structural oracle (``tests/live/oracle.py``'s
  ``slick_reroute_slow``) over every slick frame shape, including
  fuzzed ones and slots with short tail-room, and
  :func:`~repro.live.frames.leading_alt_block` is *total* over hostile
  bytes;
* **driver e2e** — a LiveRouter whose egress peer stopped acking
  forwards slick frames out the in-band alternate (counting
  ``slick_reroutes``), drops exhausted ones cleanly, and ``_on_batch``
  agrees with the oracle byte-for-byte;
* **sim ↔ live parity** — the same diamond topology with the same dead
  link reroutes identically on both substrates: same delivered
  payload, same reversed return route, same reroute/forward counters.
"""

import asyncio
import random
from dataclasses import replace

import pytest

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.directory.routes import slickify_route
from repro.directory.service import DirectoryService, RouteQuery
from repro.live import LiveOverlay
from repro.live.frames import (
    decode_live_frame,
    encode_live_frame,
    hop_move_into,
    leading_alt_block,
    return_tail_of,
    slick_reroute_into,
)
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import SirpentPacket
from repro.viper.ring import BufferRing
from repro.viper.wire import HeaderSegment
from tests.live.oracle import (
    alive,
    batch_of,
    capture_router,
    expected_outcome,
    free_slots,
    live_return_segments,
    return_route,
    slick_reroute_slow,
    slot_view,
    strip_and_append_slow,
    sweep_tail_room,
)


def slick_frame(
    segments, alternates, payload=b"hello world", trace_id=0
):
    packet = SirpentPacket(
        segments=list(segments),
        payload_size=len(payload),
        payload=payload,
        alternates=[list(b) for b in alternates],
        trace_id=trace_id,
    )
    return encode_live_frame(packet, payload, trace_id=trace_id)


SLICK_SHAPES = {
    "plain": slick_frame(
        [HeaderSegment(port=2, slick=True), HeaderSegment(port=0)],
        [[HeaderSegment(port=3), HeaderSegment(port=0)]],
    ),
    "deep_route": slick_frame(
        [HeaderSegment(port=2, slick=True), HeaderSegment(port=9),
         HeaderSegment(port=4), HeaderSegment(port=0)],
        [[HeaderSegment(port=3), HeaderSegment(port=8),
          HeaderSegment(port=0)]],
    ),
    "two_blocks": slick_frame(
        # A later hop is protected too: the reroute must drop BOTH
        # blocks, not just the one it splices.
        [HeaderSegment(port=2, slick=True),
         HeaderSegment(port=9, slick=True), HeaderSegment(port=0)],
        [[HeaderSegment(port=3), HeaderSegment(port=0)],
         [HeaderSegment(port=5), HeaderSegment(port=0)]],
    ),
    "tokened_alt": slick_frame(
        [HeaderSegment(port=2, slick=True, token=b"T" * 32),
         HeaderSegment(port=0)],
        [[HeaderSegment(port=3, token=b"A" * 32, priority=5),
          HeaderSegment(port=0)]],
    ),
    "escape_alt": slick_frame(
        # 300 >= 255 forces the 32-bit length escape inside the block.
        [HeaderSegment(port=2, slick=True), HeaderSegment(port=0)],
        [[HeaderSegment(port=3, token=b"E" * 300), HeaderSegment(port=0)]],
        payload=b"x" * 400,
    ),
    "portinfo_alt": slick_frame(
        [HeaderSegment(port=2, slick=True), HeaderSegment(port=0)],
        [[HeaderSegment(port=3, portinfo=bytes(range(14))),
          HeaderSegment(port=0)]],
    ),
    "empty_payload": slick_frame(
        [HeaderSegment(port=2, slick=True), HeaderSegment(port=0)],
        [[HeaderSegment(port=3), HeaderSegment(port=0)]],
        payload=b"",
    ),
    "traced": slick_frame(
        [HeaderSegment(port=2, slick=True), HeaderSegment(port=0)],
        [[HeaderSegment(port=3), HeaderSegment(port=0)]],
        trace_id=0xDEADBEEF_CAFE_0002,
    ),
}

RETURN_SEGMENTS = {
    "bare": HeaderSegment(port=7),
    "tokened": HeaderSegment(port=7, token=b"R" * 32, priority=5),
    "ethernet": HeaderSegment(port=7, portinfo=bytes(range(14))),
}


class TestRerouteByteExactness:
    """slick_reroute_into == slick_reroute_slow on every decodable shape."""

    @pytest.mark.parametrize("shape", sorted(SLICK_SHAPES))
    @pytest.mark.parametrize("ret", sorted(RETURN_SEGMENTS))
    def test_in_place_reroute_equals_slow_path(self, shape, ret):
        datagram = SLICK_SHAPES[shape]
        return_segment = RETURN_SEGMENTS[ret]
        ring = BufferRing(slots=2)
        view = slot_view(ring, datagram)
        assert slick_reroute_into(view, return_tail_of(return_segment))
        moved = view.tobytes()
        view.release()
        assert moved == slick_reroute_slow(datagram, return_segment)

    def test_rerouted_frame_decodes_into_the_alternate_route(self):
        rerouted = slick_reroute_slow(
            SLICK_SHAPES["deep_route"], HeaderSegment(port=7)
        )
        preamble, packet, payload = decode_live_frame(rerouted)
        # The alternate [3, 8, 0] replaced the whole route; its first
        # hop (3) was taken, the blocks are gone, the payload survived.
        assert [s.port for s in packet.segments] == [8, 0]
        assert packet.alternates == []
        assert not any(s.slick for s in packet.segments)
        assert payload == b"hello world"
        assert [e.segment.port for e in packet.trailer] == [7]

    def test_both_blocks_are_discarded(self):
        rerouted = slick_reroute_slow(
            SLICK_SHAPES["two_blocks"], HeaderSegment(port=7)
        )
        _, packet, _ = decode_live_frame(rerouted)
        assert [s.port for s in packet.segments] == [0]
        assert packet.alternates == []

    def test_traced_reroute_keeps_the_trace_id(self):
        rerouted = slick_reroute_slow(
            SLICK_SHAPES["traced"], HeaderSegment(port=7)
        )
        preamble, _, _ = decode_live_frame(rerouted)
        assert preamble.trace_id == 0xDEADBEEF_CAFE_0002

    def test_non_slick_frame_is_refused_by_both(self):
        packet = SirpentPacket(
            segments=[HeaderSegment(port=2), HeaderSegment(port=0)],
            payload_size=2, payload=b"ab",
        )
        datagram = encode_live_frame(packet, b"ab")
        with pytest.raises(ViperDecodeError):
            slick_reroute_slow(datagram, HeaderSegment(port=7))
        ring = BufferRing(slots=1)
        view = slot_view(ring, datagram)
        with pytest.raises(ViperDecodeError):
            slick_reroute_into(view, return_tail_of(HeaderSegment(port=7)))
        view.release()

    @pytest.mark.parametrize("shape", sorted(SLICK_SHAPES))
    @pytest.mark.parametrize("in_place, oracle", [
        (slick_reroute_into, slick_reroute_slow),
        # Healthy egress: the ordinary strip, which takes the leading
        # segment's alternate block with it.
        (hop_move_into, strip_and_append_slow),
    ])
    def test_short_tail_room_slides_to_the_slot_head(
        self, shape, in_place, oracle
    ):
        """Tail-room from none to exactly enough: both moves equal the
        oracle whenever the output fits the slot (they drop a block, so
        it usually does) and refuse, view untouched, when it cannot."""
        sweep_tail_room(
            in_place, oracle, SLICK_SHAPES[shape], RETURN_SEGMENTS["tokened"]
        )

    def test_output_larger_than_the_slot_is_refused_untouched(self):
        """A one-segment alternate and a fat return hop: the rerouted
        frame outgrows the slot, so False and not a byte moved."""
        datagram = slick_frame(
            [HeaderSegment(port=2, slick=True)], [[HeaderSegment(port=3)]],
        )
        return_segment = HeaderSegment(port=7, token=b"R" * 64)
        assert len(slick_reroute_slow(datagram, return_segment)) > len(datagram)
        ring = BufferRing(slots=1, slot_bytes=len(datagram))
        view = slot_view(ring, datagram)
        before = bytes(view.buffer)
        assert not slick_reroute_into(view, return_tail_of(return_segment))
        assert (view.start, view.end, bytes(view.buffer)) == (
            0, len(datagram), before
        )
        view.release()

    def test_fuzz_random_slick_frames_stay_byte_exact(self):
        rng = random.Random(0x51106)

        def blob(choices):
            n = rng.choice(choices)
            return bytes(rng.randrange(256) for _ in range(n))

        for trial in range(120):
            hops = rng.randrange(1, 4)
            segments = [HeaderSegment(
                port=rng.randrange(1, 256),
                priority=rng.randrange(16),
                token=blob((0, 8, 300)),
                portinfo=blob((0, 14)),
            ) for _ in range(hops)] + [HeaderSegment(port=0)]
            slick_at = sorted(rng.sample(
                range(len(segments)), rng.randrange(1, len(segments) + 1)
            ))
            alternates = []
            for i in slick_at:
                segments[i] = segments[i].copy(slick=True)
                alternates.append([
                    HeaderSegment(
                        port=rng.randrange(1, 256), token=blob((0, 16))
                    )
                    for _ in range(rng.randrange(1, 4))
                ] + [HeaderSegment(port=0)])
            datagram = slick_frame(
                segments, alternates, payload=blob((0, 1, 64, 400)),
                trace_id=rng.getrandbits(64) if rng.random() < 0.3 else 0,
            )
            if not segments[0].slick:
                continue  # the reroute needs a slick LEADING segment
            ret = HeaderSegment(
                port=rng.randrange(1, 256), token=blob((0, 16)),
            )
            ring = BufferRing(slots=1)
            view = slot_view(ring, datagram)
            assert slick_reroute_into(view, return_tail_of(ret)), trial
            moved = view.tobytes()
            view.release()
            assert moved == slick_reroute_slow(datagram, ret), trial


class TestLeadingAltBlockTotality:
    """The block thunk never raises — malformed bytes become None."""

    def test_decodes_the_leading_block(self):
        datagram = SLICK_SHAPES["deep_route"]
        preamble, packet, _ = decode_live_frame(datagram)
        block = leading_alt_block(
            datagram, preamble.header_len, preamble.seg_count
        )
        assert block == packet.alternates[0]

    def test_non_slick_frame_yields_none_not_a_crash(self):
        packet = SirpentPacket(
            segments=[HeaderSegment(port=2), HeaderSegment(port=0)],
            payload_size=5, payload=b"hello",
        )
        datagram = encode_live_frame(packet, b"hello")
        preamble, _, _ = decode_live_frame(datagram)
        block = leading_alt_block(
            datagram, preamble.header_len, preamble.seg_count
        )
        # Whatever sits after the route (payload bytes) either fails to
        # parse (None) or parses as garbage segments — but never raises.
        assert block is None or isinstance(block, list)

    def test_totality_under_mutation_and_truncation(self):
        rng = random.Random(0xA17B)
        base = SLICK_SHAPES["plain"]
        preamble, _, _ = decode_live_frame(base)
        for _ in range(2000):
            mutated = bytearray(base)
            for _ in range(rng.randint(1, 4)):
                mutated[rng.randrange(len(mutated))] = rng.randrange(256)
            if rng.random() < 0.3:
                mutated = mutated[: rng.randrange(len(mutated))]
            block = leading_alt_block(
                bytes(mutated), preamble.header_len, preamble.seg_count
            )
            assert block is None or isinstance(block, list)


class TestLiveRouterFailover:
    """Driver-level e2e: dead peer -> in-band reroute through ``_on_batch``."""

    SOURCE = ("127.0.0.1", 9001)
    FRAME = slick_frame(
        [HeaderSegment(port=2, slick=True), HeaderSegment(port=0)],
        [[HeaderSegment(port=3), HeaderSegment(port=0)]],
    )

    def _router(self, name="r", dead=()):
        router, sent = capture_router(name, ports=(1, 2, 3))
        for port in dead:
            router._on_peer_dead(("127.0.0.1", 9000 + port))
        return router, sent

    def _arrive(self, router):
        view = slot_view(router.endpoint.ring, self.FRAME)
        router._on_batch(batch_of(view, self.SOURCE))
        assert not alive(view)

    def test_dead_peer_reroutes_out_the_alternate(self):
        router, sent = self._router(dead=(2,))
        assert router.dead_ports == {2}
        self._arrive(router)
        assert router.metrics.slick_reroutes == 1
        assert router.metrics.forwarded == 1
        assert len(sent) == 1
        forwarded, dest = sent[0]
        assert dest == ("127.0.0.1", 9003)
        _, packet, payload = decode_live_frame(forwarded)
        assert [s.port for s in packet.segments] == [0]
        assert packet.alternates == []
        assert payload == b"hello world"

    def test_batch_path_agrees_with_the_oracle_byte_for_byte(self):
        fast, fast_sent = self._router("fast", dead=(2,))
        oracle, _ = self._router("oracle", dead=(2,))
        for _ in range(3):  # cold install + two warm cache passes
            self._arrive(fast)
        oracle_sent, oracle_drops = expected_outcome(
            oracle, [(self.FRAME, self.SOURCE)] * 3
        )
        assert fast_sent == oracle_sent
        assert len(fast_sent) == 3
        assert fast.metrics.drops == oracle_drops == {}
        assert fast.metrics.slick_reroutes == 3
        assert free_slots(fast.endpoint.ring) == len(fast.endpoint.ring._slots)

    def test_non_slick_frame_after_a_reroute_is_forwarded(self):
        """Regression: the flow key omitted the slick flag, so a plain
        frame naming the same dead port was handed the memoized reroute,
        ``slick_reroute_into`` refused its bytes and the frame was
        dropped ``undecodable``.  Cold it forwards onto the port it
        names; after a slick frame's reroute it must too.

        The plain frame arrives in the same batch as two slick ones of
        the otherwise identical flow.  The flow cache is keyed on the
        whole leading segment, flags byte included (and holds no
        reroute), so the plain frame takes a decision of its own.
        """
        plain = slick_frame([HeaderSegment(port=2), HeaderSegment(port=0)], [])
        router, sent = self._router(dead=(2,))
        self._arrive(router)  # rerouted
        ring = router.endpoint.ring
        router._on_batch([
            entry for datagram in (self.FRAME, self.FRAME, plain)
            for entry in batch_of(slot_view(ring, datagram), self.SOURCE)
        ])
        assert router.metrics.drops == {}
        assert [dest for _, dest in sent] == [
            ("127.0.0.1", 9003), ("127.0.0.1", 9003), ("127.0.0.1", 9003),
            ("127.0.0.1", 9002),
        ]
        assert router.metrics.slick_reroutes == 3
        assert free_slots(ring) == len(ring._slots)

    def test_exhausted_alternate_drops_cleanly(self):
        router, sent = self._router(dead=(2, 3))  # the alternate too
        self._arrive(router)
        assert sent == []
        assert router.metrics.drops.get("slick_fallback_exhausted", 0) == 1
        assert router.metrics.slick_reroutes == 0

    def test_healthy_egress_never_reroutes(self):
        router, sent = self._router()
        self._arrive(router)
        assert router.metrics.slick_reroutes == 0
        assert len(sent) == 1
        assert sent[0][1] == ("127.0.0.1", 9002)


# -- sim <-> live parity -----------------------------------------------------


def _diamond_world():
    """client — r1 — {r2 | r4} — r3 — server: two disjoint mid paths."""
    sim = Simulator()
    topo = Topology(sim)
    client = SirpentHost(sim, "client")
    server = SirpentHost(sim, "server")
    r1 = SirpentRouter(sim, "r1")
    r2 = SirpentRouter(sim, "r2")
    r3 = SirpentRouter(sim, "r3")
    r4 = SirpentRouter(sim, "r4")
    topo.connect(client, r1)
    topo.connect(r1, r2)
    topo.connect(r1, r4)
    topo.connect(r2, r3)
    topo.connect(r4, r3)
    topo.connect(r3, server)
    directory = DirectoryService(
        sim, topo, refresh_interval=None, advisory_interval=None,
    )
    directory.register_host("client", "client")
    directory.register_host("server", "server")
    return sim, topo, directory


def _slick_route_via_r2(topo, directory):
    """Primary via r2 (slick-protected at r1), alternate via r4."""
    routes = directory.query("client", RouteQuery("server", dest_socket=5, k=2))
    assert len(routes) >= 2, "diamond must yield two disjoint routes"
    r1 = topo.nodes["r1"]
    to_r2 = next(
        pid for pid, att in r1.ports.items() if att.peer_name == "r2"
    )
    primary = next(r for r in routes if r.segments[0].port == to_r2)
    alternate = next(r for r in routes if r.segments[0].port != to_r2)
    segments, blocks = slickify_route(
        primary.segments, {0: alternate.segments}
    )
    return replace(primary, segments=segments, alternates=blocks), to_r2


def _run_sim_failover(payload):
    sim, topo, directory = _diamond_world()
    route, _ = _slick_route_via_r2(topo, directory)
    outcome = {"delivered": [], "return_ports": []}

    def on_delivered(delivered):
        outcome["delivered"].append(delivered.payload)
        outcome["return_ports"] = [
            s.port for s in return_route(delivered)
        ]

    topo.nodes["server"].bind(route.segments[-1].port, on_delivered)
    topo.fail_link("r1--r2")
    topo.nodes["client"].send(route, payload)
    sim.run(until=1.0)
    outcome["slick_reroutes"] = topo.nodes["r1"].stats.slick_reroutes.count
    outcome["mid_forwarded"] = {
        name: topo.nodes[name].stats.forwarded.count for name in ("r2", "r4")
    }
    return outcome


def _run_live_failover(payload):
    sim, topo, directory = _diamond_world()
    route, to_r2 = _slick_route_via_r2(topo, directory)
    outcome = {"delivered": [], "return_ports": []}

    async def scenario():
        overlay = LiveOverlay(topo)
        await overlay.start()
        try:
            def on_delivered(delivered):
                outcome["delivered"].append(delivered.payload)
                outcome["return_ports"] = [
                    s.port for s in live_return_segments(
                        delivered.frame
                    )
                ]

            overlay.hosts["server"].bind(
                route.segments[-1].port, on_delivered
            )
            r1 = overlay.routers["r1"]
            r1._on_peer_dead(r1.ports[to_r2])  # ack-timeout link health
            overlay.hosts["client"].send(route, payload)
            deadline = asyncio.get_running_loop().time() + 2.0
            while not outcome["delivered"]:
                if asyncio.get_running_loop().time() > deadline:
                    break
                await asyncio.sleep(0.005)
            await asyncio.sleep(0.02)  # let trailing acks settle
            outcome["slick_reroutes"] = r1.metrics.slick_reroutes
            outcome["mid_forwarded"] = {
                name: overlay.routers[name].metrics.forwarded
                for name in ("r2", "r4")
            }
        finally:
            overlay.stop()
        await asyncio.sleep(0.01)

    asyncio.run(scenario())
    return outcome


@pytest.mark.live
def test_parity_slick_failover_reroutes_identically():
    """Dead r1->r2 hop: both substrates deliver via r4 with one reroute."""
    payload = b"slick-parity"
    sim_outcome = _run_sim_failover(payload)
    live_outcome = _run_live_failover(payload)
    assert sim_outcome["delivered"] == [payload]
    assert sim_outcome["slick_reroutes"] == 1
    assert sim_outcome["mid_forwarded"] == {"r2": 0, "r4": 1}
    assert live_outcome["delivered"] == sim_outcome["delivered"]
    assert live_outcome["return_ports"] == sim_outcome["return_ports"]
    assert live_outcome["slick_reroutes"] == sim_outcome["slick_reroutes"]
    assert live_outcome["mid_forwarded"] == sim_outcome["mid_forwarded"]


def test_a_tokened_alternate_reroutes():
    """Regression: the alternate block was decoded as views of the ring
    slot, so the token cache's lookup of its token raised ``ValueError``
    (a writable memoryview is unhashable) and the batch died mid-hop."""
    router, sent = capture_router("r", ports=(1, 2, 3))
    router.dead_ports.add(1)
    alternate = [
        HeaderSegment(port=2, token=router.mint.mint(port=2, account=1)),
        HeaderSegment(port=0),
    ]
    datagram = slick_frame(
        [HeaderSegment(port=1, slick=True), HeaderSegment(port=0)],
        [alternate],
    )
    source = router.ports[3]
    router._on_batch(batch_of(slot_view(router.endpoint.ring, datagram), source))
    assert [address for _bytes, address in sent] == [router.ports[2]]
    assert router.metrics.slick_reroutes == 1
