"""Per-engine packet id allocation is reproducible and isolated.

Packet ids used to come from module-global ``itertools.count`` objects,
so the ids a run produced depended on every packet any *other* test or
simulator had ever constructed in the process.  Each
:class:`Simulator` now owns a
:class:`~repro.sim.ids.PacketIdAllocator`, making id sequences a pure
function of the run itself.
"""

import pytest

from repro.directory.routes import Route
from repro.sim.engine import Simulator
from repro.sim.ids import PacketIdAllocator


class TestAllocator:
    def test_sequential_from_start(self):
        ids = PacketIdAllocator()
        assert [ids.allocate() for _ in range(3)] == [1, 2, 3]

    def test_custom_start(self):
        assert PacketIdAllocator(start=100).allocate() == 100

    def test_invalid_start_rejected(self):
        with pytest.raises(ValueError):
            PacketIdAllocator(start=0)


class TestPerSimulatorIsolation:
    def test_two_simulators_produce_identical_sequences(self):
        a, b = Simulator(), Simulator()
        seq_a = [a.new_packet_id() for _ in range(10)]
        # Interleave unrelated allocation on another engine: b must be
        # unaffected — this is exactly what the module-global broke.
        seq_b = [b.new_packet_id() for _ in range(10)]
        assert seq_a == seq_b == list(range(1, 11))

    def test_identical_runs_stamp_identical_packet_ids(self):
        """The same scenario replayed on a fresh engine yields the same
        packet ids — including ids minted mid-flight (fragments,
        multicast copies, reassembly)."""
        from repro.core.host import SirpentHost
        from repro.core.router import SirpentRouter
        from repro.net.topology import Topology
        from repro.viper.wire import HeaderSegment

        def run():
            sim = Simulator()
            topo = Topology(sim)
            src = topo.add_node(SirpentHost(sim, "src"))
            dst = topo.add_node(SirpentHost(sim, "dst"))
            router = topo.add_node(SirpentRouter(sim, "r1"))
            _, src_port, _ = topo.connect(src, router, rate_bps=10e6,
                                          propagation_delay=10e-6)
            _, fwd_port, _ = topo.connect(router, dst, rate_bps=10e6,
                                          propagation_delay=10e-6)

            route = Route(
                "dst", [HeaderSegment(port=fwd_port), HeaderSegment(port=0)],
                src_port, None,
            )
            got = []
            dst.bind(0, got.append)
            for _ in range(5):
                src.send(route, b"data".ljust(200, b"\0"))
            sim.run(until=1.0)
            return [d.packet.packet_id for d in got]

        first, second = run(), run()
        assert first == second
        assert len(first) == 5
