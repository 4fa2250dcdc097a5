"""A6 — §5's hierarchical fan-out claim.

"We require that larger fan-out switches be structured hierarchically
as a series of switches, each with a fan-out of at most 255.  The
hierarchical structuring … imposes no significant additional delay
given the use of cut-through routing at each stage."

Setup: hosts on opposite leaves of a two-stage fabric (leaf → root →
leaf, i.e. three cut-through stages) versus a single flat switch, at
100 Mb/s.  The extra stages should cost only decision delays and header
pipeline — microseconds against an ~80 µs packet.
"""

from __future__ import annotations

from repro.core.host import SirpentHost
from repro.core.router import SirpentRouter
from repro.net.fabric import build_fabric
from repro.net.topology import Topology
from repro.sim.engine import Simulator
from repro.viper.wire import HeaderSegment

from benchmarks._common import format_table, publish, us

PAYLOAD = 1000
RATE = 100e6


class _Route:
    def __init__(self, segments, first_hop_port):
        self.segments = segments
        self.first_hop_port = first_hop_port
        self.first_hop_mac = None


def run_flat() -> float:
    sim = Simulator()
    topo = Topology(sim)
    switch = topo.add_node(SirpentRouter(sim, "flat"))
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    _, src_port, _ = topo.connect(src, switch, rate_bps=RATE,
                                  propagation_delay=1e-6)
    _, out_port, _ = topo.connect(switch, dst, rate_bps=RATE,
                                  propagation_delay=1e-6)
    got = []
    dst.bind(0, got.append)
    src.send(_Route(
        [HeaderSegment(port=out_port), HeaderSegment(port=0)], src_port
    ), bytes(PAYLOAD))
    sim.run(until=1.0)
    return got[0].arrived_at - got[0].packet.created_at


def run_fabric(n_leaves: int) -> float:
    sim = Simulator()
    topo = Topology(sim)
    fabric = build_fabric(sim, topo, n_leaves=n_leaves, rate_bps=RATE)
    src = topo.add_node(SirpentHost(sim, "src"))
    dst = topo.add_node(SirpentHost(sim, "dst"))
    _, src_port, _ = topo.connect(src, fabric.leaf_for(0), rate_bps=RATE,
                                  propagation_delay=1e-6)
    _, _, dst_leaf_port = topo.connect(
        fabric.leaf_for(n_leaves - 1), dst, rate_bps=RATE,
        propagation_delay=1e-6,
    )
    # connect() assigned the leaf's port; find it from the edge list.
    dst_leaf_port = next(
        e.port_id for e in topo.edges_from(fabric.leaf_for(n_leaves - 1).name)
        if e.dst == "dst"
    )
    got = []
    dst.bind(0, got.append)
    segments = fabric.internal_segments(0, dst_leaf_port, n_leaves - 1) + [
        HeaderSegment(port=0)
    ]
    src.send(_Route(segments, src_port), bytes(PAYLOAD))
    sim.run(until=1.0)
    return got[0].arrived_at - got[0].packet.created_at


def run_all():
    return {
        "flat switch (1 stage)": run_flat(),
        "fabric 4 leaves (3 stages)": run_fabric(4),
        "fabric 16 leaves (3 stages)": run_fabric(16),
    }


def bench_a06_hierarchical_fanout(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    serialization = PAYLOAD * 8 / RATE
    table = format_table(
        f"A6  Crossing a hierarchical switch fabric "
        f"({PAYLOAD}B at {RATE / 1e6:.0f} Mb/s, serialization "
        f"{us(serialization):.0f} us)",
        ["structure", "end-to-end (us)", "extra vs flat (us)"],
        [
            (name, us(delay), us(delay - results["flat switch (1 stage)"]))
            for name, delay in results.items()
        ],
    )
    note = (
        "\nPaper §5: hierarchy 'imposes no significant additional delay\n"
        "given the use of cut-through routing at each stage' — two extra\n"
        "stages cost ~2 decision delays + header pipeline, a few percent\n"
        "of one packet time."
    )
    publish("a06_hierarchical_fanout", table + note)

    flat = results["flat switch (1 stage)"]
    deep = results["fabric 16 leaves (3 stages)"]
    assert deep > flat  # the stages are not free...
    assert deep - flat < 0.15 * serialization  # ...but insignificant
    # Fan-out width does not change the crossing cost (same depth).
    assert abs(results["fabric 4 leaves (3 stages)"] - deep) < 1e-9
