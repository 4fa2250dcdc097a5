"""A1 — ablation: how much does the sub-microsecond switch decision buy?

§6.1 rests on "the switch decision and setup time can be made
significantly less than a microsecond, given the simplicity of the
switching decision" — the simplicity comes from source routing (read a
port number) versus a destination-address route lookup.  This ablation
sweeps the decision delay from the paper's hardware figure up to a
software-router figure and shows when the cut-through advantage
evaporates.
"""

from __future__ import annotations

from repro.core.router import RouterConfig
from repro.scenarios import build_sirpent_line

from benchmarks._common import format_table, ms, publish

HOPS = 4
PAYLOAD = 576  # the classic small-datagram size


def run_point(decision_delay: float) -> float:
    config = RouterConfig(cut_through=True, decision_delay=decision_delay)
    scenario = build_sirpent_line(n_routers=HOPS, router_config=config)
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    route = scenario.routes("src", "dst")[0]
    scenario.hosts["src"].send(route, bytes(PAYLOAD))
    scenario.sim.run(until=2.0)
    return got[0].arrived_at - got[0].packet.created_at


def run_store_forward() -> float:
    config = RouterConfig(cut_through=False,
                          store_forward_process_delay=50e-6)
    scenario = build_sirpent_line(n_routers=HOPS, router_config=config)
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    route = scenario.routes("src", "dst")[0]
    scenario.hosts["src"].send(route, bytes(PAYLOAD))
    scenario.sim.run(until=2.0)
    return got[0].arrived_at - got[0].packet.created_at


def run_sweep():
    sweep = [
        ("hardware, 0.5us (paper)", 0.5e-6),
        ("fast ASIC, 5us", 5e-6),
        ("firmware, 50us", 50e-6),
        ("software, 200us", 200e-6),
        ("slow software, 1ms", 1e-3),
    ]
    rows = [(label, delay, run_point(delay)) for label, delay in sweep]
    return rows, run_store_forward()


def bench_a01_decision_delay(benchmark):
    rows, store_forward = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    serialization = PAYLOAD * 8 / 10e6
    table = format_table(
        f"A1  Cut-through delay vs switch decision time "
        f"({HOPS} hops, {PAYLOAD}B)",
        ["decision hardware", "decision delay", "end-to-end (ms)",
         "vs store-and-forward (ms)"],
        [
            (label, f"{delay * 1e6:.1f} us", ms(delay_ms), ms(store_forward))
            for label, delay, delay_ms in rows
        ],
    )
    note = (
        "\nThe paper's hardware premise buys a ~4x delay win at this\n"
        "size/hop point; once the decision costs what a route lookup\n"
        "does in software, cut-through's advantage drowns."
    )
    publish("a01_decision_delay", table + note)

    delays = {label: value for label, _d, value in rows}
    assert delays["hardware, 0.5us (paper)"] < store_forward / 3
    # Sub-serialization decisions barely register.
    assert delays["fast ASIC, 5us"] - delays["hardware, 0.5us (paper)"] \
        < serialization * 0.2
    # A 1ms software decision erases the win entirely.
    assert delays["slow software, 1ms"] > store_forward
