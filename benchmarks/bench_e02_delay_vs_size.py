"""E2 — §6.1 cut-through vs store-and-forward delay scaling.

Paper claim: cut-through "eliminates the reception and storage time for
the packet, which is proportional to the size of the packet", so the
end-to-end delay of a Sirpent path is ~one serialization regardless of
hop count, while a conventional router path pays one serialization (and
a processing delay) *per hop*.

Setup: unloaded lines of 1–8 routers, packet sizes 64–1500 bytes, both
router modes plus the IP baseline, measured against the closed-form
models of :mod:`repro.analysis.delay`.
"""

from __future__ import annotations

from repro.analysis.delay import cut_through_delay, store_and_forward_delay
from repro.core.router import RouterConfig
from repro.scenarios import build_ip_line, build_sirpent_line

from benchmarks._common import assert_close, format_table, ms, publish

RATE = 10e6
PROP = 10e-6
IP_PROCESS = 50e-6


def sirpent_delay(hops: int, payload: int, cut_through: bool) -> float:
    config = RouterConfig(
        cut_through=cut_through,
        decision_delay=0.5e-6,
        store_forward_process_delay=IP_PROCESS,
    )
    scenario = build_sirpent_line(
        n_routers=hops, rate_bps=RATE, propagation_delay=PROP,
        router_config=config,
    )
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    route = scenario.routes("src", "dst")[0]
    scenario.hosts["src"].send(route, bytes(payload))
    scenario.sim.run(until=2.0)
    return got[0].arrived_at - got[0].packet.created_at


def ip_delay(hops: int, payload: int) -> float:
    scenario = build_ip_line(n_routers=hops, rate_bps=RATE,
                             propagation_delay=PROP)
    scenario.converge()
    got = []
    scenario.hosts["dst"].bind_protocol(42, got.append)
    start = scenario.sim.now
    scenario.hosts["src"].send("dst", b"x", payload, protocol=42)
    scenario.sim.run(until=start + 2.0)
    return scenario.hosts["dst"].delivery_delay.mean


def run_sweep():
    rows = []
    for hops in (1, 2, 4, 8):
        for payload in (64, 512, 1500):
            ct = sirpent_delay(hops, payload, cut_through=True)
            sf = sirpent_delay(hops, payload, cut_through=False)
            ip = ip_delay(hops, payload)
            wire = payload + (hops + 1) * 4  # VIPER segments
            prop_total = (hops + 1) * PROP
            rows.append({
                "hops": hops, "payload": payload,
                "ct": ct, "sf": sf, "ip": ip,
                "ct_model": cut_through_delay(
                    wire, RATE, hops, prop_total, 0.5e-6,
                ),
                "sf_model": store_and_forward_delay(
                    wire, RATE, hops, prop_total, IP_PROCESS,
                ),
            })
    return rows


def bench_e02_delay_vs_size(benchmark):
    rows = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    table = format_table(
        "E2  Unloaded end-to-end delay (ms): cut-through vs store-and-forward vs IP",
        ["hops", "payload B", "Sirpent CT", "CT model", "Sirpent SF",
         "SF model", "IP baseline"],
        [
            (r["hops"], r["payload"], ms(r["ct"]), ms(r["ct_model"]),
             ms(r["sf"]), ms(r["sf_model"]), ms(r["ip"]))
            for r in rows
        ],
    )
    note = (
        "\nPaper: CT delay ~ one serialization + propagation + <1us/hop;\n"
        "SF/IP add a full serialization + processing at every router."
    )
    publish("e02_delay_vs_size", table + note)

    # Model agreement.  Small packets deviate more: header segments and
    # trailer framing are a larger fraction of the wire time than the
    # closed-form model accounts for.
    for r in rows:
        tolerance = 0.25 if r["payload"] < 512 else 0.1
        assert_close(r["ct"], r["ct_model"], rel=tolerance,
                     what=f"CT model h={r['hops']} p={r['payload']}")
        assert_close(r["sf"], r["sf_model"], rel=tolerance,
                     what=f"SF model h={r['hops']} p={r['payload']}")

    # Cut-through is ~flat in hop count (1500B): 1 vs 8 hops differ by
    # far less than one serialization.
    big = {r["hops"]: r for r in rows if r["payload"] == 1500}
    serialization = 1500 * 8 / RATE
    assert big[8]["ct"] - big[1]["ct"] < 0.2 * serialization
    # Store-and-forward grows by ~7 serializations over the same span.
    assert big[8]["sf"] - big[1]["sf"] > 6.5 * serialization
    # The IP baseline is never faster than Sirpent store-and-forward
    # (its header is bigger) and always slower than cut-through.
    for r in rows:
        assert r["ip"] > r["ct"]
