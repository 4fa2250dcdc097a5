"""E9 — §2.2 token authorization policies at the router.

Paper claims:

* tokens are "difficult to fully decrypt and check in real time", so
  the router caches the verified form;
* **optimistic** authorization lets the first packet through at full
  speed ("one or a small number of unauthorized packets can be allowed
  through without significant problems");
* **blocking** treats the first packet as blocked while the token is
  verified; **drop** discards it;
* "the optimistic token-based authorization using caching provides
  control of resource usage without performance penalty".

Setup: a 2-router line requiring tokens, verify cost 200 us per router.
For each policy: measure the first packet's one-way delay (cold cache)
and the steady-state delay (warm cache), plus delivery of packets
bearing forged tokens.
"""

from __future__ import annotations

import dataclasses

from repro.core.router import RouterConfig
from repro.scenarios import build_sirpent_line
from repro.tokens.cache import CachePolicy

from benchmarks._common import format_table, publish, us

HOPS = 2
VERIFY_COST = 200e-6
PAYLOAD = 512


def run_policy(policy: CachePolicy):
    config = RouterConfig(
        require_tokens=True, token_policy=policy,
        token_verify_cost=VERIFY_COST,
    )
    scenario = build_sirpent_line(n_routers=HOPS, router_config=config)
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    routes = scenario.directory.query("src", __import__(
        "repro.directory", fromlist=["RouteQuery"]
    ).RouteQuery("dst.lab.edu", with_tokens=True, account=1))
    route = routes[0]

    delays = []
    for index in range(6):
        scenario.sim.at(index * 20e-3,
                        lambda: scenario.hosts["src"].send(route, bytes(PAYLOAD)))
    scenario.sim.run(until=0.5)
    delays = [d.arrived_at - d.packet.created_at for d in got]

    # A forger without the mint cannot pass: corrupt one token byte.
    bad_segments = [s.copy(token=_flip(s.token)) if s.token else s
                    for s in route.segments]
    forged = dataclasses.replace(route, segments=bad_segments)

    before = len(got)
    for _ in range(4):
        scenario.hosts["src"].send(forged, bytes(PAYLOAD))
    scenario.sim.run(until=1.0)
    forged_through = len(got) - before
    rejected = sum(
        r.stats.dropped_token.count for r in scenario.routers.values()
    )
    return {
        "first": delays[0] if delays else float("nan"),
        "steady": sum(delays[1:]) / max(1, len(delays) - 1),
        "delivered": before,
        "forged_through": forged_through,
        "forged_rejected": rejected,
        "hit_rate": scenario.routers["r1"].token_cache.hit_rate(),
    }


def _flip(token: bytes) -> bytes:
    flipped = bytearray(token)
    flipped[-1] ^= 0xFF
    return bytes(flipped)


def run_all():
    return {policy.value: run_policy(policy) for policy in CachePolicy}


def bench_e09_token_authorization(benchmark):
    results = benchmark.pedantic(run_all, rounds=1, iterations=1)
    rows = [
        (name, r["delivered"], us(r["first"]), us(r["steady"]),
         us(r["first"] - r["steady"]), r["forged_through"],
         f"{r['hit_rate']:.2f}")
        for name, r in results.items()
    ]
    table = format_table(
        f"E9  Token policies ({HOPS} routers, verify cost "
        f"{us(VERIFY_COST):.0f} us each)",
        ["policy", "delivered", "first pkt (us)", "steady (us)",
         "cold penalty (us)", "forged delivered", "r1 cache hit rate"],
        rows,
    )
    note = (
        "\nPaper: optimistic = no performance penalty (cold == warm);\n"
        "blocking charges the verification to the first packet; drop\n"
        "loses it outright.  Forged tokens never pass more than the\n"
        "optimistic window."
    )
    publish("e09_token_authorization", table + note)

    optimistic = results["optimistic"]
    blocking = results["blocking"]
    drop = results["drop"]
    # Optimistic: zero cold-start penalty ("without performance penalty").
    assert abs(optimistic["first"] - optimistic["steady"]) < 5e-6
    # Blocking: first packet absorbs ~one verify cost per router.
    penalty = blocking["first"] - blocking["steady"]
    assert HOPS * VERIFY_COST * 0.8 < penalty < HOPS * VERIFY_COST * 1.5
    # Drop: the first packet (per router) is lost; later ones flow.
    assert drop["delivered"] < optimistic["delivered"]
    assert drop["steady"] > 0
    # Forged tokens: at most the optimistic first-packet window leaks.
    assert results["optimistic"]["forged_through"] <= 1
    assert results["blocking"]["forged_through"] == 0
    assert results["drop"]["forged_through"] == 0
    # Caches served the steady state.
    assert optimistic["hit_rate"] > 0.5
