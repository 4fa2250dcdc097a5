"""Router-level token lifetime and transport-level size limits."""

from dataclasses import replace

import pytest

from repro.core.router import RouterConfig
from repro.scenarios import build_sirpent_line
from repro.transport import RouteManager


def test_expired_token_rejected_at_the_router():
    """Tokens can carry an expiry; packets after it are rejected.

    Under the BLOCKING policy the check is synchronous — with OPTIMISTIC
    the first packet per (re-learned) token value is admitted by design.
    """
    from repro.tokens.cache import CachePolicy

    config = RouterConfig(require_tokens=True,
                          token_policy=CachePolicy.BLOCKING)
    scenario = build_sirpent_line(n_routers=1, router_config=config)
    router = scenario.routers["r1"]
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    base = scenario.routes("src", "dst")[0]
    out_port = base.segments[0].port
    token = router.mint.mint(port=out_port, account=1, expiry_ms=50)

    tokened = replace(
        base, segments=[base.segments[0].copy(token=token), base.segments[1]],
    )

    scenario.hosts["src"].send(tokened, b"fresh".ljust(100, b"\0"))
    scenario.sim.run(until=0.2)  # clock now past 50 ms
    # Flush the cache so the router re-verifies (cached entries do not
    # re-check expiry; soft state would age out in deployment).
    router.token_cache.flush()
    scenario.hosts["src"].send(tokened, b"stale".ljust(100, b"\0"))
    scenario.sim.run(until=0.5)
    assert [d.payload.rstrip(b"\0") for d in got] == [b"fresh"]
    assert router.stats.dropped_token.count >= 1


def test_oversized_message_rejected_at_the_transport():
    """A logical message beyond the 32-member group limit fails fast."""
    scenario = build_sirpent_line(n_routers=1)
    client = scenario.transport("src")
    server = scenario.transport("dst")
    entity = server.create_entity(lambda m: (b"ok", 8))
    manager = RouteManager(scenario.sim, scenario.vmtp_routes("src", "dst"))
    too_big = 33 * 1024 + 1  # > 32 x 1KB members
    with pytest.raises(ValueError):
        client.transact(manager, entity, b"huge", too_big, lambda r: None)


def test_byte_limited_token_cuts_off_mid_stream():
    """'optionally a limit on resource usage authorized by this token'
    (§2.2): the budget runs out and later packets are rejected."""
    config = RouterConfig(require_tokens=True)
    scenario = build_sirpent_line(n_routers=1, router_config=config)
    router = scenario.routers["r1"]
    got = []
    scenario.hosts["dst"].bind(0, got.append)
    base = scenario.routes("src", "dst")[0]
    out_port = base.segments[0].port
    # Budget for roughly two 500-byte packets (plus headers).
    token = router.mint.mint(port=out_port, account=2, byte_limit=1200)

    tokened = replace(
        base, segments=[base.segments[0].copy(token=token), base.segments[1]],
    )

    for index in range(4):
        scenario.sim.at(index * 5e-3,
                        lambda: scenario.hosts["src"].send(tokened, bytes(500)))
    scenario.sim.run(until=0.5)
    assert len(got) == 2
    assert router.stats.dropped_token.count == 2
    # Accounting matches what was admitted.
    assert router.token_cache.ledger.usage(2).packets == 2
