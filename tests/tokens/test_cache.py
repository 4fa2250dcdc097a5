"""Unit tests for the router token cache and its three policies (§2.2)."""

import pytest

from repro.tokens.cache import CachePolicy, TokenCache, Verdict
from repro.tokens.capability import TokenMint


@pytest.fixture
def mint():
    return TokenMint(b"secret", issuer="r1")


def make_cache(mint, policy=CachePolicy.OPTIMISTIC, **kwargs):
    return TokenCache(mint, policy=policy, verify_cost=100e-6, **kwargs)


class TestOptimistic:
    def test_first_packet_admitted_without_delay(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=2, account=1)
        verdict, delay, _ = cache.admit(token, port=2, priority=0, size=100)
        assert verdict is Verdict.FORWARD
        assert delay == 0.0

    def test_entry_cached_after_first_use(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=2, account=1)
        cache.admit(token, 2, 0, 100)
        assert cache.entry(token) is not None
        assert cache.misses == 1
        cache.admit(token, 2, 0, 100)
        assert cache.hits == 1

    def test_invalid_token_admitted_once_then_rejected(self, mint):
        """Optimistic: 'one or a small number of unauthorized packets
        can be allowed through'."""
        cache = make_cache(mint)
        bad = bytearray(mint.mint(port=2, account=1))
        bad[-1] ^= 1
        bad = bytes(bad)
        first, _, _ = cache.admit(bad, 2, 0, 100)
        assert first is Verdict.FORWARD  # slipped through
        second, _, _ = cache.admit(bad, 2, 0, 100)
        assert second is Verdict.REJECT  # cached as invalid

    def test_flood_of_invalid_tokens_switches_to_blocking(self, mint):
        """Footnote 7: excessive invalid tokens end the optimism."""
        cache = make_cache(mint, invalid_switch_threshold=4)
        for index in range(4):
            bad = bytearray(mint.mint(port=2, account=index))
            bad[-1] ^= 1
            verdict, _, _ = cache.admit(bytes(bad), 2, 0, 100)
            assert verdict is Verdict.FORWARD
        # Next unseen invalid token is checked synchronously and rejected.
        bad = bytearray(mint.mint(port=2, account=99))
        bad[-1] ^= 1
        verdict, delay, _ = cache.admit(bytes(bad), 2, 0, 100)
        assert verdict is Verdict.REJECT


class TestBlocking:
    def test_first_packet_pays_verification(self, mint):
        cache = make_cache(mint, policy=CachePolicy.BLOCKING)
        token = mint.mint(port=2, account=1)
        verdict, delay, _ = cache.admit(token, 2, 0, 100)
        assert verdict is Verdict.FORWARD
        assert delay == pytest.approx(100e-6)

    def test_subsequent_packets_are_free(self, mint):
        cache = make_cache(mint, policy=CachePolicy.BLOCKING)
        token = mint.mint(port=2, account=1)
        cache.admit(token, 2, 0, 100)
        verdict, delay, _ = cache.admit(token, 2, 0, 100)
        assert verdict is Verdict.FORWARD and delay == 0.0

    def test_invalid_rejected_immediately(self, mint):
        cache = make_cache(mint, policy=CachePolicy.BLOCKING)
        bad = bytearray(mint.mint(port=2, account=1))
        bad[-1] ^= 1
        verdict, _, _ = cache.admit(bytes(bad), 2, 0, 100)
        assert verdict is Verdict.REJECT


class TestDrop:
    def test_first_packet_dropped_but_cached(self, mint):
        cache = make_cache(mint, policy=CachePolicy.DROP)
        token = mint.mint(port=2, account=1)
        verdict, _, _ = cache.admit(token, 2, 0, 100)
        assert verdict is Verdict.REJECT
        # The retry is then admitted from cache.
        verdict, delay, _ = cache.admit(token, 2, 0, 100)
        assert verdict is Verdict.FORWARD and delay == 0.0


class TestAuthorizationChecks:
    def test_wrong_port_rejected(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=2, account=1)
        cache.admit(token, 2, 0, 100)  # install
        verdict, _, _ = cache.admit(token, 3, 0, 100)
        assert verdict is Verdict.REJECT

    def test_excess_priority_rejected(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=2, account=1, max_priority=3)
        cache.admit(token, 2, 0, 100)
        verdict, _, _ = cache.admit(token, 2, 7, 100)
        assert verdict is Verdict.REJECT

    def test_byte_limit_enforced(self, mint):
        """'optionally a limit on resource usage authorized by this
        token' — usage beyond the budget is rejected."""
        cache = make_cache(mint)
        token = mint.mint(port=2, account=1, byte_limit=250)
        assert cache.admit(token, 2, 0, 100)[0] is Verdict.FORWARD
        assert cache.admit(token, 2, 0, 100)[0] is Verdict.FORWARD
        assert cache.admit(token, 2, 0, 100)[0] is Verdict.REJECT

    def test_missing_token_with_requirement(self, mint):
        cache = make_cache(mint, require_tokens=True)
        verdict, _, _ = cache.admit(b"", 2, 0, 100)
        assert verdict is Verdict.REJECT

    def test_missing_token_without_requirement(self, mint):
        cache = make_cache(mint, require_tokens=False)
        verdict, delay, _ = cache.admit(b"", 2, 0, 100)
        assert verdict is Verdict.FORWARD and delay == 0.0


class TestExpiry:
    """The claims are cached, so their expiry is read on every hit — a
    token cached before its expiry is not honoured after it."""

    @pytest.mark.parametrize("policy", list(CachePolicy))
    def test_a_cached_token_is_refused_past_its_expiry(self, mint, policy):
        cache = make_cache(mint, policy=policy)
        token = mint.mint(port=1, account=9, expiry_ms=1000)
        cache.admit(token, 1, 0, 100, now_ms=0)        # first sight: cached
        for now_ms in (0, 1000):
            assert cache.admit(token, 1, 0, 100, now_ms=now_ms)[0] is Verdict.FORWARD
        charged = cache.ledger.usage(9).packets
        for now_ms in (1001, 5000, 5001):
            verdict, delay, entry = cache.admit(token, 1, 0, 100, now_ms=now_ms)
            assert verdict is Verdict.REJECT and delay == 0.0
            assert not entry.valid
        # Refused from the cache: never verified again (which would let
        # the optimistic policy forward it once more), not counted with
        # the forged tokens, nothing charged.
        assert (cache.misses, cache.invalid_seen) == (1, 0)
        assert cache.ledger.usage(9).packets == charged

    def test_as_a_router_seeing_it_late_for_the_first_time_would(self, mint):
        cache = make_cache(mint, policy=CachePolicy.BLOCKING)
        token = mint.mint(port=1, account=9, expiry_ms=1000)
        assert cache.admit(token, 1, 0, 100, now_ms=5000)[0] is Verdict.REJECT
        assert cache.admit(token, 1, 0, 100, now_ms=5001)[0] is Verdict.REJECT

    def test_the_reverse_path_and_the_alternate_share_the_check(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=1, account=9, expiry_ms=1000, reverse_ok=True)
        assert cache.admit(token, 4, 0, 10, now_ms=0, rpf=True)[0] is Verdict.FORWARD
        assert cache.admit(token, 4, 0, 10, now_ms=2000, rpf=True)[0] is Verdict.REJECT


class TestAccounting:
    def test_usage_charged_to_token_account(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=2, account=77)
        cache.admit(token, 2, 0, 100)
        cache.admit(token, 2, 0, 150)
        usage = cache.ledger.usage(77)
        assert usage.packets == 2
        assert usage.bytes == 250

    def test_flush_discards_soft_state(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=2, account=1)
        cache.admit(token, 2, 0, 100)
        assert len(cache) == 1
        cache.flush()
        assert len(cache) == 0

    def test_hit_rate(self, mint):
        cache = make_cache(mint)
        token = mint.mint(port=2, account=1)
        cache.admit(token, 2, 0, 1)
        cache.admit(token, 2, 0, 1)
        cache.admit(token, 2, 0, 1)
        assert cache.hit_rate() == pytest.approx(2 / 3)
