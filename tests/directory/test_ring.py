"""Consistent-hash ring properties: minimal, local, deterministic moves.

The claims the cluster's rebalancing rests on, checked as properties
over ring sizes 1–32:

* adding a shard moves keys **only to** the new shard, never between
  two bystanders;
* a ring without a shard differs only in **that shard's** keys,
  everyone else's ownership is untouched;
* the moved fraction is ~``K/n`` — consistent hashing's whole point.
"""

import pytest

from repro.directory.cluster.ring import (
    ConsistentHashRing,
    RingError,
    shard_key,
)


def _keys(count=600):
    """A deterministic population of sharding keys (region prefixes)."""
    return [f"region{i}.domain{i % 37}.net" for i in range(count)]


def _owners(ring, keys):
    return {key: ring.owner_of_key(key) for key in keys}


def _ring(shard_ids, vnodes=64):
    ring = ConsistentHashRing(vnodes=vnodes)
    for shard_id in shard_ids:
        ring.add(shard_id)
    return ring


# -- sharding key ----------------------------------------------------------

def test_shard_key_is_the_region_prefix():
    assert shard_key("venus.cs.stanford.edu") == "cs.stanford.edu"
    assert shard_key("pescadero.cs.stanford.edu") == "cs.stanford.edu"


def test_root_level_names_shard_on_themselves():
    assert shard_key("edu") == "edu"


def test_region_names_colocate():
    """Every host of one region lands on one shard — the locality that
    keeps region-walking queries single-shard."""
    ring = _ring([f"shard-{n}" for n in range(8)])
    owners = {
        ring.owner(f"host{i}.cs.stanford.edu") for i in range(50)
    }
    assert len(owners) == 1


# -- determinism -----------------------------------------------------------

def test_insertion_order_is_irrelevant():
    keys = _keys()
    forward = _ring([f"shard-{n}" for n in range(8)])
    backward = _ring([f"shard-{n}" for n in reversed(range(8))])
    assert _owners(forward, keys) == _owners(backward, keys)


# -- the arrival/departure move properties, sizes 1..32 ---------------------------

@pytest.mark.parametrize("n", list(range(1, 33)))
def test_add_moves_only_to_the_new_shard(n):
    keys = _keys()
    ring = _ring([f"shard-{i}" for i in range(n)])
    before = _owners(ring, keys)
    ring.add("shard-new")
    after = _owners(ring, keys)
    moved = [k for k in keys if before[k] != after[k]]
    for key in moved:
        assert after[key] == "shard-new", (
            f"{key} moved {before[key]} -> {after[key]}: a bystander "
            "transfer, which consistent hashing must never do"
        )


@pytest.mark.parametrize("n", list(range(2, 33)))
def test_a_shards_departure_touches_only_its_keys(n):
    """The ring is a function of its shard set: the ring without
    ``shard-0`` owns every other shard's keys as the ring with it."""
    keys = _keys()
    before = _owners(_ring([f"shard-{i}" for i in range(n)]), keys)
    after = _owners(_ring([f"shard-{i}" for i in range(1, n)]), keys)
    for key in keys:
        if before[key] == "shard-0":
            assert after[key] != "shard-0"
        else:
            assert after[key] == before[key], (
                f"{key} was not on shard-0 yet moved "
                f"{before[key]} -> {after[key]}"
            )


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16, 32])
def test_add_moves_roughly_the_expected_fraction(n):
    """Growing n -> n+1 shards should move ~K/(n+1) keys.

    Vnode placement is hash-random, so the bound is loose (3x) — the
    property being pinned is the *order*: ~K/n, not ~K.
    """
    keys = _keys(1200)
    ring = _ring([f"shard-{i}" for i in range(n)])
    before = _owners(ring, keys)
    ring.add("shard-new")
    after = _owners(ring, keys)
    moved = sum(1 for k in keys if before[k] != after[k])
    expected = len(keys) / (n + 1)
    assert moved <= 3.0 * expected, (
        f"n={n}: moved {moved} of {len(keys)}, expected ~{expected:.0f}"
    )
    assert moved >= expected / 3.0, (
        f"n={n}: moved only {moved}; the new shard took almost nothing"
    )


def test_ownership_is_roughly_uniform():
    keys = _keys(3200)
    ring = _ring([f"shard-{n}" for n in range(8)])
    counts = {shard: 0 for shard in ring.shards()}
    for key in keys:
        counts[ring.owner_of_key(key)] += 1
    ideal = len(keys) / 8
    assert min(counts.values()) > ideal * 0.4
    assert max(counts.values()) < ideal * 2.0


# -- errors ----------------------------------------------------------------

def test_empty_ring_refuses_lookups():
    with pytest.raises(RingError):
        ConsistentHashRing().owner("venus.cs.stanford.edu")


def test_duplicate_add_refused():
    ring = _ring(["shard-0"])
    with pytest.raises(RingError):
        ring.add("shard-0")


def test_vnodes_must_be_positive():
    with pytest.raises(RingError):
        ConsistentHashRing(vnodes=0)
