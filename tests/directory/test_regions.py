"""Unit tests for the region-server hierarchy (§3, Singh's scheme)."""

import pytest

from repro.directory.names import HierarchicalName
from repro.directory.regions import RegionServer
from repro.sim.engine import Simulator


def build_hierarchy(sim, hop_latency=1e-3):
    root = RegionServer(sim, hop_latency=hop_latency)
    root.register(HierarchicalName.parse("venus.cs.stanford.edu"), "venus")
    root.register(HierarchicalName.parse("earth.cs.stanford.edu"), "earth")
    root.register(HierarchicalName.parse("gw.stanford.edu"), "gw-stanford")
    root.register(HierarchicalName.parse("milo.lcs.mit.edu"), "milo")
    return root


def test_registration_lands_in_owning_region():
    sim = Simulator()
    root = build_hierarchy(sim)
    cs = root.children["edu"].children["stanford"].children["cs"]
    assert "venus.cs.stanford.edu" in cs.hosts
    stanford = root.children["edu"].children["stanford"]
    assert "gw.stanford.edu" in stanford.hosts


def test_local_resolution_is_cheap():
    sim = Simulator()
    root = build_hierarchy(sim, hop_latency=1e-3)
    cs = root.children["edu"].children["stanford"].children["cs"]
    result = cs.resolve(HierarchicalName.parse("earth.cs.stanford.edu"))
    assert result.node_name == "earth"
    assert result.latency == 0.0
    assert result.servers_visited == 0


def test_cross_region_resolution_charges_hops():
    sim = Simulator()
    root = build_hierarchy(sim, hop_latency=1e-3)
    cs = root.children["edu"].children["stanford"].children["cs"]
    result = cs.resolve(HierarchicalName.parse("milo.lcs.mit.edu"))
    assert result.node_name == "milo"
    # Up: cs -> stanford -> edu (2 hops); down: edu -> mit -> lcs (2 hops).
    assert result.servers_visited == 4
    assert result.latency == pytest.approx(4e-3)


def test_sibling_region_resolution():
    sim = Simulator()
    root = build_hierarchy(sim, hop_latency=1e-3)
    root.register(HierarchicalName.parse("hp.ee.stanford.edu"), "hp")
    cs = root.children["edu"].children["stanford"].children["cs"]
    result = cs.resolve(HierarchicalName.parse("hp.ee.stanford.edu"))
    assert result.node_name == "hp"
    assert result.servers_visited == 2  # up to stanford, down to ee


def test_cache_makes_repeat_lookup_free():
    sim = Simulator()
    root = build_hierarchy(sim, hop_latency=1e-3)
    cs = root.children["edu"].children["stanford"].children["cs"]
    name = HierarchicalName.parse("milo.lcs.mit.edu")
    first = cs.resolve(name)
    second = cs.resolve(name)
    assert not first.from_cache
    assert second.from_cache
    assert second.latency == 0.0
    assert cs.cache_hits == 1


def test_cache_expires():
    sim = Simulator()
    root = build_hierarchy(sim, hop_latency=1e-3)
    cs = root.children["edu"].children["stanford"].children["cs"]
    cs.cache_ttl = 1.0
    name = HierarchicalName.parse("milo.lcs.mit.edu")
    cs.resolve(name)
    sim.at(5.0, lambda: None)
    sim.run()
    result = cs.resolve(name)
    assert not result.from_cache


def test_unknown_name_returns_none():
    sim = Simulator()
    root = build_hierarchy(sim)
    assert root.resolve(HierarchicalName.parse("ghost.cs.stanford.edu")) is None
    assert root.resolve(HierarchicalName.parse("host.example.org")) is None


def test_add_child_idempotent():
    sim = Simulator()
    root = RegionServer(sim)
    child1 = root.add_child("edu")
    child2 = root.add_child("edu")
    assert child1 is child2
