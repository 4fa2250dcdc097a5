"""Unit tests for logical ports/links and load balancing (§2.2)."""

import random

import pytest

from repro.dataplane.logical import LogicalPortMap, SelectionPolicy
from repro.viper.portinfo import LogicalInfo
from repro.viper.wire import HeaderSegment


class _FakeAttachment:
    def __init__(self, busy):
        self.busy = busy


class _FakePort:
    def __init__(self, busy=False, depth=0):
        self.attachment = _FakeAttachment(busy)
        self.queue_depth = depth


def test_trunk_least_loaded_prefers_idle_member():
    ports = {1: _FakePort(busy=True, depth=0),
             2: _FakePort(busy=False, depth=3),
             3: _FakePort(busy=True, depth=1)}
    logical = LogicalPortMap()
    logical.add_trunk(100, [1, 2, 3])
    port, spliced = logical.resolve(100, ports)
    assert port == 2 and spliced is None


def test_trunk_least_loaded_breaks_ties_by_queue():
    ports = {1: _FakePort(busy=True, depth=5), 2: _FakePort(busy=True, depth=1)}
    logical = LogicalPortMap()
    logical.add_trunk(100, [1, 2])
    port, _ = logical.resolve(100, ports)
    assert port == 2


def test_trunk_round_robin_cycles():
    ports = {1: _FakePort(), 2: _FakePort(), 3: _FakePort()}
    logical = LogicalPortMap()
    logical.add_trunk(100, [1, 2, 3], policy=SelectionPolicy.ROUND_ROBIN)
    picks = [logical.resolve(100, ports)[0] for _ in range(6)]
    assert picks == [1, 2, 3, 1, 2, 3]


def test_trunk_flow_hash_is_stable_per_flow():
    ports = {1: _FakePort(), 2: _FakePort()}
    logical = LogicalPortMap()
    logical.add_trunk(100, [1, 2], policy=SelectionPolicy.FLOW_HASH)
    a = [logical.resolve(100, ports, flow_hint=5)[0] for _ in range(4)]
    b = [logical.resolve(100, ports, flow_hint=6)[0] for _ in range(4)]
    assert len(set(a)) == 1 and len(set(b)) == 1
    assert a[0] != b[0]


def test_trunk_random_needs_rng():
    logical = LogicalPortMap()
    logical.add_trunk(100, [1, 2], policy=SelectionPolicy.RANDOM)
    with pytest.raises(RuntimeError):
        logical.resolve(100, {1: _FakePort(), 2: _FakePort()})
    seeded = LogicalPortMap(rng=random.Random(1))
    seeded.add_trunk(100, [1, 2], policy=SelectionPolicy.RANDOM)
    picks = {seeded.resolve(100, {1: _FakePort(), 2: _FakePort()})[0]
             for _ in range(20)}
    assert picks == {1, 2}


def test_transit_expansion_returns_spliced_route():
    """§2.2: 'replace the logical hop destination by a … source route as
    the packet enters the network'."""
    logical = LogicalPortMap()
    transit = [HeaderSegment(port=4), HeaderSegment(port=9),
               HeaderSegment(port=2)]
    logical.add_transit(150, transit)
    port, spliced = logical.resolve(150, {})
    assert port == 4
    assert [s.port for s in spliced] == [4, 9, 2]
    # Copies, not aliases: mutating the result must not corrupt the map.
    spliced[0] = spliced[0].copy(port=77)
    assert logical.resolve(150, {})[1][0].port == 4


def test_unknown_port_resolves_to_none():
    logical = LogicalPortMap()
    assert logical.resolve(42, {}) == (None, None)
    assert not logical.is_logical(42)


def test_duplicate_definition_rejected():
    logical = LogicalPortMap()
    logical.add_trunk(100, [1])
    with pytest.raises(ValueError):
        logical.add_transit(100, [HeaderSegment(port=1)])
    with pytest.raises(ValueError):
        logical.add_trunk(100, [2])


def test_empty_definitions_rejected():
    logical = LogicalPortMap()
    with pytest.raises(ValueError):
        logical.add_trunk(100, [])
    with pytest.raises(ValueError):
        logical.add_transit(101, [])


def test_flow_hint_extraction():
    info = LogicalInfo(label=1, flow_hint=9)
    segment = HeaderSegment(port=100, portinfo=info.to_bytes())
    assert LogicalPortMap.flow_hint_of(segment) == 9
    assert LogicalPortMap.flow_hint_of(HeaderSegment(port=1)) == 0
