"""Unit tests for hierarchical names (§3)."""

import pytest

from repro.directory.names import HierarchicalName


def test_parse_and_render():
    name = HierarchicalName.parse("Venus.CS.Stanford.EDU")
    assert str(name) == "venus.cs.stanford.edu"  # normalized
    assert name.labels[0] == "venus"


def test_parent_chain():
    name = HierarchicalName.parse("venus.cs.stanford.edu")
    assert str(name.parent) == "cs.stanford.edu"
    assert str(name.parent.parent) == "stanford.edu"
    assert HierarchicalName.parse("edu").parent is None


def test_is_within():
    name = HierarchicalName.parse("venus.cs.stanford.edu")
    assert name.is_within(HierarchicalName.parse("cs.stanford.edu"))
    assert name.is_within(HierarchicalName.parse("edu"))
    assert not name.is_within(HierarchicalName.parse("mit.edu"))
    assert not name.is_within(name)  # a name is not within itself


def test_invalid_labels_rejected():
    with pytest.raises(ValueError):
        HierarchicalName.parse("")
    with pytest.raises(ValueError):
        HierarchicalName.parse("host..edu")
    with pytest.raises(ValueError):
        HierarchicalName.parse("host name.edu")


def test_equality_and_hashability():
    a = HierarchicalName.parse("a.b.c")
    b = HierarchicalName.parse("A.B.C")
    assert a == b
    assert len({a, b}) == 1
