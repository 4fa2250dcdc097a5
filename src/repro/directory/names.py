"""Hierarchical character-string names.

§3: "With Sirpent, the hierarchical character-string names serve as the
unique hierarchical identifiers for hosts, gateways and networks" —
there are no IP-like addresses at all.  A name like
``venus.cs.stanford.edu`` denotes a host whose region path is
``edu → stanford.edu → cs.stanford.edu``; regions double as both naming
and routing domains (the paper's stanford.edu example).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

_LABEL_OK = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


def _validate_label(label: str) -> str:
    if not label:
        raise ValueError("empty name label")
    if set(label.lower()) - _LABEL_OK:
        raise ValueError(f"label {label!r} has invalid characters")
    return label.lower()


@dataclass(frozen=True)
class HierarchicalName:
    """An immutable dotted name, least-significant label first on the wire."""

    labels: Tuple[str, ...]

    @classmethod
    def parse(cls, text: str) -> "HierarchicalName":
        labels = tuple(_validate_label(l) for l in text.strip().split("."))
        return cls(labels)

    def __str__(self) -> str:
        return ".".join(self.labels)

    @property
    def parent(self) -> Optional["HierarchicalName"]:
        if len(self.labels) <= 1:
            return None
        return HierarchicalName(self.labels[1:])

    def region(self) -> Optional["HierarchicalName"]:
        """The immediate enclosing region (None for a root label)."""
        return self.parent

    def is_within(self, region: "HierarchicalName") -> bool:
        n = len(region.labels)
        return len(self.labels) > n and self.labels[-n:] == region.labels
