"""Seeded random-number streams.

Every source of randomness in the reproduction draws from a named stream
derived deterministically from one master seed.  Components that evolve
independently (arrival processes, packet sizes, link error injection,
token nonces) get independent streams, so adding randomness to one
component never perturbs another — essential when comparing Sirpent and
the baselines on "the same" workload.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Iterator, Sequence, TypeVar

T = TypeVar("T")


class RngStreams:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0x51A9E47) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it on first use.

        The per-stream seed is a SHA-256 digest of the master seed and the
        name, so stream identity depends only on the name, never on the
        order streams are requested in.
        """
        existing = self._streams.get(name)
        if existing is not None:
            return existing
        digest = hashlib.sha256(
            f"{self.master_seed}:{name}".encode("utf-8")
        ).digest()
        rng = random.Random(int.from_bytes(digest[:8], "big"))
        self._streams[name] = rng
        return rng

    def fork(self, name: str) -> "RngStreams":
        """Derive a child factory whose streams are disjoint from ours."""
        digest = hashlib.sha256(
            f"{self.master_seed}/fork:{name}".encode("utf-8")
        ).digest()
        return RngStreams(int.from_bytes(digest[:8], "big"))


def exponential(rng: random.Random, mean: float) -> float:
    """Exponential variate with the given mean (Poisson interarrivals)."""
    if mean <= 0:
        raise ValueError(f"mean must be positive, got {mean}")
    return rng.expovariate(1.0 / mean)


def pareto_bounded(
    rng: random.Random, alpha: float, low: float, high: float
) -> float:
    """Bounded Pareto variate — used for heavy-tailed burst lengths."""
    if not (0 < low < high):
        raise ValueError("need 0 < low < high")
    u = rng.random()
    la, ha = low ** alpha, high ** alpha
    return (-(u * ha - u * la - ha) / (ha * la)) ** (-1.0 / alpha)


def weighted_choice(
    rng: random.Random, items: Sequence[T], weights: Sequence[float]
) -> T:
    """Pick one item with the given (unnormalized) weights."""
    if len(items) != len(weights):
        raise ValueError("items and weights must have equal length")
    return rng.choices(list(items), weights=list(weights), k=1)[0]


def poisson_times(
    rng: random.Random, rate: float, horizon: float
) -> Iterator[float]:
    """Yield Poisson event times in [0, horizon) at the given rate."""
    t = 0.0
    while True:
        t += rng.expovariate(rate)
        if t >= horizon:
            return
        yield t
