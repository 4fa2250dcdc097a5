"""Packet-size distributions.

The paper's §6.2 leans on the measurements of [4] (Cheriton &
Williamson, SIGMETRICS 87): "half the packets are close to minimum
size, one quarter are maximum size and the rest are more or less
uniformly distributed between these two extremes", giving a mean of
roughly 3/8 of the maximum.  :class:`PacketSizeMixture` regenerates
exactly that synthetic population — the documented substitution for the
unavailable V-System traces.
"""

from __future__ import annotations

import random


class PacketSizeMixture:
    """The [4] mixture: ½ at minimum, ¼ at maximum, ¼ uniform between."""

    def __init__(
        self,
        min_size: int = 64,
        max_size: int = 1500,
        p_min: float = 0.5,
        p_max: float = 0.25,
    ) -> None:
        if not 0 < min_size <= max_size:
            raise ValueError("need 0 < min_size <= max_size")
        if p_min < 0 or p_max < 0 or p_min + p_max > 1.0:
            raise ValueError("probabilities must be non-negative and sum <= 1")
        self.min_size = min_size
        self.max_size = max_size
        self.p_min = p_min
        self.p_max = p_max

    def sample(self, rng: random.Random) -> int:
        u = rng.random()
        if u < self.p_min:
            return self.min_size
        if u < self.p_min + self.p_max:
            return self.max_size
        return rng.randint(self.min_size, self.max_size)

    def mean(self) -> float:
        p_mid = 1.0 - self.p_min - self.p_max
        return (
            self.p_min * self.min_size
            + self.p_max * self.max_size
            + p_mid * (self.min_size + self.max_size) / 2.0
        )

    def variance(self) -> float:
        p_mid = 1.0 - self.p_min - self.p_max
        lo, hi = self.min_size, self.max_size
        uniform_second = (hi * (hi + 1) * (2 * hi + 1) - (lo - 1) * lo * (2 * lo - 1)) / (
            6.0 * (hi - lo + 1)
        )
        second = (
            self.p_min * lo * lo
            + self.p_max * hi * hi
            + p_mid * uniform_second
        )
        mean = self.mean()
        return max(0.0, second - mean * mean)

    def squared_cv(self) -> float:
        """Squared coefficient of variation — feeds the M/G/1 model."""
        mean = self.mean()
        return self.variance() / (mean * mean) if mean else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PacketSizeMixture {self.min_size}..{self.max_size} "
            f"mean={self.mean():.0f}>"
        )
