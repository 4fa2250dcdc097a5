"""Arrival processes driving the benchmarks.

Each process repeatedly calls a user ``emit(size_bytes)`` callback at
simulated times.
"""

from __future__ import annotations

import random
from typing import Callable, Optional

from repro.sim.engine import Simulator
from repro.workloads.sizes import PacketSizeMixture


class PoissonArrivals:
    """Poisson packet arrivals with i.i.d. sizes."""

    def __init__(
        self,
        sim: Simulator,
        rate_pps: float,
        emit: Callable[[int], None],
        rng: random.Random,
        sizes: Optional[PacketSizeMixture] = None,
        fixed_size: Optional[int] = None,
        stop_at: Optional[float] = None,
    ) -> None:
        if rate_pps <= 0:
            raise ValueError("rate must be positive")
        if sizes is None and fixed_size is None:
            raise ValueError("provide a size mixture or a fixed size")
        self.sim = sim
        self.rate_pps = rate_pps
        self.emit = emit
        self.rng = rng
        self.sizes = sizes
        self.fixed_size = fixed_size
        self.stop_at = stop_at
        sim.after(rng.expovariate(rate_pps), self._tick)

    def _next_size(self) -> int:
        if self.fixed_size is not None:
            return self.fixed_size
        assert self.sizes is not None
        return self.sizes.sample(self.rng)

    def _tick(self) -> None:
        if self.stop_at is not None and self.sim.now >= self.stop_at:
            return
        self.emit(self._next_size())
        self.sim.after(self.rng.expovariate(self.rate_pps), self._tick)
