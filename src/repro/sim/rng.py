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
from typing import Dict


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
