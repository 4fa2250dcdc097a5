"""Discrete-event simulation substrate for the Sirpent reproduction.

This package provides the timing machinery every other subsystem is built
on: a deterministic event scheduler (:mod:`repro.sim.engine`), seeded
random-number streams (:mod:`repro.sim.rng`) and statistics monitors
(:mod:`repro.sim.monitor`).

The engine is deliberately minimal — a binary heap of timestamped
callbacks with deterministic tie-breaking — because the Sirpent paper's
claims are about *timing* (cut-through versus store-and-forward delay,
queueing, backpressure reaction time), and a small engine is easy to trust.
"""

from repro.sim.engine import EventHandle, Simulator
from repro.sim.monitor import Counter, Gauge, Histogram, TimeWeighted
from repro.sim.rng import RngStreams

__all__ = [
    "Counter",
    "EventHandle",
    "Gauge",
    "Histogram",
    "RngStreams",
    "Simulator",
    "TimeWeighted",
]
