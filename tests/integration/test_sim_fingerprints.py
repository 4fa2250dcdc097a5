"""``sim_random_mix`` pinned to exact values, events included.

The benchmark's one simulated workload, :class:`benchmarks.e2e.simrun.
SimBench`, run for one simulated second at five think-time seeds.  Each
seed's :meth:`~benchmarks.e2e.simrun.SimBench.fingerprint` (completed,
ok, sum of RTT, retries, forwarded, drops) and the engine's
``events_executed`` were recorded from a run of the simulator and are
compared exactly.  Unlike ``test_pinned_behaviour.py``, the event count
is pinned here: the benchmark reports ``sim.events_per_tx`` as an exact
row, so a change that makes the simulator cheaper must do so without
merging, dropping or adding an executed event.

A change that means to move simulated behaviour updates the value it
moves and says why.
"""

from __future__ import annotations

import pytest

from benchmarks.e2e.simrun import SimBench

#: seed -> (fingerprint, events executed) after one simulated second.
PINNED = {
    3901: ((2248, 2248, 13.720432305, 263, 16533, 0), 72576),
    3902: ((2227, 2227, 13.801059028, 250, 16217, 0), 71072),
    3903: ((2252, 2252, 13.629864099, 237, 16285, 0), 71078),
    3904: ((2204, 2204, 13.700915296, 298, 16551, 0), 72711),
    3905: ((2237, 2237, 13.7710301, 233, 16360, 0), 71472),
}


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_one_simulated_second_is_pinned(seed):
    bench = SimBench(seed)
    bench.advance(1.0)
    assert (bench.fingerprint(), bench.scenario.sim.events_executed) == PINNED[seed]
