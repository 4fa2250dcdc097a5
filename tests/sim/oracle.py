"""Reads and single steps of a :class:`Simulator` that only tests take.

The engine runs its heap to a horizon and nothing else; these look at
the heap, or fire one event of it, the way ``Simulator.run`` would.
"""

from heapq import heappop


def pending(sim):
    """Number of scheduled-and-not-cancelled events."""
    return sum(1 for entry in sim._heap if entry[2] is not None)


def peek_time(sim):
    """Time of the next live event, or None when idle."""
    heap = sim._heap
    while heap and heap[0][2] is None:
        heappop(heap)
    return heap[0][0] if heap else None


def step(sim):
    """Fire the next live event alone; False when none is left."""
    if peek_time(sim) is None:
        return False
    entry = heappop(sim._heap)
    sim.now = entry[0]
    sim.events_executed += 1
    fn, args = entry[2], entry[3]
    entry[3] = ()
    fn(*args)
    return True
