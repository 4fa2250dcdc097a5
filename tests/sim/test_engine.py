"""Unit tests for the discrete-event scheduler."""

import pytest

from repro.sim.engine import SimulationError, Simulator
from tests.sim.oracle import peek_time, pending, step


def test_events_fire_in_time_order():
    sim = Simulator()
    fired = []
    sim.at(3.0, fired.append, "c")
    sim.at(1.0, fired.append, "a")
    sim.at(2.0, fired.append, "b")
    sim.run()
    assert fired == ["a", "b", "c"]
    assert sim.now == 3.0


def test_simultaneous_events_fire_in_scheduling_order():
    sim = Simulator()
    fired = []
    for tag in "abcdef":
        sim.at(1.0, fired.append, tag)
    sim.run()
    assert fired == list("abcdef")


def test_after_is_relative_to_now():
    sim = Simulator()
    times = []
    sim.at(5.0, lambda: sim.after(2.5, lambda: times.append(sim.now)))
    sim.run()
    assert times == [7.5]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    handle = sim.at(1.0, fired.append, "x")
    sim.at(2.0, fired.append, "y")
    handle.cancel()
    sim.run()
    assert fired == ["y"]


def test_cancel_is_idempotent():
    sim = Simulator()
    handle = sim.at(1.0, lambda: None)
    handle.cancel()
    handle.cancel()
    sim.run()
    assert sim.events_executed == 0


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, "early")
    sim.at(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advanced to the requested horizon
    sim.run()
    assert fired == ["early", "late"]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.at(5.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.at(1.0, lambda: None)


def test_negative_delay_raises():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.after(-0.1, lambda: None)


def test_events_scheduled_during_execution_run():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.after(1.0, chain, n + 1)

    sim.after(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_peek_time_skips_cancelled():
    sim = Simulator()
    h1 = sim.at(1.0, lambda: None)
    sim.at(2.0, lambda: None)
    h1.cancel()
    assert peek_time(sim) == 2.0


def test_pending_counts_live_events():
    sim = Simulator()
    handles = [sim.at(float(i + 1), lambda: None) for i in range(4)]
    handles[0].cancel()
    assert pending(sim) == 3


def test_step_executes_one_event():
    sim = Simulator()
    fired = []
    sim.at(1.0, fired.append, 1)
    sim.at(2.0, fired.append, 2)
    assert step(sim) is True
    assert fired == [1]
    assert step(sim) is True
    assert step(sim) is False


def test_determinism_across_runs():
    def run_once():
        sim = Simulator()
        order = []
        for i in range(50):
            sim.at((i * 7) % 13 * 0.1, order.append, i)
        sim.run()
        return order

    assert run_once() == run_once()


# -- the contract a rewrite of the engine must keep ---------------------------


def test_same_time_events_keep_scheduling_order_across_at_and_after():
    sim = Simulator()
    fired = []

    def at_two():
        # now == 2.0: absolute and relative scheduling land on the same
        # instant and must interleave exactly as they were issued.
        sim.at(3.0, fired.append, "at-1")
        sim.after(1.0, fired.append, "after-2")
        sim.at(3.0, fired.append, "at-3")
        sim.after(1.0, fired.append, "after-4")

    sim.at(3.0, fired.append, "early-at")
    sim.at(2.0, at_two)
    sim.run()
    assert fired == ["early-at", "at-1", "after-2", "at-3", "after-4"]


def test_cancelled_event_neither_runs_nor_counts():
    sim = Simulator()
    fired = []
    doomed = sim.at(1.0, fired.append, "doomed")
    sim.at(1.0, fired.append, "kept")
    doomed.cancel()
    doomed.cancel()
    sim.run()
    assert fired == ["kept"]
    assert sim.events_executed == 1
    # Cancelling after the fact is as harmless as cancelling twice.
    doomed.cancel()
    sim.run()
    assert sim.events_executed == 1


def test_an_event_can_cancel_a_later_one_at_the_same_instant():
    sim = Simulator()
    fired = []
    handles = {}
    sim.at(1.0, lambda: handles["b"].cancel())
    handles["b"] = sim.at(1.0, fired.append, "b")
    sim.at(1.0, fired.append, "c")
    sim.run()
    assert fired == ["c"]
    assert sim.events_executed == 2


def test_run_until_leaves_the_clock_at_until():
    sim = Simulator()
    sim.run(until=2.0)  # nothing scheduled at all
    assert sim.now == 2.0
    fired = []
    sim.at(3.0, fired.append, "on the horizon")
    sim.at(3.0 + 1e-9, fired.append, "just past it")
    sim.run(until=3.0)
    assert fired == ["on the horizon"]
    assert sim.now == 3.0
    sim.run(until=3.0)  # running to where we already are is a no-op
    assert sim.now == 3.0 and sim.events_executed == 1


def test_misuse_still_raises_mid_run():
    sim = Simulator()
    errors = []

    def misuse():
        for schedule in (
            lambda: sim.at(sim.now - 1e-9, lambda: None),
            lambda: sim.after(-1e-9, lambda: None),
        ):
            try:
                schedule()
            except SimulationError as error:
                errors.append(error)
        # The boundary itself is legal: "now" is not the past.
        sim.at(sim.now, errors.append, "at now")
        sim.after(0.0, errors.append, "after zero")

    sim.at(5.0, misuse)
    sim.run()
    assert len(errors) == 4
    assert isinstance(errors[0], SimulationError)
    assert isinstance(errors[1], SimulationError)
    assert errors[2:] == ["at now", "after zero"]


def test_peek_time_and_pending_skip_cancelled_entries():
    sim = Simulator()
    handles = [sim.at(float(t), lambda: None) for t in (1, 1, 2, 3)]
    assert pending(sim) == 4 and peek_time(sim) == 1.0
    handles[0].cancel()
    assert pending(sim) == 3 and peek_time(sim) == 1.0
    handles[1].cancel()
    handles[2].cancel()
    assert pending(sim) == 1 and peek_time(sim) == 3.0
    handles[3].cancel()
    assert pending(sim) == 0 and peek_time(sim) is None
    assert step(sim) is False
    sim.run()
    assert sim.events_executed == 0 and sim.now == 0.0


def test_fired_and_cancelled_events_let_go_of_their_arguments():
    """A handle kept by its owner (a transmission keeps its delivery
    events, a transport its timers) must not keep the payload alive."""
    import weakref

    class Payload:
        pass

    sim = Simulator()
    fired, cancelled = Payload(), Payload()
    refs = [weakref.ref(fired), weakref.ref(cancelled)]
    kept = [
        sim.at(1.0, lambda payload: None, fired),
        sim.at(50.0, lambda payload: None, cancelled),
    ]
    del fired, cancelled
    kept[1].cancel()
    sim.run(until=2.0)
    assert [ref() for ref in refs] == [None, None]


def test_a_reserved_event_pushed_late_fires_where_at_would_have_put_it():
    sim = Simulator()
    order = []
    sim.at(1.0, order.append, "scheduled before")
    reserved = sim.reserve(1.0, order.append, "reserved")
    sim.at(1.0, order.append, "scheduled after")
    sim.at(0.5, sim.push, reserved)  # pushed well after its number was taken
    sim.run()
    assert order == ["scheduled before", "reserved", "scheduled after"]


def test_a_reserved_event_never_pushed_or_cancelled_never_fires():
    sim = Simulator()
    fired = []
    sim.reserve(1.0, fired.append, "never pushed")
    cancelled = sim.reserve(1.0, fired.append, "cancelled")
    cancelled.cancel()
    sim.push(cancelled)
    sim.run()
    assert fired == [] and sim.events_executed == 0


def test_reserving_or_pushing_into_the_past_raises():
    sim = Simulator()
    late = sim.reserve(1.0, lambda: None)
    sim.run(until=2.0)
    with pytest.raises(SimulationError):
        sim.push(late)
    with pytest.raises(SimulationError):
        sim.reserve(1.5, lambda: None)
