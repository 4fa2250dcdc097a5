"""Unit tests for seeded RNG streams."""

from repro.sim.rng import RngStreams


def test_same_name_same_stream_object():
    streams = RngStreams(7)
    assert streams.stream("a") is streams.stream("a")


def test_streams_are_independent_of_request_order():
    one = RngStreams(7)
    a_first = one.stream("a").random()
    two = RngStreams(7)
    two.stream("b")  # request b first
    a_second = two.stream("a").random()
    assert a_first == a_second


def test_different_names_differ():
    streams = RngStreams(7)
    assert streams.stream("a").random() != streams.stream("b").random()


def test_different_master_seeds_differ():
    assert (
        RngStreams(1).stream("x").random()
        != RngStreams(2).stream("x").random()
    )
