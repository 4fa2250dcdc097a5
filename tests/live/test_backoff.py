"""Per-hop retry backoff, jitter and the sliding retry budget.

These exercise :class:`repro.live.link.LiveEndpoint`'s backoff
machinery without sockets (the gap generator and budget are pure), plus
one socketed regression proving the jittered schedule actually governs
real retransmissions.
"""

import asyncio

import pytest

from repro.live.frames import PREAMBLE_BYTES
from repro.live.link import (
    BACKOFF_FACTOR,
    BACKOFF_MAX_S,
    LiveEndpoint,
    ReliabilityConfig,
    RetryBudget,
    corrupt_datagram,
)


def gaps_from(endpoint: LiveEndpoint, n: int = 12):
    """The retry-gap schedule the endpoint would walk for one frame."""
    gap = endpoint.reliability.ack_timeout_s
    out = []
    for _ in range(n):
        gap = endpoint._next_gap(gap)
        out.append(gap)
    return out


def test_retry_gaps_strictly_increase_and_never_repeat():
    """The acceptance assertion: backoff grows monotonically and jitter
    makes no two consecutive growth factors identical."""
    endpoint = LiveEndpoint("jitter-probe")
    gaps = gaps_from(endpoint, n=8)
    capped = [g for g in gaps if g < BACKOFF_MAX_S]
    assert len(capped) >= 3
    # Strictly increasing until the cap.
    for earlier, later in zip(capped, capped[1:]):
        assert later > earlier
    # Non-identical: the growth factor is jittered, so the ratio
    # between consecutive gaps varies.
    ratios = [round(b / a, 12) for a, b in zip(capped, capped[1:])]
    assert len(set(ratios)) == len(ratios)
    for ratio in ratios:
        assert 1.0 + (BACKOFF_FACTOR - 1.0) / 2.0 <= ratio <= BACKOFF_FACTOR


def test_retry_gaps_capped_at_backoff_max():
    endpoint = LiveEndpoint("cap-probe")
    gaps = gaps_from(endpoint, n=20)
    assert gaps[-1] == BACKOFF_MAX_S
    assert all(g <= BACKOFF_MAX_S for g in gaps)


def test_two_endpoints_walk_different_jitter_schedules():
    """Desynchronization is the point: endpoints must not share a
    retry schedule even when their frames die at the same instant."""
    assert gaps_from(LiveEndpoint("left")) != gaps_from(LiveEndpoint("right"))


def test_endpoint_jitter_schedule_is_name_stable():
    """Stable per name: a restarted endpoint replays its own schedule
    (determinism for chaos replay), yet differs from every peer."""
    assert gaps_from(LiveEndpoint("same")) == gaps_from(LiveEndpoint("same"))


# -- retry budget ------------------------------------------------------------


def test_retry_budget_floor_then_exhaustion():
    budget = RetryBudget(window_s=1.0, floor=3, ratio=0.0)
    now = 100.0
    for _ in range(3):
        assert budget.allow(now)
        budget.note_retry(now)
    assert not budget.allow(now)
    assert budget.exhaustions == 1


def test_retry_budget_scales_with_send_volume():
    budget = RetryBudget(window_s=1.0, floor=0, ratio=1.0)
    now = 50.0
    assert not budget.allow(now)  # no sends: zero budget
    budget.note_send(now)
    budget.note_send(now)
    assert budget.allow(now)
    budget.note_retry(now)
    budget.note_retry(now)
    assert not budget.allow(now)


def test_retry_budget_window_slides():
    budget = RetryBudget(window_s=1.0, floor=1, ratio=0.0)
    budget.note_retry(0.0)
    assert not budget.allow(0.5)  # still inside the window
    assert budget.allow(1.5)  # the old retry aged out


# -- chaos corruption helper -------------------------------------------------


def test_corrupt_datagram_preserves_preamble_and_is_deterministic():
    datagram = bytes(range(PREAMBLE_BYTES)) + b"payload-body-bytes"
    mangled = corrupt_datagram(datagram, seed=0xDEADBEEF)
    assert mangled != datagram
    assert len(mangled) == len(datagram)
    assert mangled[:PREAMBLE_BYTES] == datagram[:PREAMBLE_BYTES]
    assert corrupt_datagram(datagram, seed=0xDEADBEEF) == mangled
    runt = datagram[:PREAMBLE_BYTES]
    assert corrupt_datagram(runt, seed=1) == runt


# -- socketed regression -----------------------------------------------------


@pytest.mark.live
def test_real_retransmissions_follow_the_jittered_schedule():
    """Send reliably into a black hole and observe the actual retry
    gaps reported by ``on_retry``: strictly increasing, non-identical."""

    async def scenario():
        sender = LiveEndpoint(
            "storm-probe",
            reliability=ReliabilityConfig(
                ack_timeout_s=0.02, max_retries=3,
            ),
        )
        observed = []
        sender.on_retry = lambda addr, seq, gap: observed.append(gap)
        await sender.open()
        # A bound-but-silent peer: frames vanish, acks never come.
        silent = LiveEndpoint("silent")
        silent.on_batch = lambda batch: [
            view.release() for view, _addr, _preamble in batch
        ]
        silent.fault_hook = None
        addr = await silent.open()
        silent.close()  # closed socket = black hole
        sender.send(b"x" * 64, addr, reliable=True)
        for _ in range(400):
            if len(observed) >= 3:
                break
            await asyncio.sleep(0.005)
        sender.close()
        return observed

    gaps = asyncio.run(scenario())
    assert len(gaps) >= 3
    for earlier, later in zip(gaps, gaps[1:]):
        assert later > earlier
    assert len(set(gaps)) == len(gaps)
