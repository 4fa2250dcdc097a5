"""Steady numbers from an unsteady machine.

On the shared 2-core sandboxes this benchmark runs in, the machine
changes speed under the program: noisy neighbours make the same code
take 1x-1.8x its best time, the shift lasts minutes to hours, and a
ten-second median of tx/s moves 5-25 % between identical runs (40 %
between a quiet hour and a noisy one).  Averaging longer does not help;
measuring the machine does.

The window is therefore cut into short *slices* (a fixed number of
transactions each) and a fixed calibration loop (:class:`Calibration`)
is timed between slices.  Time spent computing is then reported at one
fixed machine speed, :data:`REFERENCE_S`: a slice's value is multiplied
by ``reference / calibration time`` and the run reports the median
(:func:`at_reference_speed`).  Time spent *waiting* - for a 50 ms
retransmit timer, say - does not follow machine speed and must not be
rescaled; every workload keeps its loop busy so that there is none in a
slice's wall time, and the one timer that shows in a transaction time
(``live_lossy``'s 90th percentile) is added back as measured by
``runner.timing_metrics``.  Raw medians are printed next to the
estimates.

The calibration loop does the kind of work the workloads do - small
objects, dict traffic, struct packing, memoryview copies, and datagrams
through a loopback UDP socket pair.  That matters: a tight arithmetic
loop explained 22-36 % of the run-to-run variance of the workloads'
cost and made normalised numbers *worse* than raw ones (16 % spread
against 9-13 %), the loopback-and-objects loop explains 60-75 % and
halves the spread (measured over 10-12 runs each of
``live_small_pipelined``, ``live_small_seq`` and ``sim_random_mix``).
A fitted exponent per metric was tried in place of plain proportion and
dropped: the fit is attenuated by the calibration's own sampling noise
and made every CPU-bound row less steady, not more.
"""

from __future__ import annotations

import math
import resource
import socket
import statistics
import struct
import time
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

#: The machine speed every timing is reported at, as the calibration
#: loop's duration: its value on the 2-core sandbox (Xeon @ 2.1 GHz)
#: when nothing else contends for the core.  A constant, so that two
#: commits, two checkouts and two noise regimes are read at one speed.
REFERENCE_S = 0.50e-3

#: Calibration times are averaged over this many slices either side:
#: the machine changes speed over seconds, one sub-millisecond sample
#: is noisy.
_SMOOTH = 2

_HEADER = struct.Struct(">BBIIBBBB")


class _Record:
    __slots__ = ("index", "payload", "path")

    def __init__(self, index: int, payload: bytes, path: List[int]) -> None:
        self.index = index
        self.payload = payload
        self.path = path

    def file_under(self, table: dict, key: Tuple[int, int]) -> int:
        table[key] = self
        return self.index + len(self.payload)


class Calibration:
    """The fixed loop whose duration measures the machine.

    Owns a loopback UDP socket pair; call the instance to run the loop
    once (about 0.6 ms), :meth:`close` when done.
    """

    OBJECT_ROUNDS = 130
    DATAGRAMS = 160

    def __init__(self) -> None:
        self._tx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._rx = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._rx.bind(("127.0.0.1", 0))
        self._rx.settimeout(1.0)  # a lost datagram must fail, not hang
        self._peer = self._rx.getsockname()
        self._scratch = bytearray(1 << 20)
        self._inbox = bytearray(2048)

    def close(self) -> None:
        self._tx.close()
        self._rx.close()

    def __call__(self) -> Tuple[float, float]:
        """Run the loop; returns its (wall, cpu) seconds."""
        wall = time.perf_counter()
        cpu = time.process_time()
        scratch = self._scratch
        view = memoryview(scratch)
        table: dict = {}
        acc = 0
        for i in range(self.OBJECT_ROUNDS):
            payload = _HEADER.pack(1, 0, i, i * 7, 1, 2, 3, 0) + b"x" * 64
            offset = (i * 4099) % (len(scratch) - 200)
            view[offset:offset + len(payload)] = payload
            record = _Record(i, payload, [i, i + 1])
            acc += record.file_under(table, (i, offset))
            acc += _HEADER.unpack_from(scratch, offset)[3]
            if len(table) > 64:
                table.pop(next(iter(table)))
        send, receive = self._tx.sendto, self._rx.recv_into
        peer, inbox, datagram = self._peer, self._inbox, b"y" * 120
        for _ in range(self.DATAGRAMS):
            send(datagram, peer)
            receive(inbox)
        return time.perf_counter() - wall, time.process_time() - cpu


def peak_rss_mb() -> float:
    """This process's high-water resident set, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


@dataclass
class Slice:
    """One measured slice: ``tx`` verified transactions."""

    tx: int
    wall_s: float
    cpu_s: float
    #: Calibration loop (wall, cpu) seconds: mean of the runs just
    #: before and just after the slice.
    calibration_wall_s: float
    calibration_cpu_s: float
    rtts_s: List[float] = field(default_factory=list)
    #: Work counter for substrates that have one (sim: events executed).
    events: int = 0

    @classmethod
    def between(
        cls, before: Tuple[float, float], after: Tuple[float, float], **measured
    ) -> "Slice":
        """A slice measured between two runs of the calibration loop."""
        return cls(
            calibration_wall_s=(before[0] + after[0]) / 2,
            calibration_cpu_s=(before[1] + after[1]) / 2,
            **measured,
        )


def quantile(ordered: Sequence[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted sample."""
    if not ordered:
        raise ValueError("quantile of an empty sample")
    index = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[index]


def at_reference_speed(
    calibrations: Sequence[float],
    values: Sequence[float],
    keep: Optional[Sequence[bool]] = None,
    reference: float = REFERENCE_S,
) -> float:
    """The median of ``values`` had the machine run at the reference speed.

    ``calibrations[i]`` is the calibration time around slice ``i``
    (smoothed over its neighbours); each value is rescaled in proportion
    before the median is taken, over the slices ``keep`` marks if given.
    """
    if len(calibrations) != len(values) or not values:
        raise ValueError("need one calibration time per value")
    return statistics.median(
        value * reference / statistics.fmean(
            calibrations[max(0, i - _SMOOTH):i + _SMOOTH + 1]
        )
        for i, value in enumerate(values)
        if keep is None or keep[i]
    )


def quiet_half(slices: Sequence[Slice]) -> List[bool]:
    """Marks the slices in which the process got the most of its core.

    A slice's CPU share (CPU seconds / wall seconds) falls when the host
    runs something else on the core; what that does to a transaction
    time - above all to a 90th percentile - is the neighbours' doing,
    not the program's, and one calibration sample per slice cannot see
    it.  The half of the slices with the lower share is left out of the
    timings: on ``live_small_seq`` the ratio of p90 to p50 ran from 1.2
    (share 1.00) to 1.9 (share 0.89) between identical runs, and between
    two sets of ten the p90 moved 13 % with every slice against 4 % with
    the quiet half."""
    share = [s.cpu_s / s.wall_s for s in slices]
    middle = statistics.median(share)
    return [x >= middle for x in share]
