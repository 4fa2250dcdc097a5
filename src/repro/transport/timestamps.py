"""Creation-timestamp enforcement of maximum packet lifetime (§4.2).

"We require that the transport layer include a creation timestamp in
every transport protocol packet and require that the sender and
receiver have roughly synchronized clocks. … The 32-bit timestamp
represents the time in milliseconds since January 1, 1970, modulo
2^32" — wraparound is roughly monthly, and a value of 0 means "invalid,
ignore".

Unlike the IP TTL, no router ever updates the field: the paper's
trade of "slightly more bandwidth … to reduce the processing load at
the routers".  The acceptance rule follows the paper: a receiver with a
low reception rate that has not crashed recently accepts relatively old
packets; a recently booted machine discards packets older than its boot
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

#: The timestamp field is 32 bits of milliseconds.
TIMESTAMP_MODULUS = 1 << 32

#: Reserved "invalid / booting" value.
TIMESTAMP_INVALID = 0


def encode_timestamp_ms(ms: int) -> int:
    """Fold a millisecond count into the 32-bit field (never 0)."""
    value = ms % TIMESTAMP_MODULUS
    return value if value != TIMESTAMP_INVALID else 1


def timestamp_age_ms(stamp: int, now_ms: int) -> int:
    """Modular age of a stamp relative to ``now_ms`` (handles wrap).

    Differences beyond half the modulus are treated as "from the
    future" and reported as 0 age — clock skew, not ancient packets.
    """
    delta = (now_ms - stamp) % TIMESTAMP_MODULUS
    if delta > TIMESTAMP_MODULUS // 2:
        return 0
    return delta


class TimeSource(Protocol):
    """What a :class:`HostClock` reads: the simulator, or the live
    overlay's wall clock — anything with ``now`` in seconds."""

    now: float


class HostClock:
    """A host's real-time clock with configurable skew.

    ``skew_ms`` models imperfect synchronization ("clock
    synchronization need not be more accurate than multiple seconds");
    ``epoch_ms`` anchors simulated time to a wall-clock epoch so the
    32-bit folding is exercised realistically.
    """

    def __init__(
        self,
        sim: TimeSource,
        skew_ms: float = 0.0,
        epoch_ms: int = 600_000_000_000,  # ~1989 in Unix milliseconds
    ) -> None:
        self.sim = sim
        self.skew_ms = skew_ms
        self.epoch_ms = epoch_ms
        self.boot_time_ms = self.now_ms()

    def now_ms(self) -> int:
        return int(self.epoch_ms + self.sim.now * 1000.0 + self.skew_ms)

    def stamp(self) -> int:
        """:func:`encode_timestamp_ms` of :meth:`now_ms`, inline (one a PDU)."""
        value = int(
            self.epoch_ms + self.sim.now * 1000.0 + self.skew_ms
        ) % TIMESTAMP_MODULUS
        return value if value != TIMESTAMP_INVALID else 1

    def reboot(self) -> None:
        """Record a (re)boot — old packets become unacceptable."""
        self.boot_time_ms = self.now_ms()


@dataclass
class TimestampPolicy:
    """Receiver-side acceptance rule for packet creation timestamps."""

    #: Maximum acceptable age for a steadily-running receiver; within
    #: that long of boot, anything older than the boot is rejected too.
    max_age_ms: int = 30_000

    def accept(self, stamp: int, clock: HostClock) -> bool:
        if stamp == TIMESTAMP_INVALID:
            return True  # reserved: "should be ignored" (boot-time queries)
        # clock.now_ms() and timestamp_age_ms, inline (once a PDU).
        now = int(clock.epoch_ms + clock.sim.now * 1000.0 + clock.skew_ms)
        age = (now - stamp) % TIMESTAMP_MODULUS
        if age > TIMESTAMP_MODULUS // 2:
            age = 0
        if age > self.max_age_ms:
            return False
        uptime = now - clock.boot_time_ms
        return not (age > uptime and uptime < self.max_age_ms)
