"""Rate-based flow control and selective retransmission (§4.3).

"With VMTP, rate-based flow control is used between packets within a
packet group to avoid overruns, and selective retransmission is
employed when a packet is lost within a packet group."

* :class:`RateController` — the sender's interpacket-gap pacing, with
  multiplicative decrease on network backpressure (the §2.2 rate
  signals reach the source through its host).
* :class:`DeliveryMask` — the packet-group bitmask receivers report so
  senders retransmit exactly the missing members.
"""

from __future__ import annotations

from typing import List


class DeliveryMask:
    """A 32-bit delivery bitmask over packet-group members."""

    MAX_MEMBERS = 32

    def __init__(self, count: int, bits: int = 0) -> None:
        if not 1 <= count <= self.MAX_MEMBERS:
            raise ValueError(
                f"packet group size {count} outside 1..{self.MAX_MEMBERS}"
            )
        self.count = count
        #: The bits of a complete group.
        self.full = (1 << count) - 1
        self.bits = bits & self.full

    def has(self, index: int) -> bool:
        return bool(self.bits & (1 << index))

    @property
    def complete(self) -> bool:
        return self.bits == self.full

    def missing(self) -> List[int]:
        return [i for i in range(self.count) if not self.has(i)]

    def __repr__(self) -> str:
        return f"<DeliveryMask {self.bits:0{self.count}b}>"


#: Backpressure never paces a sender below this rate.
FLOOR_BPS = 64e3
#: Each rate signal multiplies the pacing rate by this.
DECREASE_FACTOR = 0.5
#: :meth:`RateController.maybe_recover` adds this share of the ceiling
#: back once a ``RECOVERY_INTERVAL`` passes quietly.
RECOVERY_FRACTION = 0.1
RECOVERY_INTERVAL = 10e-3


class RateController:
    """Interpacket-gap pacing with backpressure response.

    The gap between successive packets of a group is
    ``packet_bits / rate``.  Rate signals from the network multiply the
    rate down by ``DECREASE_FACTOR`` (never below ``FLOOR_BPS``).

    **Recovery is not wired in**: nothing calls :meth:`maybe_recover`,
    so a backed-off sender stays at its lowered rate.  Wiring it moves
    the simulated ``sim_random_mix`` workload and left two of its seeds
    with failed transactions; the method stays for the change that
    settles that.
    """

    def __init__(self, rate_bps: float) -> None:
        if rate_bps <= 0:
            raise ValueError("rate must be positive")
        self.ceiling_bps = rate_bps
        self.rate_bps = rate_bps
        self._last_decrease = -float("inf")
        self._last_recovery = 0.0
        self.decreases = 0

    def gap_for(self, size_bytes: int) -> float:
        """Seconds to wait after launching a packet of this size."""
        return size_bytes * 8.0 / self.rate_bps

    def on_backpressure(self, now: float, advised_bps: float = 0.0) -> None:
        """Network asked us to slow down (rate signal reached the host)."""
        if now - self._last_decrease < 1e-3:
            return  # one decrease per signal burst
        self._last_decrease = now
        self.decreases += 1
        target = self.rate_bps * DECREASE_FACTOR
        if advised_bps > 0:
            target = min(target, advised_bps)
        self.rate_bps = max(FLOOR_BPS, target)

    def maybe_recover(self, now: float) -> None:
        """Additive increase while the network stays quiet (not called
        yet: see the class docstring)."""
        if now - self._last_recovery < RECOVERY_INTERVAL:
            return
        self._last_recovery = now
        if now - self._last_decrease < RECOVERY_INTERVAL:
            return
        self.rate_bps = min(
            self.ceiling_bps,
            self.rate_bps + self.ceiling_bps * RECOVERY_FRACTION,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<RateController {self.rate_bps:.3g}/{self.ceiling_bps:.3g}bps>"


def split_into_group(total_size: int, max_member: int) -> List[int]:
    """Split a logical packet into group member sizes.

    The last member carries the remainder; all members are non-empty.
    """
    if total_size <= 0:
        raise ValueError("total_size must be positive")
    if max_member <= 0:
        raise ValueError("max_member must be positive")
    full, rest = divmod(total_size, max_member)
    sizes = [max_member] * full
    if rest:
        sizes.append(rest)
    if len(sizes) > DeliveryMask.MAX_MEMBERS:
        raise ValueError(
            f"{total_size} bytes needs {len(sizes)} members; the group "
            f"limit is {DeliveryMask.MAX_MEMBERS} x {max_member}"
        )
    return sizes
