"""Point-to-point channels with bit-level transmission timing.

A :class:`Channel` is one direction of a link.  Transmitting a packet of
``size`` bytes at rate R with propagation delay P produces three moments
the simulation cares about:

* ``t0 + header/R'`` + P — the switching-relevant prefix has arrived at
  the receiver (``R'`` = R in bits); the receiver's ``on_header`` runs.
  This is what makes cut-through (§2.1) expressible: a Sirpent router can
  act here, a store-and-forward router must wait for the next event.
* ``t0 + size/R'`` — the channel becomes free at the sender.
* ``t0 + size/R' + P`` — the last bit lands; ``on_packet`` runs.

A moment no node acts on is not scheduled: a node class that defines
no ``on_header`` (a host, a baseline) gets no header event, and
a frame's completion is pushed by its header event, under the number
:meth:`~repro.sim.engine.Simulator.reserve` gave it at transmit, only
when the receiver did not cut the frame through there
(:meth:`Transmission.taken_by`).  ``header_at`` is kept either way: a
failure after it still tells the receiver.

Preemption (§2.1, priorities 6-7 of VIPER) aborts an in-flight
transmission: the pending receiver events are cancelled and the receiver
gets ``on_abort`` when the truncated tail arrives.
"""

from __future__ import annotations

import copy
import random
from typing import Any, Callable, Optional, TYPE_CHECKING

from repro.sim.engine import EventHandle, Simulator
from repro.sim.monitor import Counter, UtilizationTracker

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.net.node import Attachment


_NEVER = float("inf")


class ChannelBusyError(Exception):
    """Raised when a transmission is started on a busy channel."""


class Transmission:
    """Book-keeping for one in-flight packet on a channel."""

    __slots__ = (
        "packet", "size", "priority", "on_done", "on_abort", "header_at",
        "header_event", "complete_event", "duplicate_event", "free_event",
        "src_mac", "dst_mac",
    )

    def __init__(
        self, packet: Any, size: int, priority: int,
        on_done: Optional[Callable[[], None]],
        on_abort: Optional[Callable[[Any], None]],
    ) -> None:
        self.packet = packet
        self.size = size
        self.priority = priority
        #: When the receiver has the header; never, for a lost frame.
        self.header_at = _NEVER
        self.header_event: Optional[EventHandle] = None
        self.complete_event: Optional[EventHandle] = None
        #: A chaos duplicate's delivery (:class:`Channel` only).
        self.duplicate_event: Optional[EventHandle] = None
        self.free_event: Optional[EventHandle] = None
        self.on_done = on_done
        self.on_abort = on_abort
        # Frame addressing, set by Ethernet segments (None on p2p wires);
        # receivers use it to build the return hop (§2 header reversal).
        self.src_mac = None
        self.dst_mac = None

    def taken_by(self, receiver: "Attachment") -> None:
        """``receiver`` forwarded the frame from its header (§2.1): the
        frame's completion is no moment for it, so it is let go of
        unpushed."""
        self.complete_event = None


class Channel:
    """One direction of a point-to-point link.

    The channel carries one packet at a time; callers (router output
    ports) queue above it.  ``corruption_rate`` injects random per-packet
    corruption for the misdelivery experiments (§4.1) — Sirpent carries no
    header checksum, so a corrupted packet is *delivered*, bytes damaged
    (the packet's ``corrupted_copy``), and it is the transport layer's
    problem.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        propagation_delay: float,
        mtu: int = 1500,
        name: str = "",
        corruption_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        if propagation_delay < 0:
            raise ValueError("propagation_delay must be non-negative")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.mtu = mtu
        self.name = name
        self.corruption_rate = corruption_rate
        self.rng = rng
        self.dst_attachment: Optional["Attachment"] = None
        self.current: Optional[Transmission] = None
        self.up = True
        #: Chaos seam (:mod:`repro.chaos.seam`): a zero-argument hook
        #: returning a per-packet fault decision (``drop``/``duplicate``/
        #: ``corrupt_seed``/``extra_delay_s``) or None.  Duck-typed so
        #: the net layer stays independent of the chaos package; the
        #: interpreter installs it per directed channel.
        self.chaos: Optional[Callable[[], Any]] = None
        # statistics
        self.packets_sent = Counter(f"{name}.packets")
        self.bytes_sent = Counter(f"{name}.bytes")
        self.packets_aborted = Counter(f"{name}.aborted")
        self.utilization = UtilizationTracker(name=f"{name}.util")

    # -- failure injection -------------------------------------------------

    def fail(self) -> None:
        """Take the channel down.  A frame caught mid-flight is lost —
        silently if its header never arrived; a receiver that has the
        header (and may be cutting it through) gets ``on_abort``."""
        tx = self.current
        if tx is not None:
            self.abort(notify_receiver=tx.header_at <= self.sim.now)
        self.up = False

    def restore(self) -> None:
        self.up = True

    # -- transmission ------------------------------------------------------

    def transmit(  # sirlint: hot
        self,
        packet: Any,
        size: int,
        header_bytes: int,
        priority: int = 0,
        on_done: Optional[Callable[[], None]] = None,
        on_abort: Optional[Callable[[Any], None]] = None,
    ) -> Transmission:
        """Start clocking ``packet`` onto the wire.

        ``header_bytes`` is how much of the packet the receiver needs
        before its ``on_header`` hook runs (the VIPER fixed fields plus
        the variable token/portinfo — the caller computes it).
        ``on_done`` fires at the sender when the channel frees up;
        ``on_abort`` fires at the sender if the transmission is preempted.
        """
        if self.current is not None:
            raise ChannelBusyError(f"channel {self.name} is busy")
        receiver = self.dst_attachment
        if receiver is None:
            raise RuntimeError(f"channel {self.name} has no receiver attached")
        if size <= 0:
            raise ValueError("packet size must be positive")
        if header_bytes > size:
            header_bytes = size

        sim = self.sim
        now = sim.now
        tx = Transmission(packet, size, priority, on_done, on_abort)
        self.current = tx
        self.utilization.busy(now)
        rate = self.rate_bps
        clocked = size * 8.0 / rate

        chaos = self.chaos
        fate = chaos() if chaos is not None else None
        if self.up and (fate is None or not fate.drop):
            extra = fate.extra_delay_s if fate is not None else 0.0
            propagation = self.propagation_delay
            complete_at = now + clocked + propagation + extra
            delivered = packet
            if self.corruption_rate > 0 and self.rng is not None:
                if self.rng.random() < self.corruption_rate:
                    delivered = self._corrupt(packet, self.rng)
            if fate is not None and fate.corrupt_seed is not None:
                delivered = self._corrupt(
                    delivered, random.Random(fate.corrupt_seed)
                )
            tx.header_at = (
                now + header_bytes * 8.0 / rate + propagation + extra
            )
            if receiver.hears_headers:
                # The completion is numbered now and pushed by the
                # header event, unless the receiver took the frame there.
                tx.header_event = sim.at(
                    tx.header_at, self._header, receiver, delivered, tx
                )
                tx.complete_event = sim.reserve(
                    complete_at, receiver.node.on_packet, delivered, receiver, tx
                )
            else:
                tx.complete_event = sim.at(
                    complete_at, receiver.node.on_packet, delivered, receiver, tx
                )
            if fate is not None and fate.duplicate:
                # A duplicated datagram arrives one transmission time
                # behind the original, store-and-forward style.  It must
                # be an independent object: the first traversal mutates
                # its header (strip/reverse/append).
                tx.duplicate_event = sim.at(
                    complete_at + clocked,
                    receiver.node.on_packet, copy.deepcopy(delivered), receiver, tx,
                )
        tx.free_event = sim.at(now + clocked, self._free, tx)
        return tx

    def abort(self, notify_receiver: bool = True) -> None:
        """Preempt the in-flight transmission (§2.1 preemptive priority)."""
        tx = self.current
        if tx is None:
            return
        for event in (
            tx.header_event, tx.complete_event, tx.duplicate_event, tx.free_event,
        ):
            if event is not None:
                event.cancel()
        self.packets_aborted.add()
        receiver = self.dst_attachment
        if notify_receiver and self.up and receiver is not None:
            # The truncated tail reaches the receiver one propagation later.
            self.sim.after(
                self.propagation_delay, receiver.node.on_abort, tx.packet, receiver,
            )
        self.current = None
        self.utilization.idle(self.sim.now)
        if tx.on_abort is not None:
            tx.on_abort(tx.packet)

    # -- internal ----------------------------------------------------------

    @staticmethod
    def _corrupt(packet: Any, rng: random.Random) -> Any:
        """Return a corrupted rendition of the packet if it supports it."""
        corrupt = getattr(packet, "corrupted_copy", None)
        return packet if corrupt is None else corrupt(rng)

    def _header(self, receiver: "Attachment", packet: Any, tx: Transmission) -> None:
        """The header event: the receiving node's ``on_header``, then the
        frame's completion, if the node did not take the frame there."""
        receiver.node.on_header(packet, receiver, tx)
        if tx.complete_event is not None:
            self.sim.push(tx.complete_event)

    def _free(self, tx: Transmission) -> None:
        self.packets_sent.add()
        self.bytes_sent.add(tx.size)
        self.current = None
        self.utilization.idle(self.sim.now)
        if tx.on_done is not None:
            tx.on_done()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "busy" if self.current is not None else "idle"
        return f"<Channel {self.name!r} {self.rate_bps:.3g}bps {state}>"


class Link:
    """A full-duplex point-to-point link: two independent channels.

    ``a_to_b`` and ``b_to_a`` are wired to node attachments by
    :class:`repro.net.topology.Topology`.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        propagation_delay: float,
        mtu: int = 1500,
        name: str = "",
        corruption_rate: float = 0.0,
        rng: Optional[random.Random] = None,
    ) -> None:
        self.name = name
        self.a_to_b = Channel(
            sim, rate_bps, propagation_delay, mtu,
            name=f"{name}:a>b", corruption_rate=corruption_rate, rng=rng,
        )
        self.b_to_a = Channel(
            sim, rate_bps, propagation_delay, mtu,
            name=f"{name}:b>a", corruption_rate=corruption_rate, rng=rng,
        )

    def fail(self) -> None:
        """Fail both directions (the E6 failure-recovery experiments)."""
        self.a_to_b.fail()
        self.b_to_a.fail()

    def restore(self) -> None:
        self.a_to_b.restore()
        self.b_to_a.restore()

    @property
    def up(self) -> bool:
        return self.a_to_b.up and self.b_to_a.up

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Link {self.name!r} {self.rate_bps:.3g}bps up={self.up}>"
