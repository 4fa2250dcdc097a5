"""Shared multi-access (Ethernet-like) segment.

The paper's running example routes Sirpent packets between Ethernets via
routers, with the VIPER ``portInfo`` carrying the next recipient's MAC.
We model the segment as an idealized shared medium: one frame at a time,
deterministic FIFO arbitration among contending stations (no collisions
— at the level the paper evaluates, collision backoff is noise).

Timing mirrors :class:`repro.net.link.Channel`: receivers get a header
event followed by a completion event, so cut-through routers attached to
an Ethernet behave just as they do on point-to-point wires — and, as
there, a moment no station acts on is not scheduled or not dispatched.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.net.addresses import MacAddress
from repro.net.link import Transmission
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, UtilizationTracker


class _PendingFrame(Transmission):
    """A frame waiting for, or occupying, the shared medium — the very
    ``Transmission`` its receivers are handed."""

    __slots__ = ("src", "header_bytes", "takers")

    def __init__(
        self, src: Any, dst_mac: MacAddress, packet: Any, size: int,
        header_bytes: int, priority: int,
        on_done: Optional[Callable[[], None]],
        on_abort: Optional[Callable[[Any], None]],
    ) -> None:
        super().__init__(packet, size, priority, on_done, on_abort)
        self.src = src
        self.header_bytes = header_bytes
        self.src_mac = src.mac
        self.dst_mac = dst_mac
        #: Stations that took the frame at its header: the completion
        #: skips them (and reaches the other stations of a broadcast; it
        #: is not pushed when no station is left).
        self.takers: Tuple[Any, ...] = ()

    def taken_by(self, receiver: Any) -> None:
        self.takers += (receiver,)


class EthernetSegment:
    """A broadcast segment connecting any number of attachments."""

    #: The standard Ethernet MTU, which VIPER adopts as its transmission
    #: unit (§5: "The VIPER transmission unit is 1500 bytes").
    DEFAULT_MTU = 1500

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float = 10e6,
        propagation_delay: float = 5e-6,
        mtu: int = DEFAULT_MTU,
        name: str = "",
    ) -> None:
        if rate_bps <= 0:
            raise ValueError("rate_bps must be positive")
        self.sim = sim
        self.rate_bps = rate_bps
        self.propagation_delay = propagation_delay
        self.mtu = mtu
        self.name = name
        self.up = True
        self._stations: Dict[MacAddress, Any] = {}
        self._current: Optional[_PendingFrame] = None
        self._backlog: List[_PendingFrame] = []
        self.frames_sent = Counter(f"{name}.frames")
        self.bytes_sent = Counter(f"{name}.bytes")
        self.utilization = UtilizationTracker(name=f"{name}.util")

    # -- membership --------------------------------------------------------

    def register(self, attachment: Any) -> None:
        """Add a station (an EthernetAttachment) to the segment."""
        mac = attachment.mac
        if mac in self._stations:
            raise ValueError(f"{self.name}: MAC {mac} already registered")
        self._stations[mac] = attachment

    def stations(self) -> List[Any]:
        return list(self._stations.values())

    def station_node_name(self, mac: MacAddress) -> Optional[str]:
        """Name of the node owning ``mac``, or None if unknown."""
        station = self._stations.get(mac)
        return station.node.name if station is not None else None

    def current_packet_of(self, requester: Any) -> Optional[Any]:
        """The packet ``requester`` is currently clocking onto the medium."""
        if self._current is not None and self._current.src is requester:
            return self._current.packet
        return None

    # -- failure injection --------------------------------------------------

    def fail(self) -> None:
        """Take the segment down; stations that already hold the header
        of the frame cut short get ``on_abort`` (see ``Channel.fail``)."""
        self.up = False
        frame = self._current
        if frame is not None:
            self._cancel_current(notify=frame.header_at <= self.sim.now)
        backlog, self._backlog = self._backlog, []
        for frame in backlog:
            self._abort_sender(frame)

    def restore(self) -> None:
        self.up = True

    # -- medium ------------------------------------------------------------

    @property
    def busy(self) -> bool:
        return self._current is not None or bool(self._backlog)

    def transmit(
        self,
        src: Any,
        dst_mac: MacAddress,
        packet: Any,
        size: int,
        header_bytes: int,
        priority: int = 0,
        on_done: Optional[Callable[[], None]] = None,
        on_abort: Optional[Callable[[Any], None]] = None,
    ) -> None:
        """Queue a frame; it starts when the medium frees up (FIFO)."""
        frame = _PendingFrame(
            src, dst_mac, packet, size, header_bytes, priority, on_done, on_abort
        )
        if not self.up:
            self._abort_sender(frame)  # a frame into a dead segment vanishes
        elif self._current is None:
            self._start(frame)
        else:
            self._backlog.append(frame)

    def abort_current(self, requester: Any) -> None:
        """Preempt the in-flight frame (only its sender may request it)."""
        if self._current is not None and self._current.src is requester:
            self._cancel_current(notify=True)
            self._start_next()

    def current_priority(self, requester: Any) -> Optional[int]:
        if self._current is not None and self._current.src is requester:
            return self._current.priority
        return None

    # -- internal ------------------------------------------------------------

    def _start(self, frame: _PendingFrame) -> None:
        self._current = frame
        now = self.sim.now
        self.utilization.busy(now)
        clocked = frame.size * 8.0 / self.rate_bps
        frame.header_at = (
            now + min(frame.header_bytes, frame.size) * 8.0 / self.rate_bps
            + self.propagation_delay
        )
        complete_at = now + clocked + self.propagation_delay
        if any(station.hears_headers for station in self._receivers(frame)):
            # As on a channel: the header event pushes the completion,
            # unless every receiver took the frame there.
            frame.header_event = self.sim.at(
                frame.header_at, self._deliver_header, frame
            )
            frame.complete_event = self.sim.reserve(
                complete_at, self._deliver_complete, frame
            )
        else:
            frame.complete_event = self.sim.at(
                complete_at, self._deliver_complete, frame
            )
        frame.free_event = self.sim.at(now + clocked, self._free, frame)

    def _receivers(self, frame: _PendingFrame) -> List[Any]:
        if frame.dst_mac.is_broadcast:
            return [s for s in self._stations.values() if s is not frame.src]
        station = self._stations.get(frame.dst_mac)
        return [station] if station is not None else []

    def _deliver_header(self, frame: _PendingFrame) -> None:
        receivers = self._receivers(frame)
        for station in receivers:
            if station.hears_headers:
                station.node.on_header(frame.packet, station, frame)
        if any(station not in frame.takers for station in receivers):
            self.sim.push(frame.complete_event)

    def _deliver_complete(self, frame: _PendingFrame) -> None:
        for station in self._receivers(frame):
            if station not in frame.takers:
                station.node.on_packet(frame.packet, station, frame)

    def _free(self, frame: _PendingFrame) -> None:
        self.frames_sent.add()
        self.bytes_sent.add(frame.size)
        self._current = None
        self.utilization.idle(self.sim.now)
        if frame.on_done is not None:
            frame.on_done()
        self._start_next()

    def _start_next(self) -> None:
        if self._current is None and self._backlog:
            self._start(self._backlog.pop(0))

    def _cancel_current(self, notify: bool) -> None:
        frame = self._current
        for event in (frame.header_event, frame.complete_event, frame.free_event):
            if event is not None:
                event.cancel()
        self._current = None
        self.utilization.idle(self.sim.now)
        if notify:
            for station in self._receivers(frame):
                self.sim.after(
                    self.propagation_delay, station.node.on_abort, frame.packet, station
                )
        self._abort_sender(frame)

    @staticmethod
    def _abort_sender(frame: _PendingFrame) -> None:
        """Tell the sender its frame will not complete — whether or not
        any receiver hears of it, as ``Channel.abort`` does."""
        if frame.on_abort is not None:
            frame.on_abort(frame.packet)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<EthernetSegment {self.name!r} {self.rate_bps:.3g}bps "
            f"stations={len(self._stations)}>"
        )
