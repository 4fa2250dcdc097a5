"""The VMTP transport on the simulator (§4, §5 context).

:class:`VmtpTransport` is one host's transport in the simulator: the
sans-IO :class:`~repro.transport.machine.TransactionMachine`, which
holds all of §4 (transactions, packet groups with rate pacing and
selective retransmission, misdelivery and lifetime checks, route
rebinding), clocked by the simulator and sending through a
:class:`~repro.core.host.SirpentHost`, whose host core opens every
frame and writes every reply's route, as the live host's does.  A PDU
is a :class:`~repro.transport.machine.VmtpPdu` object riding beside the
frame as its payload; its wire size is modelled as ``header_bytes`` +
member + ``trailer_bytes``.  The live overlay runs the same machine
(:class:`repro.live.host.LiveTransactor`), its PDUs the frame's bytes.
"""

from __future__ import annotations

from typing import Any, Callable, List, Optional

from repro.core.congestion import RateSignal
from repro.core.host import DeliveredPacket, SirpentHost
from repro.sim.engine import Simulator
from repro.transport.ids import EntityId, EntityIdAllocator
from repro.transport.machine import (
    MAX_FRUITLESS_NAKS,
    Handler,
    PduKind,
    ReceivedMessage,
    TransactionMachine,
    TransactionResult,
    TransportConfig,
    VmtpPdu,
)
from repro.transport.rebind import RouteManager
from repro.transport.stats import TransportStats
from repro.transport.timestamps import HostClock

__all__ = [
    "MAX_FRUITLESS_NAKS",
    "Handler",
    "PduKind",
    "ReceivedMessage",
    "TransactionResult",
    "TransportConfig",
    "TransportStats",
    "VmtpPdu",
    "VmtpTransport",
]


class VmtpTransport:
    """One host's VMTP instance on the simulator: the transaction
    machine, clocked by ``sim`` and sending through ``host``."""

    def __init__(
        self,
        sim: Simulator,
        host: SirpentHost,
        config: Optional[TransportConfig] = None,
        clock: Optional[HostClock] = None,
        allocator: Optional[EntityIdAllocator] = None,
    ) -> None:
        self.sim = sim
        self.host = host
        self.config = config if config is not None else TransportConfig()
        self.clock = clock if clock is not None else HostClock(sim)
        self.allocator = (
            allocator if allocator is not None else EntityIdAllocator(host.name)
        )
        self.stats = TransportStats()
        #: The machine's timers are the simulator's events.
        self.after = sim.after
        self.machine = TransactionMachine(
            self, self.config, self.clock, self.allocator, self.stats,
        )
        self.rate = self.machine.rate
        host.bind(self.config.socket, self._on_delivered)
        host.subscribe_rate_signals(self._on_rate_signal)

    # -- entities and transactions ------------------------------------------

    def create_entity(self, handler: Optional[Handler] = None, hint: str = "") -> EntityId:
        """Register a transport endpoint; with a handler it is a server."""
        return self.machine.create_entity(handler, hint or self.host.name)

    def adopt_entity(self, entity: EntityId, handler: Optional[Handler]) -> None:
        """Take over an entity that migrated from another host (§4.1).

        "The network-independent addressing in VMTP is used to support
        process migration, multi-homed hosts and mobile hosts" — the
        64-bit id names the *entity*, not an attachment, so it moves
        intact.  Clients keep the id and merely need fresh routes.
        """
        self.machine.adopt_entity(entity, handler)

    def drop_entity(self, entity: EntityId) -> None:
        """Release a local entity (it migrated away or terminated)."""
        self.machine.drop_entity(entity)

    def transact(
        self,
        manager: RouteManager,
        dst_entity: EntityId,
        payload: Any,
        size: int,
        on_complete: Callable[[TransactionResult], None],
        priority: int = 0,
    ) -> int:
        """Issue a request transaction; the callback gets the result."""
        return self.machine.transact(
            manager, dst_entity, payload, size, on_complete, priority,
        )

    # -- the machine's IO -----------------------------------------------------

    @property
    def now(self) -> float:
        return self.sim.now

    def send(self, route: Any, pdu: VmtpPdu, wire_size: int, priority: int) -> None:
        self.host.send(route, pdu, wire_size, priority=priority)

    def send_return(
        self, delivered: DeliveredPacket, pdu: VmtpPdu, wire_size: int
    ) -> None:
        self.host.send_return(
            delivered, pdu, wire_size, reply_socket=pdu.reply_socket,
        )

    @staticmethod
    def join(parts: List[Any]) -> Any:
        """Every member carries the whole modelled payload object."""
        return parts[0]

    def discard(self, reason: str) -> None:
        """The stats count every discard the simulator's tables read."""

    def record(self, event: str, **fields: Any) -> None:
        """The simulator's transport keeps no flight recorder."""

    # -- host callbacks --------------------------------------------------------

    def _on_delivered(self, delivered: DeliveredPacket) -> None:
        pdu = delivered.payload
        if isinstance(pdu, VmtpPdu):
            self.machine.on_pdu(
                pdu, delivered, delivered.corrupted, delivered.truncated,
            )

    def _on_rate_signal(self, signal: RateSignal) -> None:
        self.machine.on_rate_signal(signal.advised_rate_bps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VmtpTransport {self.host.name!r} "
            f"ok={self.stats.transactions_ok.count}>"
        )
