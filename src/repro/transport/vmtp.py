"""The VMTP transport on the simulator (§4, §5 context).

:class:`VmtpTransport` is one host's transport in the simulator: the
sans-IO :class:`~repro.transport.machine.TransactionMachine`, which
holds all of §4 (transactions, packet groups with rate pacing and
selective retransmission, misdelivery and lifetime checks, route
rebinding), clocked by the simulator and sending through a
:class:`~repro.core.host.SirpentHost`.  Its IO is the live overlay's
(:class:`~repro.transport.transactor.TransactorIO`): each PDU is the
codec's bytes (:mod:`repro.transport.codec`) in the frame's payload
region, and every arrived one is checked — CRC-32, entity ids, age —
before the machine reads it.  This adapter adds the simulated clock and
the network's rate signals.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.congestion import RateSignal
from repro.core.host import SirpentHost
from repro.sim.engine import Simulator
from repro.transport.ids import EntityId, EntityIdAllocator
from repro.transport.machine import (
    MAX_FRUITLESS_NAKS,
    TransactionResult,
    TransportConfig,
)
from repro.transport.rebind import RouteManager
from repro.transport.timestamps import HostClock
from repro.transport.transactor import TransactorIO

__all__ = [
    "MAX_FRUITLESS_NAKS",
    "TransactionResult",
    "TransportConfig",
    "VmtpTransport",
]


class VmtpTransport(TransactorIO):
    """One host's VMTP instance on the simulator: the transaction
    machine, clocked by ``sim`` and sending through ``host``; a PDU it
    discards is counted in :attr:`drops` by reason."""

    def __init__(
        self,
        sim: Simulator,
        host: SirpentHost,
        config: Optional[TransportConfig] = None,
        clock: Optional[HostClock] = None,
        allocator: Optional[EntityIdAllocator] = None,
    ) -> None:
        self.sim = sim
        #: The machine's timers are the simulator's events.
        self.after = sim.after
        super().__init__(
            host,
            config if config is not None else TransportConfig(),
            clock if clock is not None else HostClock(sim),
            allocator if allocator is not None else EntityIdAllocator(host.name),
            {},
        )
        self.rate = self.machine.rate
        host.subscribe_rate_signals(self._on_rate_signal)

    def transact(
        self,
        manager: RouteManager,
        dst_entity: EntityId,
        payload: bytes,
        size: int,
        on_complete: Callable[[TransactionResult], None],
        priority: int = 0,
    ) -> int:
        """Issue a request transaction of ``size`` bytes, ``payload`` at
        their head; the callback gets the result."""
        return self.machine.transact(
            manager, dst_entity, payload, size, on_complete, priority,
        )

    @property
    def now(self) -> float:
        return self.sim.now

    def _on_rate_signal(self, signal: RateSignal) -> None:
        self.machine.on_rate_signal(signal.advised_rate_bps)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VmtpTransport {self.host.name!r} "
            f"ok={self.stats.transactions_ok.count}>"
        )
