"""The transaction machine's IO, once for both substrates.

A PDU is the codec's bytes on the simulator and on the live overlay
alike, so everything a
:class:`~repro.transport.machine.TransactionMachine` asks of its
adapter but the clock is the same code: :class:`TransactorIO` encodes
each PDU and sends it through its host, joins a group's members,
counts discards by reason, records retries and route switches in the
host's flight recorder, and opens every PDU its socket is handed.  The
substrates' adapters (:class:`~repro.transport.vmtp.VmtpTransport`,
:class:`~repro.live.host.LiveTransactor`) add the clock and its timers.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.transport.codec import VmtpPdu, encode_pdu, open_pdu
from repro.transport.ids import EntityId, EntityIdAllocator
from repro.transport.machine import Handler, TransactionMachine, TransportConfig
from repro.transport.stats import TransportStats
from repro.transport.timestamps import HostClock


class TransactorIO:
    """One host's transaction machine and its IO through ``host`` (a
    :class:`~repro.core.host.SirpentHost` or a
    :class:`~repro.live.host.LiveHost`).  A discarded PDU is counted in
    ``drops`` under its reason: the machine's (``truncated``,
    ``checksum``, ``misdelivered``, ``too_old``, ``bad_group``,
    ``no_handler``, ``duplicate_member``, ``stale_pdu``) or the codec's
    (``short_pdu``, ``unknown_pdu``, ``malformed_nak``)."""

    def __init__(
        self,
        host: Any,
        config: TransportConfig,
        clock: HostClock,
        allocator: EntityIdAllocator,
        drops: Dict[str, int],
    ) -> None:
        self.host = host
        self.config = config
        self.clock = clock
        self.drops = drops
        self.stats = TransportStats()
        #: ``io.record``: a retry or a route switch, into the host's
        #: flight recorder under the host's name.
        self.record = host.core.sink.record
        self.machine = TransactionMachine(
            self, config, clock, allocator, self.stats,
        )
        host.bind(config.socket, self._on_delivered)

    # -- entities ------------------------------------------------------------

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

    # -- the machine's IO, but the clock -------------------------------------

    def send(self, route: Any, pdu: VmtpPdu, priority: int) -> None:
        self.host.send(route, encode_pdu(pdu), priority=priority)

    def send_return(self, delivered: Any, pdu: VmtpPdu) -> None:
        self.host.send_return(
            delivered, encode_pdu(pdu), reply_socket=pdu.reply_socket,
        )

    #: ``io.join``: a group's payload, its members' bytes in order.
    join = b"".join

    def discard(self, reason: str) -> None:
        drops = self.drops
        drops[reason] = drops.get(reason, 0) + 1

    def _on_delivered(self, delivered: Any) -> None:
        """Check and decode one arrived PDU, in place, for the machine."""
        self.machine.on_pdu(
            open_pdu(
                delivered.frame, delivered.payload_start, delivered.payload_end,
            ),
            delivered,
        )
