"""A VMTP-like transaction transport over Sirpent (§4, §5 context).

Implements the paper's transport-layer obligations end to end:

* request/response *transactions* (the bursty, transactional traffic the
  paper argues datagram internetworking must serve without circuit
  setup),
* *packet groups* for large logical packets, paced by rate-based flow
  control, recovered by selective retransmission (§4.3),
* *misdelivery detection* via 64-bit entity ids and a payload checksum
  — necessary because Sirpent deliberately has no header checksum
  (§4.1),
* *maximum packet lifetime* via creation timestamps (§4.2),
* *route rebinding* through a :class:`~repro.transport.rebind.RouteManager`
  when retransmissions exhaust a route (§6.3), and
* responses returned along the **reversed trailer route** of the
  request — no directory lookup at the server, the Sirpent signature
  move.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.core.congestion import RateSignal
from repro.core.host import DeliveredPacket, SirpentHost
from repro.directory.routes import Route
from repro.sim.engine import EventHandle, Simulator
from repro.sim.monitor import Counter, Histogram
from repro.transport.flowcontrol import (
    DeliveryMask,
    RateController,
    split_into_group,
)
from repro.transport.ids import EntityId, EntityIdAllocator
from repro.transport.rebind import RouteManager
from repro.transport.timestamps import HostClock, TimestampPolicy


class PduKind(enum.Enum):
    """VMTP PDU kinds: requests, responses and selective-retransmit NAKs."""
    REQUEST = "request"
    RESPONSE = "response"
    NAK = "nak"                # "resend the members missing from this mask"


@dataclass
class VmtpPdu:
    """The transport header carried as the Sirpent payload object.

    Sizes (``header_bytes`` + member payload + ``trailer_bytes``) feed
    the simulator; fields model VMTP's: entity ids, transaction id,
    group bookkeeping, and the creation timestamp that lives in the
    packet *trailer* with the checksum (§4.2).
    """

    kind: PduKind
    transaction_id: int
    src_entity: EntityId
    dst_entity: EntityId
    member_index: int
    group_count: int
    timestamp: int
    reply_socket: int
    mask_bits: int = 0
    user_size: int = 0
    user_data: Any = None
    #: Sender's interpacket gap for this group (VMTP's rate-based flow
    #: control is advertised, so the receiver's gap detection can tell
    #: "paced and in flight" from "lost").
    pacing_gap: float = 0.0


@dataclass
class TransportConfig:
    """Size and timing parameters of the transport."""

    header_bytes: int = 64         # VMTP-scale header (64-bit ids etc.)
    trailer_bytes: int = 8         # 32-bit timestamp + 32-bit checksum
    max_member_payload: int = 1024  # ~1KB transport packet (§5)
    rate_bps: float = 10e6         # initial pacing rate
    base_timeout: float = 5e-3
    timeout_rtt_multiplier: float = 4.0
    retries_per_route: int = 2
    max_total_retries: int = 8
    nak_delay: float = 2e-3        # server waits this long for stragglers
    socket: int = 1                # host port the transport binds
    mpl: TimestampPolicy = field(default_factory=TimestampPolicy)


@dataclass
class TransportStats:
    """Counters the transport-layer experiments read."""
    sent_pdus: Counter = field(default_factory=lambda: Counter("pdus_sent"))
    received_pdus: Counter = field(default_factory=lambda: Counter("pdus_rcvd"))
    misdelivered: Counter = field(default_factory=lambda: Counter("misdelivered"))
    checksum_failures: Counter = field(default_factory=lambda: Counter("checksum"))
    lifetime_rejects: Counter = field(default_factory=lambda: Counter("too_old"))
    retransmissions: Counter = field(default_factory=lambda: Counter("retx"))
    naks_sent: Counter = field(default_factory=lambda: Counter("naks"))
    truncated_rejects: Counter = field(default_factory=lambda: Counter("truncated"))
    duplicate_requests: Counter = field(default_factory=lambda: Counter("dup_req"))
    transactions_ok: Counter = field(default_factory=lambda: Counter("tx_ok"))
    transactions_failed: Counter = field(default_factory=lambda: Counter("tx_fail"))
    rtt: Histogram = field(default_factory=lambda: Histogram("rtt"))


@dataclass
class TransactionResult:
    """Outcome delivered to the client's completion callback."""
    ok: bool
    rtt: float = 0.0
    retries: int = 0
    route_switches: int = 0
    response_payload: Any = None
    response_size: int = 0
    error: str = ""


@dataclass
class ReceivedMessage:
    """What a server handler sees."""

    src_entity: EntityId
    payload_parts: List[Any]
    total_size: int
    transaction_id: int


Handler = Callable[[ReceivedMessage], Tuple[Any, int]]


class _ClientTransaction:
    def __init__(
        self,
        transaction_id: int,
        dst_entity: EntityId,
        payload: Any,
        member_sizes: List[int],
        manager: RouteManager,
        priority: int,
        on_complete: Callable[[TransactionResult], None],
    ) -> None:
        self.transaction_id = transaction_id
        self.dst_entity = dst_entity
        self.payload = payload
        self.member_sizes = member_sizes
        self.manager = manager
        self.priority = priority
        self.on_complete = on_complete
        self.started_at = 0.0
        self.retries = 0
        self.retries_this_route = 0
        self.route_switches = 0
        self.timer: Optional[EventHandle] = None
        self.response_mask: Optional[DeliveryMask] = None
        self.response_parts: Dict[int, Any] = {}
        self.response_size = 0
        self.done = False


class _ServerAssembly:
    def __init__(self, group_count: int, now: float) -> None:
        self.mask = DeliveryMask(group_count)
        self.parts: Dict[int, Any] = {}
        self.total_size = 0
        self.reply_socket = 0
        self.delivered: Optional[DeliveredPacket] = None
        self.first_seen = now
        self.last_arrival = now
        #: Largest member inter-arrival gap seen — the sender's pacing.
        self.observed_gap = 0.0
        self.nak_timer: Optional[EventHandle] = None


class VmtpTransport:
    """One host's VMTP instance: any number of entities, one socket."""

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
        self.rate = RateController(self.config.rate_bps)
        self.stats = TransportStats()
        self._entities: Dict[EntityId, Optional[Handler]] = {}
        self._tx_counter = itertools.count(1)
        self._client_txs: Dict[int, _ClientTransaction] = {}
        self._assemblies: Dict[Tuple[int, int], _ServerAssembly] = {}
        self._response_cache: Dict[Tuple[int, int], Tuple[Any, List[int], int]] = {}
        host.bind(self.config.socket, self._on_delivered)
        host.subscribe_rate_signals(self._on_rate_signal)

    # -- entities -----------------------------------------------------------

    def create_entity(self, handler: Optional[Handler] = None, hint: str = "") -> EntityId:
        """Register a transport endpoint; with a handler it is a server."""
        entity = self.allocator.allocate(hint or self.host.name)
        self._entities[entity] = handler
        return entity

    def adopt_entity(self, entity: EntityId, handler: Optional[Handler]) -> None:
        """Take over an entity that migrated from another host (§4.1).

        "The network-independent addressing in VMTP is used to support
        process migration, multi-homed hosts and mobile hosts" — the
        64-bit id names the *entity*, not an attachment, so it moves
        intact.  Clients keep the id and merely need fresh routes.
        """
        self._entities[entity] = handler

    def drop_entity(self, entity: EntityId) -> None:
        """Release a local entity (it migrated away or terminated)."""
        self._entities.pop(entity, None)

    # -- client side ----------------------------------------------------------

    def transact(
        self,
        manager: RouteManager,
        dst_entity: EntityId,
        payload: Any,
        size: int,
        on_complete: Callable[[TransactionResult], None],
        priority: int = 0,
    ) -> int:
        """Issue a request transaction; the callback gets the result.

        Members are sized to the route's advertised MTU (§3: the routing
        service returns the MTU "so there is no need to do MTU discovery
        in the same sense as conventional IP") — packets never arrive
        truncated on a correctly advertised route.
        """
        transaction_id = next(self._tx_counter)
        member_sizes = split_into_group(size, self._member_budget(manager))
        tx = _ClientTransaction(
            transaction_id, dst_entity, payload, member_sizes,
            manager, priority, on_complete,
        )
        tx.started_at = self.sim.now
        self._client_txs[transaction_id] = tx
        self._launch_group(tx, indices=None)
        return transaction_id

    def _member_budget(self, manager: RouteManager) -> int:
        """Largest member payload the current route carries untruncated."""
        budget = self.config.max_member_payload
        route = manager.current()
        max_payload = getattr(route, "max_payload", None)
        if callable(max_payload):
            wire_budget = max_payload() - self.config.header_bytes \
                - self.config.trailer_bytes
            if wire_budget > 0:
                budget = min(budget, wire_budget)
        return budget

    def _launch_group(
        self, tx: _ClientTransaction, indices: Optional[List[int]]
    ) -> None:
        """Send (or re-send) request members, paced by the rate controller."""
        route = tx.manager.current()
        if indices is None:
            indices = list(range(len(tx.member_sizes)))
        src_entity = self._client_entity()
        offset = 0.0
        group_gap = self.rate.gap_for(
            self._pdu_wire_size(max(tx.member_sizes))
        ) if len(tx.member_sizes) > 1 else 0.0
        for index in indices:
            member = tx.member_sizes[index]
            pdu = VmtpPdu(
                kind=PduKind.REQUEST,
                transaction_id=tx.transaction_id,
                src_entity=src_entity,
                dst_entity=tx.dst_entity,
                member_index=index,
                group_count=len(tx.member_sizes),
                timestamp=self.clock.stamp(),
                reply_socket=self.config.socket,
                user_size=member,
                user_data=tx.payload,
                pacing_gap=group_gap,
            )
            wire = self._pdu_wire_size(member)
            self.sim.after(
                offset, self._send_pdu, route, pdu, wire, tx.priority
            )
            offset += self.rate.gap_for(wire)
        self._arm_timer(tx, route, offset)

    def _client_entity(self) -> EntityId:
        """The id requests are sent from (auto-created on first use)."""
        for entity, handler in self._entities.items():
            if handler is None:
                return entity
        return self.create_entity(None, hint="client")

    def _arm_timer(self, tx: _ClientTransaction, route: Route, pacing: float) -> None:
        if tx.timer is not None:
            tx.timer.cancel()
        total = sum(tx.member_sizes)
        timeout = max(
            self.config.base_timeout,
            route.expected_rtt(total) * self.config.timeout_rtt_multiplier,
        ) + pacing
        tx.timer = self.sim.after(timeout, self._on_timeout, tx.transaction_id)

    def _on_timeout(self, transaction_id: int) -> None:
        tx = self._client_txs.get(transaction_id)
        if tx is None or tx.done:
            return
        tx.retries += 1
        tx.retries_this_route += 1
        self.stats.retransmissions.add()
        if tx.retries > self.config.max_total_retries:
            self._finish(tx, TransactionResult(
                ok=False, retries=tx.retries,
                route_switches=tx.route_switches, error="retries exhausted",
            ))
            return
        if tx.retries_this_route > self.config.retries_per_route:
            tx.manager.report_failure()
            tx.route_switches += 1
            tx.retries_this_route = 0
        # Retransmit what the server has not confirmed.  Without a NAK we
        # cannot know the server-side mask, so resend the full group; the
        # server's duplicate cache answers repeats cheaply.
        missing_response = (
            tx.response_mask.missing() if tx.response_mask is not None else None
        )
        if missing_response:
            # We have a partial response: ask only for the gaps (§4.3
            # selective retransmission).
            self._send_nak(tx)
            self._arm_timer(tx, tx.manager.current(), 0.0)
        else:
            self._launch_group(tx, indices=None)

    def _send_nak(self, tx: _ClientTransaction) -> None:
        assert tx.response_mask is not None
        route = tx.manager.current()
        pdu = VmtpPdu(
            kind=PduKind.NAK,
            transaction_id=tx.transaction_id,
            src_entity=self._client_entity(),
            dst_entity=tx.dst_entity,
            member_index=0,
            group_count=tx.response_mask.count,
            timestamp=self.clock.stamp(),
            reply_socket=self.config.socket,
            mask_bits=tx.response_mask.bits,
        )
        self.stats.naks_sent.add()
        self._send_pdu(route, pdu, self._pdu_wire_size(0), tx.priority)

    def _finish(self, tx: _ClientTransaction, result: TransactionResult) -> None:
        if tx.done:
            return
        tx.done = True
        if tx.timer is not None:
            tx.timer.cancel()
        self._client_txs.pop(tx.transaction_id, None)
        if result.ok:
            self.stats.transactions_ok.add()
            self.stats.rtt.add(result.rtt)
            tx.manager.report_rtt(result.rtt, payload_size=sum(tx.member_sizes))
        else:
            self.stats.transactions_failed.add()
        tx.on_complete(result)

    # -- sending ----------------------------------------------------------------

    def _pdu_wire_size(self, member_payload: int) -> int:
        return self.config.header_bytes + member_payload + self.config.trailer_bytes

    def _send_pdu(
        self, route: Route, pdu: VmtpPdu, wire_size: int, priority: int
    ) -> None:
        self.stats.sent_pdus.add()
        self.host.send(route, pdu, wire_size, priority=priority)

    def _send_pdu_return(
        self,
        delivered: DeliveredPacket,
        pdu: VmtpPdu,
        wire_size: int,
        priority: int = 0,
    ) -> None:
        self.stats.sent_pdus.add()
        self.host.send_return(
            delivered, pdu, wire_size,
            reply_socket=pdu.reply_socket, priority=priority,
        )

    # -- receive path --------------------------------------------------------------

    def _on_delivered(self, delivered: DeliveredPacket) -> None:
        pdu = delivered.payload
        if not isinstance(pdu, VmtpPdu):
            return
        self.stats.received_pdus.add()
        # §4.1: the transport checksum catches what the missing header
        # checksum lets through.
        if delivered.corrupted:
            self.stats.checksum_failures.add()
            return
        # §2/§4.3: a truncated member lost its tail in the network; it
        # counts as a loss and selective retransmission recovers it.
        if delivered.truncated:
            self.stats.truncated_rejects.add()
            return
        # §4.1: unique ids make misdelivery detectable.
        if pdu.dst_entity not in self._entities:
            self.stats.misdelivered.add()
            return
        # §4.2: maximum packet lifetime from the creation timestamp.
        if not self.config.mpl.accept(pdu.timestamp, self.clock):
            self.stats.lifetime_rejects.add()
            return
        if pdu.kind is PduKind.REQUEST:
            self._on_request(pdu, delivered)
        elif pdu.kind is PduKind.RESPONSE:
            self._on_response(pdu)
        elif pdu.kind is PduKind.NAK:
            self._on_nak(pdu, delivered)

    # -- server side ------------------------------------------------------------------

    def _on_request(self, pdu: VmtpPdu, delivered: DeliveredPacket) -> None:
        key = (int(pdu.src_entity), pdu.transaction_id)
        cached = self._response_cache.get(key)
        if cached is not None:
            # Duplicate of an answered transaction: resend the response.
            self.stats.duplicate_requests.add()
            payload, sizes, reply_socket = cached
            self._send_response_group(
                pdu, delivered, payload, sizes, reply_socket
            )
            return
        assembly = self._assemblies.get(key)
        if assembly is None:
            assembly = _ServerAssembly(pdu.group_count, self.sim.now)
            self._assemblies[key] = assembly
        if assembly.mask.has(pdu.member_index):
            return  # duplicate member
        assembly.observed_gap = max(
            assembly.observed_gap, self.sim.now - assembly.last_arrival
        )
        assembly.last_arrival = self.sim.now
        assembly.mask.mark(pdu.member_index)
        assembly.parts[pdu.member_index] = pdu.user_data
        assembly.total_size += pdu.user_size
        assembly.reply_socket = pdu.reply_socket
        assembly.delivered = delivered
        if assembly.mask.complete:
            if assembly.nak_timer is not None:
                assembly.nak_timer.cancel()
            self._complete_request(key, pdu, assembly)
        else:
            # Gap-detection timer: re-armed on every arrival and scaled
            # to the sender's observed pacing, so it only fires when the
            # member stream has gone quiet with members still missing —
            # paced in-flight members never trigger a spurious NAK.
            if assembly.nak_timer is not None:
                assembly.nak_timer.cancel()
            quiet = max(
                self.config.nak_delay,
                2.0 * assembly.observed_gap,
                2.0 * pdu.pacing_gap,
            )
            assembly.nak_timer = self.sim.after(
                quiet, self._server_nak, key
            )

    def _server_nak(self, key: Tuple[int, int]) -> None:
        """Ask the client for the request members still missing."""
        assembly = self._assemblies.get(key)
        if assembly is None or assembly.mask.complete:
            return
        assembly.nak_timer = self.sim.after(
            self.config.nak_delay, self._server_nak, key
        )
        if assembly.delivered is None:
            return
        src_entity, transaction_id = key
        pdu = VmtpPdu(
            kind=PduKind.NAK,
            transaction_id=transaction_id,
            src_entity=self._client_entity(),
            dst_entity=EntityId(src_entity),
            member_index=0,
            group_count=assembly.mask.count,
            timestamp=self.clock.stamp(),
            reply_socket=self.config.socket,
            mask_bits=assembly.mask.bits,
        )
        self.stats.naks_sent.add()
        self._send_pdu_return(
            assembly.delivered, pdu, self._pdu_wire_size(0)
        )

    def _complete_request(
        self, key: Tuple[int, int], pdu: VmtpPdu, assembly: _ServerAssembly
    ) -> None:
        handler = self._entities.get(pdu.dst_entity)
        del self._assemblies[key]
        if handler is None:
            return  # a client-only entity cannot serve requests
        message = ReceivedMessage(
            src_entity=pdu.src_entity,
            payload_parts=[assembly.parts[i] for i in sorted(assembly.parts)],
            total_size=assembly.total_size,
            transaction_id=pdu.transaction_id,
        )
        reply_payload, reply_size = handler(message)
        sizes = split_into_group(max(1, reply_size), self.config.max_member_payload)
        self._response_cache[key] = (reply_payload, sizes, assembly.reply_socket)
        response_pdu = VmtpPdu(
            kind=PduKind.RESPONSE,
            transaction_id=pdu.transaction_id,
            src_entity=pdu.dst_entity,
            dst_entity=pdu.src_entity,
            member_index=0,
            group_count=len(sizes),
            timestamp=self.clock.stamp(),
            reply_socket=assembly.reply_socket,
        )
        assert assembly.delivered is not None
        self._send_response_group(
            response_pdu, assembly.delivered, reply_payload, sizes,
            assembly.reply_socket,
        )

    def _send_response_group(
        self,
        template: VmtpPdu,
        delivered: DeliveredPacket,
        payload: Any,
        sizes: List[int],
        reply_socket: int,
        only: Optional[List[int]] = None,
    ) -> None:
        indices = only if only is not None else list(range(len(sizes)))
        # REQUEST and NAK templates arrived *from* the client, so the
        # response direction swaps their entities; a RESPONSE template
        # (the server's own construction) is already oriented.
        if template.kind is PduKind.RESPONSE:
            src_entity, dst_entity = template.src_entity, template.dst_entity
        else:
            src_entity, dst_entity = template.dst_entity, template.src_entity
        offset = 0.0
        for index in indices:
            pdu = VmtpPdu(
                kind=PduKind.RESPONSE,
                transaction_id=template.transaction_id,
                src_entity=src_entity,
                dst_entity=dst_entity,
                member_index=index,
                group_count=len(sizes),
                timestamp=self.clock.stamp(),
                reply_socket=reply_socket,
                user_size=sizes[index],
                user_data=payload,
            )
            wire = self._pdu_wire_size(sizes[index])
            self.sim.after(
                offset, self._send_pdu_return, delivered, pdu, wire
            )
            offset += self.rate.gap_for(wire)

    def _on_nak(self, pdu: VmtpPdu, delivered: DeliveredPacket) -> None:
        """Selective retransmission requests, both directions (§4.3).

        At the *client*, a NAK names request members the server has not
        seen; at the *server*, a NAK names response members the client
        misses.
        """
        tx = self._client_txs.get(pdu.transaction_id)
        if tx is not None and not tx.done:
            mask = DeliveryMask(len(tx.member_sizes), pdu.mask_bits)
            missing = mask.missing()
            if missing:
                self.stats.retransmissions.add()
                self._launch_group(tx, indices=missing)
            return
        # Find the cached response for this transaction (the NAK's
        # src_entity is the *client* that misses members).
        for (src, transaction_id), cached in self._response_cache.items():
            if transaction_id != pdu.transaction_id:
                continue
            payload, sizes, reply_socket = cached
            mask = DeliveryMask(len(sizes), pdu.mask_bits)
            missing = mask.missing()
            if missing:
                self.stats.retransmissions.add()
                self._send_response_group(
                    pdu, delivered, payload, sizes, reply_socket, only=missing
                )
            return

    # -- client receive -------------------------------------------------------------------

    def _on_response(self, pdu: VmtpPdu) -> None:
        tx = self._client_txs.get(pdu.transaction_id)
        if tx is None or tx.done:
            return
        if tx.response_mask is None:
            tx.response_mask = DeliveryMask(pdu.group_count)
        if tx.response_mask.has(pdu.member_index):
            return
        tx.response_mask.mark(pdu.member_index)
        tx.response_parts[pdu.member_index] = pdu.user_data
        tx.response_size += pdu.user_size
        if tx.response_mask.complete:
            self._finish(tx, TransactionResult(
                ok=True,
                rtt=self.sim.now - tx.started_at,
                retries=tx.retries,
                route_switches=tx.route_switches,
                response_payload=tx.response_parts.get(0),
                response_size=tx.response_size,
            ))

    # -- backpressure ----------------------------------------------------------------------

    def _on_rate_signal(self, signal: RateSignal) -> None:
        self.rate.on_backpressure(self.sim.now, signal.advised_rate_bps)
        for tx in self._client_txs.values():
            tx.manager.report_backpressure()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<VmtpTransport {self.host.name!r} entities={len(self._entities)} "
            f"ok={self.stats.transactions_ok.count}>"
        )
