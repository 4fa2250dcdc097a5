"""The VMTP transaction machine: §4 once, for both substrates.

One sans-IO state machine runs request/response transactions for the
simulator (:class:`~repro.transport.vmtp.VmtpTransport`) and for the
live overlay (:class:`~repro.live.host.LiveTransactor`); an adapter
only clocks it and moves its PDUs.  The machine implements the
paper's transport obligations end to end:

* request/response *transactions* (the bursty, transactional traffic
  the paper argues datagram internetworking must serve without circuit
  setup),
* *packet groups* for large logical packets, paced by rate-based flow
  control and recovered by selective retransmission: the server NAKs
  the request members it misses, the client the response members
  (§4.3),
* *misdelivery detection* via 64-bit entity ids and a payload checksum
  — necessary because Sirpent deliberately has no header checksum
  (§4.1),
* *maximum packet lifetime* via creation timestamps (§4.2),
* *route rebinding* through a :class:`~repro.transport.rebind.RouteManager`
  when retransmissions exhaust a route (§6.3), and
* responses returned along the **reversed trailer route** of the
  request — no directory lookup at the server, the Sirpent signature
  move.

Inputs are calls: :meth:`TransactionMachine.on_pdu` (with the
adapter's verdict on the checksum and on truncation), the timers the
machine armed, :meth:`~TransactionMachine.transact` and the entity
calls, and :meth:`~TransactionMachine.on_rate_signal`.  Every output
goes through the injected ``io`` object:

* ``io.now`` — the substrate's clock, in seconds;
* ``io.after(delay, fn, *args)`` — call ``fn(*args)`` ``delay``
  seconds from now; returns a handle with ``cancel()``;
* ``io.send(route, pdu, wire_size, priority)`` — along a source route;
* ``io.send_return(delivered, pdu, wire_size)`` — along the reversed
  trailer route of a delivered PDU, to ``pdu.reply_socket``;
* ``io.join(parts)`` — a group's payload from its members' payloads,
  in member order;
* ``io.discard(reason)`` — a PDU was dropped here, and why;
* ``io.record(event, **fields)`` — a retry or a route switch, for the
  flight recorder.

The order of those calls is part of the contract: the simulator
numbers its events in the order ``after`` is called.
"""

from __future__ import annotations

import enum
import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.transport.flowcontrol import (
    DeliveryMask,
    RateController,
    split_into_group,
)
from repro.transport.ids import EntityId, EntityIdAllocator
from repro.transport.timestamps import HostClock, TimestampPolicy

#: ``dst_entity`` of a client-to-server PDU whose client does not know
#: the server's entity id (a wire value, not a setting): only a machine
#: with a serving entity accepts it, as addressed to that entity.
#: Responses and request NAKs always name their client's entity.
WILDCARD_ENTITY = 0

#: NAK rounds an incomplete request assembly may spend with no new
#: member arriving; the next round drops the assembly (counted
#: ``abandoned_assemblies``) and the client's timeout ladder takes over.
MAX_FRUITLESS_NAKS = 4

#: Answered transactions a server keeps to replay duplicates, oldest
#: forgotten first.
RESPONSE_CACHE_ENTRIES = 512

#: Payload bytes per packet-group member: the ~1 KB transport packet
#: (§5), less where the route carries less.
MAX_MEMBER_PAYLOAD = 1024

#: A client's timeout is this many expected RTTs of the route (at
#: least ``TransportConfig.base_timeout``).
TIMEOUT_RTT_MULTIPLIER = 4.0


class PduKind(enum.Enum):
    """VMTP PDU kinds: requests, responses and selective-retransmit NAKs.

    The two NAK directions are distinct kinds, so a host that is both a
    client and a server never takes one meant for its other role.
    """
    REQUEST = "request"
    RESPONSE = "response"
    #: Client to server: "resend the response members missing from this mask".
    RESPONSE_NAK = "response_nak"
    #: Server to client: "resend the request members missing from this mask".
    REQUEST_NAK = "request_nak"


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
    #: Where this member's bytes start in ``user_data``, the logical
    #: packet every member of a group carries whole.
    user_offset: int = 0


@dataclass(frozen=True)
class TransportConfig:
    """Size and timing parameters of the transport.

    The defaults are the simulator's; the live overlay's are
    :data:`repro.live.host.LIVE_TRANSPORT`.
    """

    header_bytes: int = 64         # VMTP-scale header (64-bit ids etc.)
    trailer_bytes: int = 8         # 32-bit timestamp + 32-bit checksum
    rate_bps: float = 10e6         # initial pacing rate
    base_timeout: float = 5e-3
    retries_per_route: int = 2
    max_total_retries: int = 8
    nak_delay: float = 2e-3        # server waits this long for stragglers
    socket: int = 1                # host port the transport binds
    mpl: TimestampPolicy = field(default_factory=TimestampPolicy)


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
        manager: Any,
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
        self.timer: Any = None
        self.response_mask: Optional[DeliveryMask] = None
        self.response_parts: Dict[int, Any] = {}
        self.response_size = 0
        self.done = False


class _ServerAssembly:
    def __init__(self, group_count: int, now: float) -> None:
        self.mask = DeliveryMask(group_count)
        self.parts: Dict[int, Any] = {}
        self.total_size = 0
        self.delivered: Any = None
        self.last_arrival = now
        #: Largest member inter-arrival gap seen — the sender's pacing.
        self.observed_gap = 0.0
        #: The gap-detection timer, and when the member stream counts as
        #: quiet: each arrival moves the moment, the timer catches up.
        self.nak_timer: Any = None
        self.quiet_at = now
        #: NAKs sent since the last new member arrived.
        self.fruitless_naks = 0


class _Answer(NamedTuple):
    """A served transaction's response, kept to replay to duplicates."""

    payload: Any
    sizes: List[int]
    reply_socket: int


def _in_group(pdu: VmtpPdu) -> bool:
    """The PDU's member index and group count describe a real group."""
    return 0 <= pdu.member_index < pdu.group_count <= DeliveryMask.MAX_MEMBERS


class TransactionMachine:
    """One host's VMTP state: any number of entities, one socket."""

    def __init__(
        self,
        io: Any,
        config: TransportConfig,
        clock: HostClock,
        allocator: EntityIdAllocator,
        stats: Any,
    ) -> None:
        self.io = io
        self.config = config
        self.clock = clock
        self.allocator = allocator
        self.stats = stats
        self.rate = RateController(config.rate_bps)
        self._entities: Dict[EntityId, Optional[Handler]] = {}
        self._tx_counter = itertools.count(1)
        self._client_txs: Dict[int, _ClientTransaction] = {}
        self._assemblies: Dict[Tuple[int, int], _ServerAssembly] = {}
        self._response_cache: "OrderedDict[Tuple[int, int], _Answer]" = (
            OrderedDict()
        )

    # -- entities -----------------------------------------------------------

    def create_entity(self, handler: Optional[Handler], hint: str) -> EntityId:
        """Register a transport endpoint; with a handler it is a server."""
        entity = self.allocator.allocate(hint)
        self._entities[entity] = handler
        return entity

    def adopt_entity(self, entity: EntityId, handler: Optional[Handler]) -> None:
        """Take over an entity that migrated from another host (§4.1)."""
        self._entities[entity] = handler

    def drop_entity(self, entity: EntityId) -> None:
        """Release a local entity (it migrated away or terminated)."""
        self._entities.pop(entity, None)

    def _client_entity(self) -> EntityId:
        """The id requests are sent from (auto-created on first use)."""
        for entity, handler in self._entities.items():
            if handler is None:
                return entity
        return self.create_entity(None, hint="client")

    def _wildcard_server(self, pdu: VmtpPdu) -> Optional[EntityId]:
        """The serving entity a wildcard client-to-server PDU is for."""
        if pdu.dst_entity != WILDCARD_ENTITY or not (
            pdu.kind is PduKind.REQUEST or pdu.kind is PduKind.RESPONSE_NAK
        ):
            return None
        for entity, handler in self._entities.items():
            if handler is not None:
                return entity
        return None

    # -- client side ----------------------------------------------------------

    def transact(
        self,
        manager: Any,
        dst_entity: EntityId,
        payload: Any,
        size: int,
        on_complete: Callable[[TransactionResult], None],
        priority: int = 0,
    ) -> int:
        """Issue a request transaction; ``on_complete`` gets the result.

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
        tx.started_at = self.io.now
        self._client_txs[transaction_id] = tx
        self._launch_group(tx, indices=None)
        return transaction_id

    def abandon(self, transaction_id: int) -> None:
        """Forget a transaction whose caller stopped waiting for it."""
        tx = self._client_txs.pop(transaction_id, None)
        if tx is not None:
            tx.done = True
            if tx.timer is not None:
                tx.timer.cancel()

    def _member_budget(self, manager: Any) -> int:
        """Largest member payload the current route carries untruncated."""
        budget = MAX_MEMBER_PAYLOAD
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
        sizes = tx.member_sizes
        count = len(sizes)
        if indices is None:
            indices = range(count)
        src_entity = self._client_entity()
        offset = 0.0
        group_gap = self.rate.gap_for(
            self._pdu_wire_size(max(sizes))
        ) if count > 1 else 0.0
        stamp, after, gap_for = self.clock.stamp, self.io.after, self.rate.gap_for
        overhead = self._pdu_wire_size(0)
        for index in indices:
            member = sizes[index]
            # Every member but the last is full: this one starts at
            # index times the first member's size.
            pdu = VmtpPdu(
                PduKind.REQUEST, tx.transaction_id, src_entity,
                tx.dst_entity, index, count, stamp(), self.config.socket,
                0, member, tx.payload, group_gap, index * sizes[0],
            )
            wire = overhead + member
            after(offset, self._send, route, pdu, wire, tx.priority)
            offset += gap_for(wire)
        self._arm_timer(tx, route, offset)

    def _arm_timer(self, tx: _ClientTransaction, route: Any, pacing: float) -> None:
        if tx.timer is not None:
            tx.timer.cancel()
        total = sum(tx.member_sizes)
        timeout = max(
            self.config.base_timeout,
            route.expected_rtt(total) * TIMEOUT_RTT_MULTIPLIER,
        ) + pacing
        tx.timer = self.io.after(timeout, self._on_timeout, tx.transaction_id)

    def _on_timeout(self, transaction_id: int) -> None:
        tx = self._client_txs.get(transaction_id)
        if tx is None or tx.done:
            return
        tx.retries += 1
        tx.retries_this_route += 1
        self.stats.retransmissions.add()
        self.io.record(
            "transaction_retry", txid=transaction_id, attempt=tx.retries,
        )
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
            self.io.record(
                "route_switched", txid=transaction_id,
                switches=tx.route_switches,
            )
        missing_response = (
            tx.response_mask.missing() if tx.response_mask is not None else None
        )
        if missing_response:
            # We have a partial response: ask only for the gaps (§4.3
            # selective retransmission).
            self._send_nak(tx)
            self._arm_timer(tx, tx.manager.current(), 0.0)
        else:
            # No response yet: probe with the request's last member.  A
            # server that answered replays its response from the cache;
            # one missing members NAKs them; one that never heard of the
            # transaction NAKs the rest.  A timeout that fired while the
            # response was on its way costs one member, not the group.
            self._launch_group(tx, indices=[len(tx.member_sizes) - 1])

    def _send_nak(self, tx: _ClientTransaction) -> None:
        assert tx.response_mask is not None
        route = tx.manager.current()
        pdu = VmtpPdu(
            kind=PduKind.RESPONSE_NAK,
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
        self._send(route, pdu, self._pdu_wire_size(0), tx.priority)

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

    def _send(self, route: Any, pdu: VmtpPdu, wire_size: int, priority: int) -> None:
        self.stats.sent_pdus.add()
        self.io.send(route, pdu, wire_size, priority)

    def _send_return(self, delivered: Any, pdu: VmtpPdu, wire_size: int) -> None:
        self.stats.sent_pdus.add()
        self.io.send_return(delivered, pdu, wire_size)

    # -- receive path --------------------------------------------------------------

    def on_pdu(
        self,
        pdu: Optional[VmtpPdu],
        delivered: Any,
        corrupted: bool = False,
        truncated: bool = False,
    ) -> None:
        """A PDU arrived; ``delivered`` is what a reply goes back along.

        ``pdu`` may be None only when ``corrupted`` is set: the adapter
        could not trust the bytes enough to decode them.
        """
        self.stats.received_pdus.add()
        # §4.1: the transport checksum catches what the missing header
        # checksum lets through.
        if corrupted:
            self.stats.checksum_failures.add()
            self.io.discard("checksum")
            return
        # §2/§4.3: a truncated member lost its tail in the network; it
        # counts as a loss and selective retransmission recovers it.
        if truncated:
            self.stats.truncated_rejects.add()
            self.io.discard("truncated")
            return
        # §4.1: unique ids make misdelivery detectable.
        if pdu.dst_entity not in self._entities:
            server = self._wildcard_server(pdu)
            if server is None:
                self.stats.misdelivered.add()
                self.io.discard("misdelivered")
                return
            pdu.dst_entity = server
        # §4.2: maximum packet lifetime from the creation timestamp.
        if not self.config.mpl.accept(pdu.timestamp, self.clock):
            self.stats.lifetime_rejects.add()
            self.io.discard("too_old")
            return
        kind = pdu.kind
        if kind is PduKind.REQUEST:
            self._on_request(pdu, delivered)
        elif kind is PduKind.RESPONSE:
            self._on_response(pdu)
        elif kind is PduKind.RESPONSE_NAK:
            self._on_response_nak(pdu, delivered)
        else:
            self._on_request_nak(pdu)

    # -- server side ------------------------------------------------------------------

    def _on_request(self, pdu: VmtpPdu, delivered: Any) -> None:
        key = (pdu.src_entity, pdu.transaction_id)
        answer = self._response_cache.get(key)
        if answer is not None:
            # Duplicate of an answered transaction: resend the response.
            self.stats.duplicate_requests.add()
            self._send_response_group(pdu, delivered, answer)
            return
        if not _in_group(pdu):
            self.io.discard("bad_group")
            return
        if pdu.group_count == 1 and key not in self._assemblies:
            # A one-member request is whole on arrival.
            self._complete_request(
                key, pdu, [pdu.user_data], pdu.user_size, delivered,
            )
            return
        now = self.io.now
        assembly = self._assemblies.get(key)
        if assembly is None:
            assembly = _ServerAssembly(pdu.group_count, now)
            self._assemblies[key] = assembly
        if assembly.mask.has(pdu.member_index):
            self.io.discard("duplicate_member")
            return
        assembly.observed_gap = max(
            assembly.observed_gap, now - assembly.last_arrival
        )
        assembly.last_arrival = now
        assembly.fruitless_naks = 0
        assembly.mask.mark(pdu.member_index)
        assembly.parts[pdu.member_index] = pdu.user_data
        assembly.total_size += pdu.user_size
        assembly.delivered = delivered
        if assembly.mask.complete:
            if assembly.nak_timer is not None:
                assembly.nak_timer.cancel()
            del self._assemblies[key]
            parts = assembly.parts
            self._complete_request(
                key, pdu, [parts[i] for i in sorted(parts)],
                assembly.total_size, delivered,
            )
            return
        # Gap detection: the stream counts as quiet once no member came
        # for the NAK delay, or twice the sender's observed pacing, so
        # paced in-flight members never trigger a spurious NAK.  One
        # timer per assembly: an arrival only moves the quiet moment,
        # and a timer that fires before it sleeps on to it.
        quiet = max(
            self.config.nak_delay,
            2.0 * assembly.observed_gap,
            2.0 * pdu.pacing_gap,
        )
        assembly.quiet_at = now + quiet
        if assembly.nak_timer is None:
            assembly.nak_timer = self.io.after(quiet, self._server_nak, key)

    def _server_nak(self, key: Tuple[int, int]) -> None:
        """Ask the client for the request members still missing.

        After :data:`MAX_FRUITLESS_NAKS` rounds that brought no member
        the assembly is dropped: a member lost on every attempt (one
        truncated each time, a return path that stays up while the
        forward one is down) must not keep the client's transaction
        alive forever by answering NAKs.
        """
        assembly = self._assemblies.get(key)
        if assembly is None or assembly.mask.complete:
            return
        wait = assembly.quiet_at - self.io.now
        if wait > 0.0:
            # A member arrived since the timer was armed.
            assembly.nak_timer = self.io.after(wait, self._server_nak, key)
            return
        if assembly.fruitless_naks >= MAX_FRUITLESS_NAKS:
            del self._assemblies[key]
            self.stats.abandoned_assemblies.add()
            return
        assembly.fruitless_naks += 1
        assembly.nak_timer = self.io.after(
            self.config.nak_delay, self._server_nak, key
        )
        if assembly.delivered is None:
            return
        src_entity, transaction_id = key
        pdu = VmtpPdu(
            PduKind.REQUEST_NAK, transaction_id, self._client_entity(),
            EntityId(src_entity), 0, assembly.mask.count, self.clock.stamp(),
            self.config.socket, assembly.mask.bits,
        )
        self.stats.naks_sent.add()
        self._send_return(
            assembly.delivered, pdu, self._pdu_wire_size(0)
        )

    def _complete_request(
        self, key: Tuple[int, int], pdu: VmtpPdu, parts: List[Any],
        total_size: int, delivered: Any,
    ) -> None:
        """Run the handler on a whole request (``pdu`` its last member)
        and send the response, keeping it to replay to duplicates."""
        handler = self._entities.get(pdu.dst_entity)
        if handler is None:
            self.io.discard("no_handler")  # a client-only entity cannot serve
            return
        reply_payload, reply_size = handler(ReceivedMessage(
            pdu.src_entity, parts, total_size, pdu.transaction_id,
        ))
        answer = _Answer(
            reply_payload,
            split_into_group(max(1, reply_size), MAX_MEMBER_PAYLOAD),
            pdu.reply_socket,
        )
        self._response_cache[key] = answer
        if len(self._response_cache) > RESPONSE_CACHE_ENTRIES:
            self._response_cache.popitem(last=False)
        self._send_response_group(pdu, delivered, answer)

    def _send_response_group(
        self,
        request: VmtpPdu,
        delivered: Any,
        answer: _Answer,
        only: Optional[List[int]] = None,
    ) -> None:
        """Send ``answer``'s members (or ``only`` those) back along
        ``delivered``'s route; ``request`` is the client-to-server PDU
        being answered, so the response swaps its entities."""
        sizes = answer.sizes
        count = len(sizes)
        stamp, after, gap_for = self.clock.stamp, self.io.after, self.rate.gap_for
        overhead = self._pdu_wire_size(0)
        offset = 0.0
        for index in only if only is not None else range(count):
            member = sizes[index]
            pdu = VmtpPdu(
                PduKind.RESPONSE, request.transaction_id, request.dst_entity,
                request.src_entity, index, count, stamp(),
                answer.reply_socket, 0, member, answer.payload, 0.0,
                index * sizes[0],
            )
            wire = overhead + member
            after(offset, self._send_return, delivered, pdu, wire)
            offset += gap_for(wire)

    def _on_response_nak(self, pdu: VmtpPdu, delivered: Any) -> None:
        """The client misses response members: replay them from the cache."""
        answer = self._response_cache.get(
            (pdu.src_entity, pdu.transaction_id)
        )
        if answer is None:
            self.io.discard("stale_pdu")
            return
        missing = DeliveryMask(len(answer.sizes), pdu.mask_bits).missing()
        if missing:
            self.stats.retransmissions.add()
            self._send_response_group(pdu, delivered, answer, only=missing)

    # -- client receive -------------------------------------------------------------------

    def _on_request_nak(self, pdu: VmtpPdu) -> None:
        """The server misses request members: resend exactly those."""
        tx = self._client_txs.get(pdu.transaction_id)
        if tx is None or tx.done:
            self.io.discard("stale_pdu")
            return
        missing = DeliveryMask(len(tx.member_sizes), pdu.mask_bits).missing()
        if missing:
            self.stats.retransmissions.add()
            self._launch_group(tx, indices=missing)

    def _on_response(self, pdu: VmtpPdu) -> None:
        tx = self._client_txs.get(pdu.transaction_id)
        if tx is None or tx.done:
            # A replay that lost the race with the original it duplicates.
            self.io.discard("stale_pdu")
            return
        if not _in_group(pdu):
            self.io.discard("bad_group")
            return
        if tx.response_mask is None:
            if pdu.group_count == 1:  # whole on arrival
                self._succeed(tx, [pdu.user_data], pdu.user_size)
                return
            tx.response_mask = DeliveryMask(pdu.group_count)
        if tx.response_mask.has(pdu.member_index):
            self.io.discard("duplicate_member")
            return
        tx.response_mask.mark(pdu.member_index)
        tx.response_parts[pdu.member_index] = pdu.user_data
        tx.response_size += pdu.user_size
        if tx.response_mask.complete:
            parts = tx.response_parts
            self._succeed(
                tx, [parts[i] for i in range(len(parts))], tx.response_size,
            )

    def _succeed(self, tx: _ClientTransaction, parts: List[Any], size: int) -> None:
        self._finish(tx, TransactionResult(
            True, self.io.now - tx.started_at, tx.retries, tx.route_switches,
            self.io.join(parts), size,
        ))

    # -- backpressure ----------------------------------------------------------------------

    def on_rate_signal(self, advised_rate_bps: float) -> None:
        """The network asked this host to slow down (§2.2)."""
        self.rate.on_backpressure(self.io.now, advised_rate_bps)
        for tx in self._client_txs.values():
            tx.manager.report_backpressure()
