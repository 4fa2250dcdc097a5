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

Inputs are calls: :meth:`TransactionMachine.on_pdu` (the codec's
verdict on an arrived PDU, :func:`~repro.transport.codec.open_pdu`, and
the delivery it came in), the timers the machine armed,
:meth:`~TransactionMachine.transact` and the entity calls, and
:meth:`~TransactionMachine.on_rate_signal`.  Every output
goes through the injected ``io`` object:

* ``io.now`` — the substrate's clock, in seconds;
* ``io.after(delay, fn, *args)`` — call ``fn(*args)`` ``delay``
  seconds from now; returns a handle with ``cancel()``;
* ``io.send(route, pdu, priority)`` — along a source route;
* ``io.send_return(delivered, pdu)`` — along the reversed trailer route
  of a delivered PDU, to ``pdu.reply_socket``;
* ``io.join(parts)`` — a group's payload from its members' payloads,
  in member order;
* ``io.discard(reason)`` — a PDU was dropped here, and why;
* ``io.record(event, **fields)`` — a retry or a route switch, for the
  flight recorder.

The order of those calls is part of the contract: the simulator
numbers its events in the order ``after`` is called.  Both substrates'
adapters share everything but the clock
(:class:`~repro.transport.transactor.TransactorIO`).
"""

from __future__ import annotations

import itertools
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple, Union

from repro.transport.codec import OVERHEAD, PduKind, VmtpPdu
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


@dataclass(frozen=True)
class TransportConfig:
    """Timing parameters of the transport (a PDU's sizes are the
    codec's, :data:`~repro.transport.codec.OVERHEAD` around its member).

    The defaults are the simulator's; the live overlay's are
    :data:`repro.live.host.LIVE_TRANSPORT`.
    """

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
    #: The response, joined by ``io.join`` (``b""`` when it failed).
    payload: Any = b""
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
        #: When the transaction times out, and the number of the arm
        #: that set it: a tie between deadlines goes to the earlier arm.
        self.deadline = 0.0
        self.armed = 0
        self.response_mask: Optional[DeliveryMask] = None
        self.response_parts: Dict[int, Any] = {}
        self.response_size = 0
        self.done = False


class _ServerAssembly:
    def __init__(self, group_count: int, now: float, entity: EntityId) -> None:
        #: The local entity the request is for: its NAKs come from it.
        self.entity = entity
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


#: Builds an :class:`_Answer` from its three fields, as the named
#: tuple's own ``__new__`` does, without that Python-level call.
_answer = tuple.__new__

#: Largest packet group, for the inline group checks.
_MAX_MEMBERS = DeliveryMask.MAX_MEMBERS


def _deadline_order(tx: _ClientTransaction) -> Tuple[float, int]:
    """Client transactions time out by deadline, ties in arm order."""
    return tx.deadline, tx.armed


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
        #: The first client-only and the first serving entity of
        #: ``_entities`` (None when there is none), kept by
        #: :meth:`_entities_changed`: requests go out from the one, a
        #: wildcard PDU is taken for the other.
        self._client: Optional[EntityId] = None
        self._server: Optional[EntityId] = None
        #: The route :meth:`_member_budget` last sized members for, and
        #: that budget.
        self._budget_route: Any = None
        self._budget = MAX_MEMBER_PAYLOAD
        #: The one client timer (None while it is not armed), the
        #: deadline it waits for, and how many deadlines were set.
        self._timer: Any = None
        self._timer_at = 0.0
        self._arms = 0

    # -- entities -----------------------------------------------------------

    def create_entity(self, handler: Optional[Handler], hint: str) -> EntityId:
        """Register a transport endpoint; with a handler it is a server."""
        entity = self.allocator.allocate(hint)
        self._entities[entity] = handler
        self._entities_changed()
        return entity

    def adopt_entity(self, entity: EntityId, handler: Optional[Handler]) -> None:
        """Take over an entity that migrated from another host (§4.1)."""
        self._entities[entity] = handler
        self._entities_changed()

    def drop_entity(self, entity: EntityId) -> None:
        """Release a local entity (it migrated away or terminated)."""
        self._entities.pop(entity, None)
        self._entities_changed()

    def _entities_changed(self) -> None:
        self._client = self._server = None
        for entity, handler in self._entities.items():
            if handler is None:
                if self._client is None:
                    self._client = entity
            elif self._server is None:
                self._server = entity

    def _client_entity(self) -> EntityId:
        """The id requests are sent from (auto-created on first use)."""
        if self._client is None:
            return self.create_entity(None, hint="client")
        return self._client

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
        budget = self._member_budget(manager.current())
        member_sizes = [size] if 0 < size <= budget else split_into_group(size, budget)
        # A logical packet is as long as its size says: a shorter
        # payload is its head, zeros the rest.
        short = size - len(payload)
        if short > 0:
            payload += bytes(short)
        tx = _ClientTransaction(
            transaction_id, dst_entity, payload, member_sizes,
            manager, priority, on_complete,
        )
        # One clock read: the start, the creation stamp, the deadline.
        now = tx.started_at = self.io.now
        self._client_txs[transaction_id] = tx
        self._launch_group(tx, None, now)
        return transaction_id

    def abandon(self, transaction_id: int) -> None:
        """Forget a transaction whose caller stopped waiting for it."""
        tx = self._client_txs.get(transaction_id)
        if tx is not None:
            self._forget(tx)

    def _forget(self, tx: _ClientTransaction) -> None:
        """Take ``tx`` off the books; the timer goes with the last one."""
        tx.done = True
        self._client_txs.pop(tx.transaction_id, None)
        if not self._client_txs and self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _member_budget(self, route: Any) -> int:
        """Largest member payload ``route`` carries untruncated: asked of
        a route once, while it stays the one transactions go out on."""
        if route is self._budget_route:
            return self._budget
        budget = MAX_MEMBER_PAYLOAD
        max_payload = getattr(route, "max_payload", None)
        if callable(max_payload):
            wire_budget = max_payload() - OVERHEAD
            if wire_budget > 0:
                budget = min(budget, wire_budget)
        self._budget_route, self._budget = route, budget
        return budget

    def _launch_group(
        self, tx: _ClientTransaction, indices: Optional[List[int]], now: float,
    ) -> None:
        """Send (or re-send) request members, paced by the rate
        controller; ``now`` is the clock, read by the caller."""
        route = tx.manager.current()
        sizes = tx.member_sizes
        count = len(sizes)
        if indices is None:
            indices = range(count)
        src_entity = self._client_entity()
        # What the group fixes is computed once: the creation stamp (the
        # clock does not move inside one launch) and the members' pacing
        # gaps.
        stamp = self.clock.stamp(now)
        if count == 1:
            # A one-member group: its member, then the timer after its gap.
            self.io.after(0.0, self._send, route, VmtpPdu(
                PduKind.REQUEST, tx.transaction_id, src_entity, tx.dst_entity,
                0, 1, stamp, self.config.socket, 0, sizes[0], tx.payload,
            ), tx.priority)
            self._arm_timer(tx, route, self.rate.gap_for(OVERHEAD + sizes[0]), now)
            return
        full, (group_gap, last_gap) = sizes[0], self._member_gaps(sizes)
        after, send = self.io.after, self._send
        txid, dst_entity, socket = tx.transaction_id, tx.dst_entity, self.config.socket
        payload, priority = tx.payload, tx.priority
        offset = 0.0
        for index in indices:
            member = sizes[index]
            # Every member but the last is full: this one starts at
            # index times the first member's size.
            pdu = VmtpPdu(
                PduKind.REQUEST, txid, src_entity, dst_entity, index, count,
                stamp, socket, 0, member, payload, group_gap, index * full,
            )
            after(offset, send, route, pdu, priority)
            offset += group_gap if member == full else last_gap
        self._arm_timer(tx, route, offset, now)

    def _member_gaps(self, sizes: List[int]) -> Tuple[float, float]:
        """The pacing gaps of a group's full member and of its last (a
        PDU's gap is its wire size's): every member but the last is
        full."""
        gap_for = self.rate.gap_for
        return gap_for(OVERHEAD + sizes[0]), gap_for(OVERHEAD + sizes[-1])

    def _arm_timer(
        self, tx: _ClientTransaction, route: Any, pacing: float, now: float,
    ) -> None:
        """Set ``tx``'s deadline, its timeout after ``now``.

        The machine keeps one timer, for the earliest deadline: it is
        re-armed here only for a deadline earlier than the one it waits
        for — or for the only client transaction out, whose timer moves
        with its deadline exactly as a timer per transaction did.
        """
        timeout = max(
            self.config.base_timeout,
            route.expected_rtt(sum(tx.member_sizes)) * TIMEOUT_RTT_MULTIPLIER,
        ) + pacing
        deadline = tx.deadline = now + timeout
        self._arms += 1
        tx.armed = self._arms
        timer = self._timer
        if timer is not None:
            if deadline >= self._timer_at and len(self._client_txs) > 1:
                return
            timer.cancel()
        self._timer_at = deadline
        self._timer = self.io.after(timeout, self._on_timer)

    def _on_timer(self) -> None:
        """The earliest deadline came: time out every client transaction
        now due, in deadline order (ties: the one armed first), then arm
        the timer for the earliest deadline left.

        The spent timer stays the machine's while they time out, so a
        new deadline re-arms it only as it would a waiting timer: a lone
        transaction's at once, exactly as before; the others' once, here,
        after the last.
        """
        now = self.io.now
        # Everything up to the deadline the timer was armed for is due
        # (a loop may fire a hair before its own clock says so).
        due_at = self._timer_at if self._timer_at > now else now
        spent = self._timer
        due = [tx for tx in self._client_txs.values() if tx.deadline <= due_at]
        due.sort(key=_deadline_order)
        for tx in due:
            if not tx.done:
                self._on_timeout(tx, now)
        if self._timer is spent:
            self._timer = None
            if self._client_txs:
                deadline = min(self._client_txs.values(), key=_deadline_order).deadline
                self._timer_at = deadline
                self._timer = self.io.after(deadline - now, self._on_timer)

    def _on_timeout(self, tx: _ClientTransaction, now: float) -> None:
        transaction_id = tx.transaction_id
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
            self._send_nak(tx, now)
            self._arm_timer(tx, tx.manager.current(), 0.0, now)
        else:
            # No response yet: probe with the request's last member.  A
            # server that answered replays its response from the cache;
            # one missing members NAKs them; one that never heard of the
            # transaction NAKs the rest.  A timeout that fired while the
            # response was on its way costs one member, not the group.
            self._launch_group(tx, [len(tx.member_sizes) - 1], now)

    def _send_nak(self, tx: _ClientTransaction, now: float) -> None:
        assert tx.response_mask is not None
        route = tx.manager.current()
        pdu = VmtpPdu(
            kind=PduKind.RESPONSE_NAK,
            transaction_id=tx.transaction_id,
            src_entity=self._client_entity(),
            dst_entity=tx.dst_entity,
            member_index=0,
            group_count=tx.response_mask.count,
            timestamp=self.clock.stamp(now),
            reply_socket=self.config.socket,
            mask_bits=tx.response_mask.bits,
        )
        self.stats.naks_sent.add()
        self._send(route, pdu, tx.priority)

    def _finish(self, tx: _ClientTransaction, result: TransactionResult) -> None:
        if tx.done:
            return
        self._forget(tx)
        if result.ok:
            self.stats.transactions_ok.add()
            tx.manager.report_rtt(result.rtt, payload_size=sum(tx.member_sizes))
        else:
            self.stats.transactions_failed.add()
        tx.on_complete(result)

    # -- sending ----------------------------------------------------------------

    def _send(self, route: Any, pdu: VmtpPdu, priority: int) -> None:
        self.stats.sent_pdus.add()
        self.io.send(route, pdu, priority)

    def _send_return(self, delivered: Any, pdu: VmtpPdu) -> None:
        self.stats.sent_pdus.add()
        self.io.send_return(delivered, pdu)

    # -- receive path --------------------------------------------------------------

    def on_pdu(self, pdu: Union[VmtpPdu, str], delivered: Any) -> None:
        """A PDU arrived in ``delivered``
        (:class:`~repro.dataplane.host.Delivered`), what a reply goes back
        along: ``pdu`` is :func:`~repro.transport.codec.open_pdu`'s
        verdict on its bytes, the PDU or why there is none.  The
        delivery's trailer says whether the network truncated it, and
        its ``arrived_at`` — on the clock's time source — is what §4.2's
        age check measures against.
        """
        self.stats.received_pdus.add()
        # §2/§4.3: a truncated member lost its tail in the network; it
        # counts as a loss and selective retransmission recovers it.
        if delivered.trailer.truncated:
            self.stats.truncated_rejects.add()
            self.io.discard("truncated")
            return
        if pdu.__class__ is str:
            # §4.1: the transport checksum catches what the missing
            # header checksum lets through.
            if pdu == "checksum":
                self.stats.checksum_failures.add()
            self.io.discard(pdu)
            return
        # §4.1: unique ids make misdelivery detectable.  A client that
        # does not know the server's id sends the wildcard, which only a
        # request or a response NAK may carry.
        kind = pdu.kind
        if pdu.dst_entity not in self._entities:
            if pdu.dst_entity != WILDCARD_ENTITY or self._server is None or not (
                kind is PduKind.REQUEST or kind is PduKind.RESPONSE_NAK
            ):
                self.stats.misdelivered.add()
                self.io.discard("misdelivered")
                return
            pdu.dst_entity = self._server
        # §4.2: maximum packet lifetime from the creation timestamp.
        if not self.config.mpl.accept(pdu.timestamp, self.clock, delivered.arrived_at):
            self.stats.lifetime_rejects.add()
            self.io.discard("too_old")
            return
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
        index, count = pdu.member_index, pdu.group_count
        if not 0 <= index < count <= _MAX_MEMBERS:
            self.io.discard("bad_group")
            return
        assembly = self._assemblies.get(key)
        if assembly is None:
            if count == 1:
                # A one-member request is whole on arrival.
                self._complete_request(
                    key, pdu, [pdu.user_data], pdu.user_size, delivered,
                )
                return
            now = self.io.now
            assembly = _ServerAssembly(count, now, pdu.dst_entity)
            self._assemblies[key] = assembly
        else:
            now = self.io.now
        # The member's group bookkeeping is one operation on the mask's
        # bits: a member outside the assembly's group, or one it holds,
        # is refused.
        mask = assembly.mask
        bit = 1 << index
        if bit > mask.full:
            self.io.discard("bad_group")
            return
        if mask.bits & bit:
            self.io.discard("duplicate_member")
            return
        mask.bits |= bit
        gap = now - assembly.last_arrival
        if gap > assembly.observed_gap:
            assembly.observed_gap = gap
        assembly.last_arrival = now
        assembly.fruitless_naks = 0
        assembly.parts[index] = pdu.user_data
        assembly.total_size += pdu.user_size
        assembly.delivered = delivered
        if mask.bits == mask.full:
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
        quiet = self.config.nak_delay
        if 2.0 * assembly.observed_gap > quiet:
            quiet = 2.0 * assembly.observed_gap
        if 2.0 * pdu.pacing_gap > quiet:
            quiet = 2.0 * pdu.pacing_gap
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
            PduKind.REQUEST_NAK, transaction_id, assembly.entity,
            EntityId(src_entity), 0, assembly.mask.count, self.clock.stamp(),
            self.config.socket, assembly.mask.bits,
        )
        self.stats.naks_sent.add()
        self._send_return(assembly.delivered, pdu)

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
        if reply_size < 1:
            reply_size = 1
        answer = _answer(_Answer, (
            reply_payload,
            [reply_size] if reply_size <= MAX_MEMBER_PAYLOAD
            else split_into_group(reply_size, MAX_MEMBER_PAYLOAD),
            pdu.reply_socket,
        ))
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
        # As a request's in :meth:`transact`: a shorter payload is the
        # head of its size in zeros, here, so the cache keeps only what
        # the handler returned.
        payload = answer.payload
        short = sizes[0] * (count - 1) + sizes[-1] - len(payload)
        if short > 0:
            payload += bytes(short)
        # Fixed by the group, as in :meth:`_launch_group`.
        stamp = self.clock.stamp()
        if count == 1:
            # A one-member response: its member, and no gap after it.
            self.io.after(0.0, self._send_return, delivered, VmtpPdu(
                PduKind.RESPONSE, request.transaction_id, request.dst_entity,
                request.src_entity, 0, 1, stamp, answer.reply_socket, 0,
                sizes[0], payload,
            ))
            return
        full, (full_gap, last_gap) = sizes[0], self._member_gaps(sizes)
        after, send_return = self.io.after, self._send_return
        txid, src_entity, dst_entity = (
            request.transaction_id, request.dst_entity, request.src_entity,
        )
        reply_socket = answer.reply_socket
        offset = 0.0
        for index in only if only is not None else range(count):
            member = sizes[index]
            pdu = VmtpPdu(
                PduKind.RESPONSE, txid, src_entity, dst_entity, index, count,
                stamp, reply_socket, 0, member, payload, 0.0, index * full,
            )
            after(offset, send_return, delivered, pdu)
            offset += full_gap if member == full else last_gap

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
            self._launch_group(tx, missing, self.io.now)

    def _on_response(self, pdu: VmtpPdu) -> None:
        tx = self._client_txs.get(pdu.transaction_id)
        if tx is None or tx.done:
            # A replay that lost the race with the original it duplicates.
            self.io.discard("stale_pdu")
            return
        index, count = pdu.member_index, pdu.group_count
        if not 0 <= index < count <= _MAX_MEMBERS:
            self.io.discard("bad_group")
            return
        mask = tx.response_mask
        if mask is None:
            if count == 1:  # whole on arrival
                self._succeed(tx, [pdu.user_data], pdu.user_size)
                return
            mask = tx.response_mask = DeliveryMask(count)
        # One mask operation, as for a request member.
        bit = 1 << index
        if bit > mask.full:
            self.io.discard("bad_group")
            return
        if mask.bits & bit:
            self.io.discard("duplicate_member")
            return
        mask.bits |= bit
        tx.response_parts[index] = pdu.user_data
        tx.response_size += pdu.user_size
        if mask.bits == mask.full:
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
