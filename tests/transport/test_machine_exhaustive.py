"""Exhaustive small-scope exploration of the transaction machine (§4).

No sockets and no event loop: a client and a server
:class:`~repro.transport.machine.TransactionMachine` run one
transaction — a 2-member request and a 2-member response — through a
fake IO whose network holds every PDU in flight until the explorer
picks its fate.  From each state every move is tried:

* deliver any PDU in flight, so every arrival order is tried;
* lose it, duplicate it, or blackhole it — lose it and every later copy
  of the same direction, kind and member, as a member truncated on
  every attempt would be — at most :data:`FAULTS` of these per run;
* fire the earliest armed timer, ahead of everything still in flight —
  though no PDU is overtaken by two timers: the network's delay is
  bounded, as §4.2's packet lifetime bounds it.

States are hashed on what decides the future (timer and client
transaction deadlines relative to now, masks, the retry ladder, NAK
rounds, the PDUs in flight), so
the depth-first search ends.  Invariants: the handler runs at most
once; the client's completion callback runs at most once, and exactly
once by the end; at the end no timer is armed and neither machine
holds an assembly or a client transaction; and every schedule ends —
none returns to a state it was in, none runs past :data:`MAX_MOVES`
moves (the deepest one the machine reaches is 25), as NAKs and resends
did before the server's NAK rounds were bounded.  The search runs with
one fault allowed first, so such a loop is found within seconds, then
with :data:`FAULTS`.
"""

import copy
import time
from dataclasses import fields

from repro.dataplane.host import Delivered, Trailer
from repro.transport.ids import EntityIdAllocator
from repro.transport.machine import (
    MAX_MEMBER_PAYLOAD,
    TransactionMachine,
    TransportConfig,
)
from repro.transport.stats import TransportStats
from repro.transport.timestamps import HostClock

#: Two full members each way: a request and a response above 1 KiB.
MEMBER = MAX_MEMBER_PAYLOAD
#: Losses, duplicates and blackholes per run.
FAULTS = 3
#: Longer schedules are taken for ones that never end.
MAX_MOVES = 60
CONFIG = TransportConfig(
    rate_bps=float("inf"), base_timeout=0.05, nak_delay=0.025,
    retries_per_route=1, max_total_retries=1,
)
#: The trailer every PDU arrives under: no truncation mark.
TRAILER = Trailer(b"")


class _Tally:
    """Every counter and histogram: the invariants read the world."""

    def add(self, *_args) -> None:
        pass


TALLY = _Tally()


class _Stats:
    def __init__(self) -> None:
        for stat in fields(TransportStats):
            setattr(self, stat.name, TALLY)


class _Route:
    def expected_rtt(self, _size=0) -> float:
        return 0.0


class _Manager:
    """One route that never changes; rebinding is the RouteManager's."""

    route = _Route()

    def current(self):
        return self.route

    def report_failure(self):
        return self.route

    def report_rtt(self, _rtt, payload_size=0) -> None:
        pass

    def report_backpressure(self) -> None:
        pass


MANAGER = _Manager()
#: Objects no move changes, shared by every copy of the world.
SHARED = (CONFIG, TALLY, MANAGER, _Manager.route, TRAILER)


class _Timer:
    def __init__(self, deadline, seq, fn, args) -> None:
        self.deadline, self.seq, self.fn, self.args = deadline, seq, fn, args
        self.cancelled = False

    def cancel(self) -> None:
        self.cancelled = True


class _Clock:
    def __init__(self, world) -> None:
        self.world = world

    @property
    def now(self) -> float:
        return self.world.now


class _Io:
    """The machine's IO.  A zero delay (an unpaced member) runs at once,
    as the live adapter's does; everything else waits in the world."""

    def __init__(self, world, side) -> None:
        self.world, self.side = world, side

    @property
    def now(self) -> float:
        return self.world.now

    def after(self, delay, fn, *args):
        if delay <= 0.0:
            fn(*args)
            return None
        return self.world.arm(delay, fn, args)

    def send(self, _route, pdu, _priority) -> None:
        self.world.transmit(self.side, pdu)

    def send_return(self, _delivered, pdu) -> None:
        self.world.transmit(self.side, pdu)

    @staticmethod
    def join(parts):
        return tuple(parts)

    def discard(self, _reason) -> None:
        pass

    def record(self, _event, **_fields) -> None:
        pass


def _identity(side, pdu):
    return side, pdu.kind, pdu.member_index


def _pdu_key(side, pdu):
    return (side, pdu.kind.value, pdu.transaction_id, pdu.member_index,
            pdu.group_count, pdu.mask_bits)


def _machine_key(machine, now):
    # A client transaction's deadline is the machine's to keep: its one
    # timer waits for the earliest, not for each.
    transactions = tuple(sorted(
        (txid, tx.retries, tx.retries_this_route, tx.done,
         -1 if tx.response_mask is None else tx.response_mask.bits,
         round(tx.deadline - now, 9))
        for txid, tx in machine._client_txs.items()
    ))
    assemblies = tuple(sorted(
        (key, assembly.mask.bits, assembly.fruitless_naks,
         round(assembly.observed_gap, 9),
         round(now - assembly.last_arrival, 9),
         round(assembly.quiet_at - now, 9))
        for key, assembly in machine._assemblies.items()
    ))
    return (transactions, assemblies, tuple(machine._response_cache),
            len(machine._entities))


class World:
    """Both machines, their timers and the network between them."""

    def __init__(self, budget: int) -> None:
        #: Faults this run may still inject.
        self.budget = budget
        self.now = 0.0
        self.seq = 0
        self.timers = []
        self.flight = []
        self.faults = 0
        self.blackholed = set()
        self.handled = 0
        self.completions = []
        self.client = self._machine("client")
        self.server = self._machine("server")
        entity = self.server.create_entity(self.serve, "server")
        # The server NAKs from a client entity of its own: make it now,
        # so no move draws on an allocator.
        self.server._client_entity()
        self.client.transact(
            MANAGER, entity, b"request", 2 * MEMBER, self.complete,
        )

    def unchanging(self):
        """What no move changes: shared by every copy of this world."""
        return SHARED + tuple(
            part for machine in (self.client, self.server)
            for part in (machine.allocator, machine._tx_counter, machine.config)
        )

    def _machine(self, side):
        return TransactionMachine(
            _Io(self, side), CONFIG, HostClock(_Clock(self)),
            EntityIdAllocator(side), _Stats(),
        )

    def serve(self, _message):
        self.handled += 1
        return b"response", 2 * MEMBER

    def complete(self, result) -> None:
        self.completions.append(result.ok)

    def arm(self, delay, fn, args):
        self.seq += 1
        timer = _Timer(self.now + delay, self.seq, fn, args)
        self.timers.append(timer)
        return timer

    def transmit(self, side, pdu) -> None:
        """Put ``pdu`` in flight; a copy of one already in flight merges
        with it (the ``duplicate`` move is how a second copy arrives)."""
        if _identity(side, pdu) in self.blackholed:
            return
        key = _pdu_key(side, pdu)
        if all(_pdu_key(s, p) != key for s, p, _late in self.flight):
            self.flight.append((side, pdu, False))

    def armed(self):
        return [timer for timer in self.timers if not timer.cancelled]

    def moves(self):
        moves, seen = [], set()
        for index, (side, pdu, _late) in enumerate(self.flight):
            key = _pdu_key(side, pdu)
            if key in seen:
                continue
            seen.add(key)
            if self.faults < self.budget:
                moves += [("blackhole", index), ("lose", index),
                          ("duplicate", index)]
            moves.append(("deliver", index))
        if self.armed() and not any(late for _s, _p, late in self.flight):
            moves.append(("fire", None))
        return moves

    def apply(self, move) -> None:
        kind, index = move
        if kind == "fire":
            armed = self.armed()
            timer = min(armed, key=lambda t: (t.deadline, t.seq))
            self.timers = [t for t in armed if t is not timer]
            self.now = timer.deadline
            # Whatever was in flight has now been overtaken once.
            self.flight = [(s, p, True) for s, p, _late in self.flight]
            timer.fn(*timer.args)
            return
        side, pdu, _late = self.flight[index]
        if kind == "deliver":
            del self.flight[index]
            self.deliver(side, pdu)
            return
        self.faults += 1
        if kind == "lose":
            del self.flight[index]
        elif kind == "duplicate":
            self.deliver(side, copy.copy(pdu))
        else:
            lost = _identity(side, pdu)
            self.blackholed.add(lost)
            self.flight = [
                entry for entry in self.flight
                if _identity(entry[0], entry[1]) != lost
            ]

    def deliver(self, side, pdu) -> None:
        receiver = self.server if side == "client" else self.client
        receiver.on_pdu(pdu, Delivered(
            b"", 0, 0, CONFIG.socket, TRAILER, 0, None, self.now, 0, side,
        ))

    def key(self):
        now = self.now
        timers = tuple(sorted(
            ("client" if t.fn.__self__ is self.client else "server",
             t.fn.__name__, t.args, round(t.deadline - now, 9))
            for t in self.armed()
        ))
        return (
            timers,
            tuple(sorted(_pdu_key(s, p) + (late,) for s, p, late in self.flight)),
            self.faults, frozenset(self.blackholed), self.handled,
            tuple(self.completions),
            _machine_key(self.client, now), _machine_key(self.server, now),
        )

    def check_safety(self) -> None:
        assert self.handled <= 1, "the handler ran twice"
        assert len(self.completions) <= 1, "the client completed twice"

    def check_end(self) -> None:
        assert len(self.completions) == 1, "the client never completed"
        for machine in (self.client, self.server):
            assert not machine._client_txs, "a client transaction is held"
            assert not machine._assemblies, "an assembly is held"


def explore(budget: int):
    """Depth first over every move from every state; returns the number
    of states seen and of end states.  Fails on the first state that
    recurs on the schedule being explored."""
    start = World(budget)
    shared = {id(part): part for part in start.unchanging()}
    start_key = start.key()
    seen, on_path, ends = {start_key}, {start_key}, 0
    stack = [(start_key, start, iter(start.moves()))]
    while stack:
        key, world, moves = stack[-1]
        move = next(moves, None)
        if move is None:
            stack.pop()
            on_path.discard(key)
            continue
        successor = copy.deepcopy(world, dict(shared))
        successor.apply(move)
        successor.check_safety()
        next_key = successor.key()
        assert next_key not in on_path, (
            "a schedule returns to a state it was in: it can repeat "
            "forever (a livelock)"
        )
        if next_key in seen:
            continue
        seen.add(next_key)
        next_moves = successor.moves()
        if not next_moves:
            successor.check_end()
            ends += 1
            continue
        on_path.add(next_key)
        stack.append((next_key, successor, iter(next_moves)))
        assert len(stack) <= MAX_MOVES, (
            f"a schedule of more than {MAX_MOVES} moves: it may never end "
            "(a livelock)"
        )
    return len(seen), ends


def test_one_transaction_under_every_schedule_of_up_to_three_faults():
    for budget in (1, FAULTS):
        started = time.perf_counter()
        states, ends = explore(budget)
        print(
            f"transaction machine, {budget} fault(s): {states} states "
            f"explored, {ends} end states, "
            f"{time.perf_counter() - started:.1f} s"
        )
        assert ends
