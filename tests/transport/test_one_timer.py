"""One timer per transaction machine, for the earliest client deadline.

A client with many transactions out used to arm (and cancel) an event
loop timer for each.  The machine now records each transaction's
deadline and keeps one timer, for the earliest: it is re-armed when an
earlier deadline appears, and after it fires, for the next; it goes with
the last transaction.  Driven here on a virtual clock whose ``after``
counts what is armed: every timeout must still fire at the instant the
transaction's own timer would have, in deadline order, ties in the
order the deadlines were set.  Times are multiples of 1/256 s, so the
clock's sums are exact.
"""

import math

from repro.dataplane.host import Delivered, Trailer
from repro.transport.ids import EntityIdAllocator
from repro.transport.machine import (
    WILDCARD_ENTITY,
    PduKind,
    TransactionMachine,
    TransportConfig,
    VmtpPdu,
)
from repro.transport.stats import TransportStats
from repro.transport.timestamps import HostClock

#: Every timeout is the base timeout (the test routes advertise no RTT
#: unless told to), nothing is paced, and no retry ladder runs out.
CONFIG = TransportConfig(
    rate_bps=math.inf, base_timeout=0.25,
    retries_per_route=100, max_total_retries=100,
)


class Timer:
    def __init__(self, when, seq, fn, args):
        self.when, self.seq, self.fn, self.args = when, seq, fn, args
        self.cancelled = False

    def cancel(self):
        self.cancelled = True


class CountingIo:
    """The machine's IO on a virtual clock, keeping every timer armed and
    every retry recorded, with the instant it happened."""

    def __init__(self):
        self.now = 0.0
        self.timers = []
        self.retries = []
        self.sent = []

    def after(self, delay, fn, *args):
        if delay <= 0.0:
            fn(*args)
            return None
        timer = Timer(self.now + delay, len(self.timers), fn, args)
        self.timers.append(timer)
        return timer

    def pending(self):
        return [timer for timer in self.timers
                if not timer.cancelled and not hasattr(timer, "fired")]

    def run_until(self, until):
        """Fire every pending timer due by ``until``, in time order (ties:
        the one armed first), then leave the clock at ``until``."""
        while True:
            due = [timer for timer in self.pending() if timer.when <= until]
            if not due:
                break
            timer = min(due, key=lambda t: (t.when, t.seq))
            timer.fired = self.now = timer.when
            timer.fn(*timer.args)
        self.now = until

    def send(self, _route, pdu, _priority):
        self.sent.append(pdu)

    def send_return(self, _delivered, pdu):
        self.sent.append(pdu)

    @staticmethod
    def join(parts):
        return b"".join(parts)

    def discard(self, _reason):
        pass

    def record(self, event, **fields):
        if event == "transaction_retry":
            self.retries.append((self.now, fields["txid"], fields["attempt"]))


def arrival(io):
    """A PDU's delivery now: untruncated, arrived at ``io``'s clock."""
    return Delivered(b"", 0, 0, CONFIG.socket, Trailer(b""), 0, None, io.now, 0)


class Route:
    def __init__(self, rtt=0.0):
        self.rtt = rtt

    def expected_rtt(self, _size=0):
        return self.rtt

    def max_payload(self):
        return 1500  # room for a full member: members stay 1 KiB


class Manager:
    """One route at a time; ``route`` is rebound to switch."""

    def __init__(self, rtt=0.0):
        self.route = Route(rtt)

    def current(self):
        return self.route

    def report_failure(self):
        return self.route

    def report_rtt(self, _rtt, payload_size=0):
        pass

    def report_backpressure(self):
        pass


def client():
    io = CountingIo()
    machine = TransactionMachine(
        io, CONFIG, HostClock(io), EntityIdAllocator("client"), TransportStats(),
    )
    return io, machine


def timer_arms(io, machine):
    return [timer for timer in io.timers if timer.fn == machine._on_timer]


def launch(io, machine, manager, at, results):
    io.run_until(at)
    return machine.transact(manager, WILDCARD_ENTITY, b"x", 1, results.append)


def response(machine, transaction_id):
    """The one-member response that completes ``transaction_id``."""
    return VmtpPdu(
        PduKind.RESPONSE, transaction_id, 99, machine._client, 0, 1, 0,
        CONFIG.socket, 0, 1, b"y",
    )


def test_thirty_two_transactions_in_flight_arm_one_timer():
    io, machine = client()
    manager, results = Manager(), []
    for i in range(32):
        launch(io, machine, manager, i / 256, results)
    # A timer per transaction armed 32 here.
    assert len(machine._client_txs) == 32
    assert len(timer_arms(io, machine)) == 1
    assert [timer.when for timer in io.pending()] == [0.25]


def test_each_transaction_times_out_at_its_own_deadline():
    io, machine = client()
    manager, results, launched = Manager(), [], []
    for i in range(32):
        launched.append((i / 64, launch(io, machine, manager, i / 64, results)))
    # Launched over 0.48 s: the first timeouts fire between launches.
    io.run_until(1.0)
    # A per-transaction timer fired each timeout base_timeout after the
    # transaction's launch or its last timeout: at launch + k/4.
    expected = sorted(
        (start + attempt * 0.25, txid, attempt)
        for start, txid in launched
        for attempt in range(1, 5) if start + attempt * 0.25 <= 1.0
    )
    assert sorted(io.retries) == expected
    times = [at for at, _txid, _attempt in io.retries]
    assert times == sorted(times)
    # At 0.5 the first transaction's second deadline ties the 17th's
    # first; the first's was set at 0.25, before the 17th was launched.
    assert [(txid, n) for at, txid, n in io.retries if at == 0.5] == [
        (launched[0][1], 2), (launched[16][1], 1),
    ]
    # One timer throughout, re-armed for the next deadline after each
    # firing: never more than one pending.
    assert len(io.pending()) == 1
    assert results == []


def test_ties_go_in_the_order_the_deadlines_were_set():
    io, machine = client()
    results = []
    first = launch(io, machine, Manager(), 0.0, results)            # due 0.25
    # 4 x 3/32 = 0.375: due 0.5, set at 0.125.
    second = launch(io, machine, Manager(rtt=3 / 32), 0.125, results)
    # The first times out at 0.25 and is due again at 0.5, set later.
    io.run_until(0.5)
    assert io.retries == [(0.25, first, 1), (0.5, second, 1), (0.5, first, 2)]


def test_an_earlier_deadline_re_arms_the_timer():
    io, machine = client()
    manager, results = Manager(rtt=0.25), []        # timeout 4 x 0.25 = 1.0
    slow = launch(io, machine, manager, 0.0, results)
    (armed,) = timer_arms(io, machine)
    assert armed.when == 1.0
    manager.route = Route()                          # a switch: timeout 0.25
    fast = launch(io, machine, manager, 0.125, results)
    assert armed.cancelled
    assert [timer.when for timer in io.pending()] == [0.375]
    # A later deadline leaves the timer alone.
    launch(io, machine, Manager(rtt=0.25), 0.25, results)
    assert [timer.when for timer in io.pending()] == [0.375]
    io.run_until(1.0)
    assert [(at, txid) for at, txid, _n in io.retries[:3]] == [
        (0.375, fast), (0.625, fast), (0.875, fast),
    ]
    assert (1.0, slow, 1) in io.retries


def test_finishing_or_abandoning_the_last_transaction_cancels_the_timer():
    io, machine = client()
    manager, results = Manager(), []
    done = launch(io, machine, manager, 0.0, results)
    left = launch(io, machine, manager, 0.125, results)
    machine.on_pdu(response(machine, done), arrival(io))
    assert [result.payload for result in results] == [b"y"]
    # Another transaction is out: the timer stays.
    assert len(io.pending()) == 1
    machine.abandon(left)
    assert io.pending() == []
    # And a completion: launch one, answer it.
    last = launch(io, machine, manager, 0.25, results)
    assert len(io.pending()) == 1
    machine.on_pdu(response(machine, last), arrival(io))
    assert io.pending() == [] and machine._client_txs == {}
    assert len(results) == 2
    io.run_until(2.0)
    assert io.retries == []


def test_a_lone_transaction_arms_as_a_timer_of_its_own_did():
    """Launch, each timeout and a resend after a NAK: every deadline set
    re-arms the timer, the old one cancelled, as the simulator's event
    stream had it with a timer per transaction."""
    io, machine = client()
    results = []
    txid = launch(io, machine, Manager(), 0.0, results)
    io.run_until(0.5)
    assert io.retries == [(0.25, txid, 1), (0.5, txid, 2)]
    assert [timer.when for timer in timer_arms(io, machine)] == [0.25, 0.5, 0.75]
    # The server misses the one member: resending it moves the deadline
    # later, and the timer with it.
    io.run_until(0.625)
    machine.on_pdu(VmtpPdu(
        PduKind.REQUEST_NAK, txid, 99, machine._client, 0, 1, 0,
        CONFIG.socket, 0,
    ), arrival(io))
    arms = timer_arms(io, machine)
    assert [timer.when for timer in arms] == [0.25, 0.5, 0.75, 0.875]
    assert arms[2].cancelled and not arms[3].cancelled
