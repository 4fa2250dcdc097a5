"""F3 — the transport's per-member bill: a socket-free transactor pair.

Two real :class:`~repro.live.host.LiveHost` + :class:`~repro.live.host.
LiveTransactor` pairs, client and server, with no sockets and no
routers between them: each host's endpoint hands a frame across by
copying it into a slot of the peer's buffer ring (what ``recvmsg_into``
does), moving it over :data:`ROUTER_HOPS` router hops in place
(:func:`~repro.live.frames.hop_move_into`, so a delivered request carries
the trailer a reply is routed along) and queueing it for the peer's next
batch.  Everything the transport does per member — framing, the PDU
codec, the CRC-32, the transaction machine's group bookkeeping, the
reply route — runs as it does on the live overlay; what the kernel and
the routers do is the ``wire`` row.

Rows are priced **from outside**: the seams are wrapped on the
instances (nothing in ``src/`` knows it is measured) and each row is
the self time of its seams, less the probe's own cost:

* ``host rx`` — the host's batch step (``endpoint.on_batch``: copy out
  of the slot, open the frame in the host core, hand it up);
* ``PDU check+decode`` — the transactor's handler in the host core's
  socket table (CRC check, decode);
* ``machine receive`` — ``TransactionMachine.on_pdu`` (§4.1/§4.2
  checks, group mask, assembly, timers);
* ``machine send`` — ``transact``, ``_launch_group`` and
  ``_send_response_group`` (member PDUs, pacing, timer arm);
* ``PDU encode+frame`` — the transactor's ``send`` / ``send_return``;
* ``host tx`` — ``LiveHost.send`` / ``send_return`` down to the
  endpoint;
* ``server handler`` — the application;
* ``timer arm/cancel`` — the event loop's ``call_later`` (a
  transaction's timeout, an assembly's NAK timer) and a timer handle's
  ``cancel``;
* ``future + loop`` — what no seam covers: the ``transact`` coroutine,
  its future, the event loop's turn.

The wire times itself and is taken out of every pass.  A pass
interleaves blocks of unprobed, probed and twice-probed transactions,
so the box's drift falls on all three alike; the second probe layer
prices a span where it runs, and the rows of the first, cleared of
that, sum to the unprobed pair's time within the printed closure.
``calls/tx`` is cProfile's exact call count per transaction with the
wire paused.  Print-only: nothing here is a gate.
"""

from __future__ import annotations

import asyncio
import asyncio.events
import cProfile
import gc
import time
from collections import defaultdict
from typing import Callable, Dict, List

from repro.directory.routes import Route
from repro.live.frames import decode_preamble, hop_move_into, return_tail_of
from repro.live.host import LIVE_TRANSPORT, LiveHost, LiveTransactor, WallClock
from repro.transport.rebind import RouteManager
from repro.viper.wire import HeaderSegment, PacketView

from benchmarks._common import format_table, publish

#: Request and response bytes of one transaction: one member each way,
#: and ``live_bulk``'s 16 + 16 members of 1 KiB.
SIZES = (64, 16 * 1024)
#: Transactions per block, per size; a pass is :data:`BLOCKS` blocks of
#: each mode, the modes interleaved block by block.
BLOCK_TX = {64: 100, 16 * 1024: 10}
BLOCKS = 40
#: Routers a frame crosses each way (``live_bulk``'s line topology).
ROUTER_HOPS = 2
#: A router's token rides every return segment, as on a token-checked
#: route: the reply header a server writes has real bytes to copy.
TOKEN = bytes(range(24))
#: The address each host's port 1 leads to.
ROUTER = ("127.0.0.1", 9001)

ROWS = (
    "host rx", "PDU check+decode", "machine receive", "machine send",
    "PDU encode+frame", "host tx",
)
#: The rest of the pair's time: the application, the event loop's
#: timers, and what no seam covers.
OTHER_ROWS = ("server handler", "timer arm/cancel", "future + loop")
#: The stand-in network, a seam of its own so no row holds it.
WIRE = "wire"


class HostPair:
    """A ``client`` and a ``server`` :class:`LiveHost` joined without
    sockets or routers.

    A frame either host sends is logged in ``sent[name]`` (when
    ``logs_sent``), copied into a slot of the peer's ring (what
    ``recvmsg_into`` does), moved over ``hops`` router hops in place
    (each appending a return segment that carries ``token``, so a
    delivered frame has a trailer to reply along) and queued in
    ``queued[peer]``; :meth:`pump` hands the queues
    to the hosts as batches until nothing is left, and :meth:`lose`
    drops what is queued.  The crossing times itself (``ns``) so a pass
    can take the stand-in network out, and pauses ``profile`` when one
    is set so the calls counted are the hosts'.  The transport tests
    drive hosts through it too.
    """

    #: Whether ``sent`` keeps a copy of every frame sent.
    logs_sent = True

    def __init__(self, hops: int = ROUTER_HOPS, token: bytes = TOKEN) -> None:
        self.hops = hops
        self.token = token
        self.client = LiveHost("client")
        self.server = LiveHost("server")
        self.hosts = {"client": self.client, "server": self.server}
        self.sent: Dict[str, List[bytes]] = {name: [] for name in self.hosts}
        self.queued: Dict[str, List] = {name: [] for name in self.hosts}
        self.ns = 0
        self.profile = None
        tail = return_tail_of(HeaderSegment(port=1, token=token))
        for name, host in self.hosts.items():
            # Port 1 of each host is its attachment to the first router.
            host.connect_port(1, ROUTER)
            peer = "server" if name == "client" else "client"
            host.endpoint.send = self._sender(name, peer, tail)

    def _sender(self, name: str, peer: str, tail: bytes) -> Callable:
        ring = self.hosts[peer].endpoint.ring
        log = self.sent[name].append if self.logs_sent else None
        queue = self.queued[peer]
        clock = time.perf_counter_ns

        def send(datagram, addr):
            profile = self.profile
            if profile is not None:
                profile.disable()
            started = clock()
            if log is not None:
                log(bytes(datagram))
            slot = ring.acquire()
            slot.buffer[:len(datagram)] = datagram
            view = PacketView.of_slot(slot, len(datagram))
            for _ in range(self.hops):
                hop_move_into(view, tail)
            queue.append((view, ROUTER, decode_preamble(view.mem)))
            self.ns += clock() - started
            if profile is not None:
                profile.enable()
            return 0

        return send

    def route(self, destination: str, socket: int = LIVE_TRANSPORT.socket) -> Route:
        """``hops`` router segments, then ``destination``'s ``socket``.
        Its advertised RTT, 1 s at any size (no rate, 0.5 s each way),
        is one no pass comes near: no sample counts as degraded, so the
        calls a transaction makes do not vary."""
        segments = tuple(
            HeaderSegment(port=2, token=self.token) for _ in range(self.hops)
        ) + (HeaderSegment(port=socket),)
        return Route(
            destination, segments, first_hop_port=1, first_hop_mac=None,
            propagation_delay=0.5,
        )

    def manager(self) -> RouteManager:
        """A route manager holding the one client-to-server route."""
        return RouteManager(WallClock(), [self.route("server")])

    def pump(self) -> None:
        """Deliver queued frames, one batch per host per turn, until quiet."""
        busy = True
        while busy:
            busy = False
            for name, queue in self.queued.items():
                if queue:
                    batch = queue[:]
                    queue.clear()
                    self.hosts[name].endpoint.on_batch(batch)
                    busy = True

    def lose(self, name: str) -> None:
        """Lose every frame queued for ``name``."""
        for view, _source, _preamble in self.queued[name]:
            view.release()
        self.queued[name].clear()


class _Pair(HostPair):
    """A pair whose server echoes through :attr:`handler`.  It logs no
    frame: a pass would otherwise hold every frame it sent."""

    logs_sent = False

    def __init__(self) -> None:
        super().__init__()
        self.client_tx = LiveTransactor(self.client)
        self.server_tx = LiveTransactor(self.server)
        self.handler = lambda request: request
        self.server_tx.serve(lambda request: self.handler(request))

    async def run(self, payload: bytes, count: int) -> None:
        """``count`` transactions, one at a time, each pumped to the end."""
        transact, manager, pump = self.client_tx.transact, self.manager(), self.pump
        for _ in range(count):
            step = transact(manager, payload).__await__()
            next(step)  # the request group is out; transact awaits its future
            pump()
            try:
                next(step)
            except StopIteration as done:
                result = done.value
            else:
                raise RuntimeError("the response did not complete the transaction")
            if not result.ok or len(result.payload) != len(payload):
                raise RuntimeError(f"transaction failed: {result}")
            await asyncio.sleep(0)  # the loop's turn: cancelled timers are swept


class _Probe:
    """Self time per row of wrapped seams (children excluded), installed
    on a pair's instances and removed again without a trace."""

    def __init__(self) -> None:
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.spans: Dict[str, int] = defaultdict(int)
        self._stack: List[int] = []
        self._undo: List[Callable[[], None]] = []

    def _timed(self, fn: Callable, row: str) -> Callable:
        stack, self_ns, spans, clock = self._stack, self.self_ns, self.spans, time.perf_counter_ns

        def timed(*args, **kwargs):
            stack.append(0)
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                self_ns[row] += elapsed - stack.pop()
                spans[row] += 1
                if stack:
                    stack[-1] += elapsed

        return timed

    def _wrap(self, owner, name: str, row: str) -> None:
        had_own = name in vars(owner)
        original = getattr(owner, name)
        setattr(owner, name, self._timed(original, row))
        self._undo.append(
            (lambda: setattr(owner, name, original)) if had_own
            else (lambda: delattr(owner, name))
        )

    def install(self, pair: _Pair, loop: asyncio.AbstractEventLoop) -> None:
        socket = LIVE_TRANSPORT.socket
        self._wrap(loop, "call_later", "timer arm/cancel")
        self._wrap(asyncio.events.TimerHandle, "cancel", "timer arm/cancel")
        for host in (pair.client, pair.server):
            self._wrap(host.endpoint, "on_batch", "host rx")
            self._wrap(host.endpoint, "send", WIRE)
            sockets = host.core.sockets
            handler = sockets[socket]
            sockets[socket] = self._timed(handler, "PDU check+decode")
            self._undo.append(lambda sockets=sockets, h=handler: sockets.update({socket: h}))
            self._wrap(host, "send", "host tx")
            self._wrap(host, "send_return", "host tx")
        for transactor in (pair.client_tx, pair.server_tx):
            machine = transactor.machine
            self._wrap(machine, "on_pdu", "machine receive")
            self._wrap(machine, "transact", "machine send")
            self._wrap(machine, "_launch_group", "machine send")
            self._wrap(machine, "_send_response_group", "machine send")
            self._wrap(transactor, "send", "PDU encode+frame")
            self._wrap(transactor, "send_return", "PDU encode+frame")
        self._wrap(pair, "handler", "server handler")

    def remove(self) -> None:
        while self._undo:
            self._undo.pop()()


def _ledger(size: int) -> dict:
    """One pass: blocks of transactions unprobed, probed, and probed
    twice over, interleaved, so the box's drift is common to all three.
    The second layer prices a probe span where it runs: its cost is
    what each row of the single layer is cleared of."""
    payload = bytes(index % 251 for index in range(size))
    count = BLOCK_TX[size]
    pair = _Pair()
    loop = asyncio.new_event_loop()
    modes = ("bare", "probed", "twice")
    wall = dict.fromkeys(modes, 0)
    wire = dict.fromkeys(modes, 0)
    probed, inner, outer = _Probe(), _Probe(), _Probe()
    try:
        loop.run_until_complete(pair.run(payload, 2 * count))  # warm every cache
        gc.collect()
        for block in range(BLOCKS):
            for mode in modes[block % 3:] + modes[:block % 3]:
                layers = {"bare": (), "probed": (probed,), "twice": (inner, outer)}[mode]
                for probe in layers:
                    probe.install(pair, loop)
                wire_before = pair.ns
                started = time.perf_counter_ns()
                loop.run_until_complete(pair.run(payload, count))
                wall[mode] += time.perf_counter_ns() - started
                wire[mode] += pair.ns - wire_before
                for probe in reversed(layers):
                    probe.remove()
    finally:
        loop.close()
    n = BLOCKS * count
    span_ns = (
        (wall["twice"] - wire["twice"]) - (wall["probed"] - wire["probed"])
    ) / max(1, sum(outer.spans.values()))
    rows = {
        row: (probed.self_ns[row] - probed.spans[row] * span_ns) / n / 1e3
        for row in ROWS + OTHER_ROWS[:-1] + (WIRE,)
    }
    spans = sum(probed.spans.values())
    rows[OTHER_ROWS[-1]] = (
        (wall["probed"] - spans * span_ns) / n / 1e3 - sum(rows.values())
    )
    del rows[WIRE]
    return {
        "pair_us": (wall["bare"] - wire["bare"]) / n / 1e3,
        "wire_us": wire["bare"] / n / 1e3,
        "span_ns": span_ns,
        "rows_us": rows,
    }


def _calls_per_tx(payload: bytes, count: int) -> float:
    pair = _Pair()
    loop = asyncio.new_event_loop()
    try:
        loop.run_until_complete(pair.run(payload, 20))
        # No collection inside the window: one would count the gc
        # callbacks of whatever else the process has loaded (Hypothesis
        # installs one), which are not the pair's work.
        gc.collect()
        gc.disable()
        profile = pair.profile = cProfile.Profile()
        profile.enable()
        loop.run_until_complete(pair.run(payload, count))
        profile.disable()
    finally:
        gc.enable()
        loop.close()
    # Summed over the raw entries: pstats keys functions by file, line
    # and name, and every dataclass ``__init__`` is ``<string>:2``.
    return sum(entry.callcount for entry in profile.getstats()) / count


def bench_f03_transactor_pair():
    results = {}
    for size in SIZES:
        results[size] = _ledger(size)
        results[size]["calls_per_tx"] = _calls_per_tx(bytes(size), 10 * BLOCK_TX[size])
    headers = ["row"] + [f"{size} B us/tx" for size in SIZES]

    def rows_sum(size):
        return sum(results[size]["rows_us"].values())

    table_rows = [
        [row] + [round(results[s]["rows_us"][row], 1) for s in SIZES]
        for row in ROWS + OTHER_ROWS
    ]
    table_rows += [
        ["= rows sum"] + [round(rows_sum(s), 1) for s in SIZES],
        ["pair (unprobed, less wire)"] + [round(results[s]["pair_us"], 1) for s in SIZES],
        ["closure (sum / pair)"]
        + [round(rows_sum(s) / results[s]["pair_us"], 3) for s in SIZES],
        ["calls/tx"] + [round(results[s]["calls_per_tx"], 1) for s in SIZES],
        ["(wire: stand-in network)"] + [round(results[s]["wire_us"], 1) for s in SIZES],
        ["(probe span, ns)"] + [round(results[s]["span_ns"]) for s in SIZES],
    ]
    title = "F3: socket-free transactor pair, per-transaction ledger"
    table = format_table(title, headers, table_rows)
    note = (
        f"\n\n{ROUTER_HOPS} router hops each way, done in place by the wire; "
        f"{BLOCKS} blocks each of unprobed, probed and twice-probed passes, "
        "interleaved; a row is its seams' self time less the probe's."
    )
    publish("f03_transactor_pair", table + note, data={
        "title": title,
        "metrics": {
            f"{size}": {
                "pair_us": round(results[size]["pair_us"], 1),
                "calls_per_tx": round(results[size]["calls_per_tx"], 1),
                "rows_us": {
                    row: round(value, 1)
                    for row, value in results[size]["rows_us"].items()
                },
            }
            for size in SIZES
        },
        "lower_is_better": ["pair_us", "calls_per_tx"],
    })
    return results


if __name__ == "__main__":
    bench_f03_transactor_pair()
