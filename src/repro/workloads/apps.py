"""Application-level workload models over the VMTP transport.

The paper's motivating range of traffic (§1, §8): transactional
("credit card transactions"), bulk file transfer, and real-time video
whose jitter the type-of-service machinery is supposed to protect.
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.core.host import SirpentHost
from repro.directory.routes import Route
from repro.sim.engine import Simulator
from repro.sim.monitor import Counter, Histogram
from repro.transport.ids import EntityId
from repro.transport.rebind import RouteManager
from repro.transport.vmtp import TransactionResult, VmtpTransport
from repro.viper.flags import PRIORITY_BULK, PRIORITY_PREEMPT


class TransactionApp:
    """Closed-loop request/response client.

    Issues one transaction, waits for the result, thinks, repeats —
    the short-logical-connection traffic the paper says is growing.
    """

    def __init__(
        self,
        sim: Simulator,
        transport: VmtpTransport,
        manager: RouteManager,
        server_entity: EntityId,
        rng: random.Random,
        request_size: int = 128,
        mean_think: float = 10e-3,
        max_transactions: Optional[int] = None,
        priority: int = 0,
    ) -> None:
        self.sim = sim
        self.transport = transport
        self.manager = manager
        self.server_entity = server_entity
        self.rng = rng
        self.request_size = request_size
        self.mean_think = mean_think
        self.max_transactions = max_transactions
        self.priority = priority
        self.response_time = Histogram("transaction_rtt")
        self.completed = Counter("transactions")
        self.failed = Counter("failures")
        self.running = True
        sim.after(rng.expovariate(1.0 / mean_think), self._issue)

    def _issue(self) -> None:
        if not self.running:
            return
        if (
            self.max_transactions is not None
            and self.completed.count + self.failed.count >= self.max_transactions
        ):
            return
        self.transport.transact(
            self.manager, self.server_entity, b"request",
            self.request_size, self._done, priority=self.priority,
        )

    def _done(self, result: TransactionResult) -> None:
        if result.ok:
            self.completed.add()
            self.response_time.add(result.rtt)
        else:
            self.failed.add()
        if self.running:
            self.sim.after(self.rng.expovariate(1.0 / self.mean_think), self._issue)

    def stop(self) -> None:
        self.running = False


class FileTransferApp:
    """Bulk transfer as a sequence of maximal transactions.

    Each transaction moves one packet-group's worth of data; throughput
    is bytes moved over elapsed time.  Uses the low "bulk" priority so
    it yields to interactive traffic (§5 priority lattice).
    """

    def __init__(
        self,
        sim: Simulator,
        transport: VmtpTransport,
        manager: RouteManager,
        server_entity: EntityId,
        total_bytes: int,
        chunk_bytes: int = 16 * 1024,
        priority: int = PRIORITY_BULK,
        on_complete: Optional[Callable[["FileTransferApp"], None]] = None,
    ) -> None:
        if total_bytes <= 0:
            raise ValueError("total_bytes must be positive")
        self.sim = sim
        self.transport = transport
        self.manager = manager
        self.server_entity = server_entity
        self.total_bytes = total_bytes
        self.chunk_bytes = chunk_bytes
        self.priority = priority
        self.on_complete = on_complete
        self.moved = 0
        self.started_at = sim.now
        self.finished_at: Optional[float] = None
        self.failed = False
        sim.after(0.0, self._next_chunk)

    def _next_chunk(self) -> None:
        remaining = self.total_bytes - self.moved
        if remaining <= 0:
            self.finished_at = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)
            return
        chunk = min(self.chunk_bytes, remaining)
        self.transport.transact(
            self.manager, self.server_entity, b"chunk", chunk,
            self._chunk_done, priority=self.priority,
        )

    def _chunk_done(self, result: TransactionResult) -> None:
        if not result.ok:
            self.failed = True
            self.finished_at = self.sim.now
            if self.on_complete is not None:
                self.on_complete(self)
            return
        self.moved += min(self.chunk_bytes, self.total_bytes - self.moved)
        self._next_chunk()

    def throughput_bps(self) -> float:
        end = self.finished_at if self.finished_at is not None else self.sim.now
        elapsed = end - self.started_at
        return self.moved * 8.0 / elapsed if elapsed > 0 else 0.0


class VideoStreamApp:
    """Constant-bit-rate frames at preemptive priority with DIB.

    Frames that would be late are worthless, so they are sent with
    Drop-If-Blocked; the receiver records interarrival jitter, the
    quantity the paper proposes to repair with VMTP timestamps (§8).
    """

    def __init__(
        self,
        sim: Simulator,
        host: SirpentHost,
        route: Route,
        frame_bytes: int = 1000,
        frame_interval: float = 33e-3 / 10,  # 10 packets per 33ms frame
        priority: int = PRIORITY_PREEMPT,
        duration: Optional[float] = None,
        dib: bool = True,
    ) -> None:
        self.sim = sim
        self.host = host
        self.route = route
        self.frame_bytes = frame_bytes
        self.frame_interval = frame_interval
        self.priority = priority
        self.duration = duration
        self.dib = dib
        self.sent = Counter("video_sent")
        self.started_at = sim.now
        self.running = True
        sim.after(0.0, self._tick)

    def _tick(self) -> None:
        if not self.running:
            return
        if (
            self.duration is not None
            and self.sim.now - self.started_at >= self.duration
        ):
            return
        self.sent.add()
        self.host.send(
            self.route, bytes(self.frame_bytes),
            priority=self.priority, dib=self.dib,
        )
        self.sim.after(self.frame_interval, self._tick)

    def stop(self) -> None:
        self.running = False


class JitterMeter:
    """Receiver-side interarrival jitter for a CBR stream."""

    def __init__(self, expected_interval: float) -> None:
        self.expected_interval = expected_interval
        self.last_arrival: Optional[float] = None
        self.jitter = Histogram("video_jitter")
        self.received = Counter("video_received")

    def on_delivery(self, delivered: Any) -> None:
        self.received.add()
        now = delivered.arrived_at
        if self.last_arrival is not None:
            deviation = abs((now - self.last_arrival) - self.expected_interval)
            self.jitter.add(deviation)
        self.last_arrival = now
