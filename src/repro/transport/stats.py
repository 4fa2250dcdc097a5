"""The counters a :class:`~repro.transport.machine.TransactionMachine`
keeps, whichever substrate clocks it."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.registry import Counter


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
    abandoned_assemblies: Counter = field(
        default_factory=lambda: Counter("abandoned_assemblies")
    )
    duplicate_requests: Counter = field(default_factory=lambda: Counter("dup_req"))
    transactions_ok: Counter = field(default_factory=lambda: Counter("tx_ok"))
    transactions_failed: Counter = field(default_factory=lambda: Counter("tx_fail"))
