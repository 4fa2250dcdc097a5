"""End-state soundness under *any* fault plan.

A chaos soak is only evidence if something checks the wreckage.  The
:class:`InvariantChecker` asserts, over a :class:`SoakReport` from
either substrate:

1. **No duplicate app-level delivery** — chaos duplicates frames and
   crashes routers mid-transaction, but the transport's dedup (server
   response caches) must keep the application handler at *exactly
   one* execution per transaction.
2. **No unresolved transactions** — every issued transaction either
   completed or failed with a clean, named error.  Hangs are bugs.
3. **Retry budget** — no single transaction burned more retries than
   the plan's declared ``retry_budget``; a run that needs more is a
   retry storm wearing a success mask.
4. **Recovery SLO** — after the last fault stops, the first successful
   transaction lands within ``recovery_slo_s`` (§2.2/§6.3: soft state
   plus client-held alternates means recovery is *fast*, not merely
   eventual).

``check`` returns violations instead of raising so a soak can report
all of them at once; :meth:`InvariantChecker.assert_ok` is the
test-friendly raising wrapper.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.chaos.plan import FaultPlan


@dataclass
class TxRecord:
    """One transaction's observed lifecycle, plan-relative seconds."""

    txid: int
    started_s: float
    finished_s: float
    ok: bool
    retries: int = 0
    route_switches: int = 0
    error: str = ""

    @property
    def resolved(self) -> bool:
        """Completed, or failed with a named error."""
        return self.ok or bool(self.error)


@dataclass
class SoakReport:
    """Everything one soak run produced, substrate-neutral."""

    plan: FaultPlan
    substrate: str
    duration_s: float
    transactions: List[TxRecord] = field(default_factory=list)
    #: App-handler execution count per transaction key (dup detection).
    delivery_counts: Dict[object, int] = field(default_factory=dict)
    #: The injector's fault log (schedule events + harness events).
    fault_log: List[dict] = field(default_factory=list)
    #: Canonical NDJSON of the applied schedule (replay identity).
    applied_ndjson: str = ""
    #: Flight-recorder NDJSON dump taken at soak end (forensics: the
    #: last window of packet fates, retries, elections and fault
    #: applications in causal order; "" = no recorder installed).
    flight_dump: str = ""

    @property
    def ok_count(self) -> int:
        return sum(1 for tx in self.transactions if tx.ok)

    @property
    def failed_count(self) -> int:
        return sum(
            1 for tx in self.transactions if not tx.ok and tx.error
        )


@dataclass
class Violation:
    """One broken invariant, human-readable."""

    invariant: str
    detail: str

    def __str__(self) -> str:
        return f"[{self.invariant}] {self.detail}"


class InvariantViolationError(AssertionError):
    """Raised by :meth:`InvariantChecker.assert_ok`."""


class InvariantChecker:
    """Checks one soak report against its plan's declared budgets."""

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan

    def check(self, report: SoakReport) -> List[Violation]:
        """All violations in ``report`` (empty list = sound run)."""
        out: List[Violation] = []
        out.extend(self._check_duplicates(report))
        out.extend(self._check_resolved(report))
        out.extend(self._check_retry_budget(report))
        out.extend(self._check_recovery(report))
        return out

    def assert_ok(self, report: SoakReport) -> None:
        violations = self.check(report)
        if violations:
            rendered = "\n  ".join(str(v) for v in violations)
            message = (
                f"{report.substrate} soak of plan {self.plan.name!r} "
                f"broke {len(violations)} invariant(s):\n  {rendered}"
            )
            if report.flight_dump:
                message += (
                    "\nflight recorder dump (last window, causal "
                    "order):\n" + report.flight_dump
                )
            raise InvariantViolationError(message)

    # -- the four invariants ----------------------------------------------

    def _check_duplicates(self, report: SoakReport) -> List[Violation]:
        return [
            Violation(
                "no_duplicate_delivery",
                f"transaction {key!r} reached the application handler "
                f"{count} times",
            )
            for key, count in sorted(
                report.delivery_counts.items(), key=lambda kv: str(kv[0])
            )
            if count > 1
        ]

    def _check_resolved(self, report: SoakReport) -> List[Violation]:
        return [
            Violation(
                "clean_outcome",
                f"transaction {tx.txid} neither completed nor failed "
                "with an error",
            )
            for tx in report.transactions
            if not tx.resolved
        ]

    def _check_retry_budget(self, report: SoakReport) -> List[Violation]:
        budget = self.plan.retry_budget
        return [
            Violation(
                "retry_budget",
                f"transaction {tx.txid} burned {tx.retries} retries "
                f"(budget {budget})",
            )
            for tx in report.transactions
            if tx.retries > budget
        ]

    def _check_recovery(self, report: SoakReport) -> List[Violation]:
        faults_end = self.plan.faults_end_s()
        slo = self.plan.recovery_slo_s
        if not self.plan.specs:
            return []
        post = [
            tx for tx in report.transactions
            if tx.ok and tx.finished_s >= faults_end
        ]
        if not post:
            return [Violation(
                "recovery_slo",
                f"no successful transaction after faults ended at "
                f"{faults_end:.3f}s (soak ran {report.duration_s:.3f}s)",
            )]
        first = min(tx.finished_s for tx in post)
        if first - faults_end > slo:
            return [Violation(
                "recovery_slo",
                f"first post-fault success at {first:.3f}s — "
                f"{first - faults_end:.3f}s after faults ended "
                f"(SLO {slo:.3f}s)",
            )]
        return []
