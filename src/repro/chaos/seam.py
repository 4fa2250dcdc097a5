"""The shared interposition seam: one fault engine, two substrates.

Both the simulator's :class:`repro.net.link.Channel` and the live
overlay's :class:`repro.live.link.LiveEndpoint` ask the *same*
:class:`FaultInjector` one question per transmitted packet — "what
happens to this datagram on this directed link right now?" — and get
back a :class:`FaultDecision` (drop it, duplicate it, corrupt it with
this seed, hold it this long).  The injector is pure bookkeeping: it
never touches a socket or a simulator heap; the substrates *apply* the
decision with their own machinery.  That one-seam design is what lets a
single :class:`~repro.chaos.plan.FaultPlan` replay byte-identically
against both stacks.

Entity faults (router crash/restart, directory outage) cannot be
expressed per-packet; the injector surfaces them through four handler
hooks (:attr:`FaultInjector.on_router_crash` …) that each interpreter
wires to its substrate's kill/restart machinery.

Everything observable flows into

* ``chaos_*`` counters (registrable on a
  :class:`repro.obs.registry.MetricsRegistry`),
* :attr:`FaultInjector.fault_log` — NDJSON-able dicts covering every
  applied schedule event plus any harness events recorded via
  :meth:`FaultInjector.record` (retries, recoveries, failures), and
* :meth:`FaultInjector.applied_ndjson` — the canonical rendering of the
  schedule events actually applied, which the parity tests compare
  byte-for-byte across sim and live runs.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.chaos.plan import (
    ENTITY_FAULT_KINDS,
    FaultEvent,
    FaultPlan,
    LINK_FAULT_KINDS,
    PlanError,
    START,
    expand_target,
)
from repro.obs.registry import Counter, Gauge, MetricsRegistry

#: Entity handler signature: ``handler(target_name, at_seconds)``.
EntityHandler = Optional[Callable[[str, float], None]]


@dataclass(frozen=True)
class FaultDecision:
    """What the seam tells a substrate to do with one datagram."""

    drop: bool = False
    duplicate: bool = False
    #: Seed for a deterministic corruption of the payload (None = clean).
    corrupt_seed: Optional[int] = None
    #: Extra latency to impose before delivery (seconds).
    extra_delay_s: float = 0.0


#: The no-fault decision (shared instance: the hot-path common case).
DELIVER = FaultDecision()


def _link_seed(spec_seed: int, link_name: str) -> int:
    """Stable per-(spec, link) sub-seed — order of installs irrelevant."""
    digest = hashlib.sha256(
        f"{spec_seed}:{link_name}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:8], "big")


class _ActiveFault:
    """One fault currently biting on one directed link."""

    __slots__ = ("kind", "rate", "delay_s", "rng")

    def __init__(self, event: FaultEvent, link_name: str) -> None:
        self.kind = event.kind
        self.rate = event.rate
        self.delay_s = event.delay_s
        self.rng = random.Random(_link_seed(event.seed, link_name))


class LinkFaults:
    """Active fault state for one directed link (``"src->dst"``)."""

    __slots__ = ("name", "_active")

    def __init__(self, name: str) -> None:
        self.name = name
        self._active: Dict[int, _ActiveFault] = {}

    def start(self, event: FaultEvent) -> None:
        self._active[event.spec_index] = _ActiveFault(event, self.name)

    def stop(self, spec_index: int) -> None:
        self._active.pop(spec_index, None)

    @property
    def quiet(self) -> bool:
        return not self._active

    def decide(self) -> Tuple[FaultDecision, List[str]]:
        """Roll every active fault (in spec order) and combine.

        Each spec's rng stream advances once per transmission on this
        link regardless of the other specs, so a fault's packet-level
        fate depends only on ``(plan seed, spec index, link, packet
        ordinal)`` — never on what else is scheduled.
        """
        if not self._active:
            return DELIVER, []
        drop = False
        duplicate = False
        corrupt_seed: Optional[int] = None
        extra_delay = 0.0
        injected: List[str] = []
        for index in sorted(self._active):
            fault = self._active[index]
            kind = fault.kind
            if kind == "partition":
                drop = True
                injected.append("partition")
                continue
            if fault.rng.random() >= fault.rate:
                continue
            injected.append(kind)
            if kind == "drop":
                drop = True
            elif kind == "duplicate":
                duplicate = True
            elif kind == "corrupt":
                corrupt_seed = fault.rng.getrandbits(32)
            elif kind == "delay":
                extra_delay += fault.delay_s
            elif kind == "reorder":
                # Holding this packet a *varying* time lets successors
                # overtake it — that is what reordering means on a FIFO
                # substrate.
                extra_delay += fault.delay_s * (0.5 + fault.rng.random())
        if not injected:
            return DELIVER, injected
        return FaultDecision(
            drop=drop, duplicate=duplicate, corrupt_seed=corrupt_seed,
            extra_delay_s=extra_delay,
        ), injected


class FaultInjector:
    """Walks one compiled plan; answers per-packet fate questions.

    ``edges`` is the directed adjacency both substrates share (from
    :meth:`repro.net.topology.Topology.all_edges`), so target expansion
    agrees by construction.  Every link target in the plan is expanded
    eagerly — a plan naming a missing link fails at construction, not
    silently mid-soak.
    """

    def __init__(
        self, plan: FaultPlan, edges: Sequence[Tuple[str, str]]
    ) -> None:
        self.plan = plan
        self.events = plan.schedule()
        self._links: Dict[str, LinkFaults] = {
            f"{src}->{dst}": LinkFaults(f"{src}->{dst}")
            for src, dst in edges
        }
        #: spec_index -> expanded directed link names (entity: empty).
        self._expansion: Dict[int, List[str]] = {}
        for event in self.events:
            if event.kind in LINK_FAULT_KINDS or event.kind == "partition":
                self._expansion[event.spec_index] = expand_target(
                    event.target, edges
                )
            elif event.kind not in ENTITY_FAULT_KINDS:  # pragma: no cover
                raise PlanError(f"unknown event kind {event.kind!r}")
        # Entity handlers: the interpreter wires these to its substrate.
        self.on_router_crash: EntityHandler = None
        self.on_router_restart: EntityHandler = None
        self.on_directory_down: EntityHandler = None
        self.on_directory_up: EntityHandler = None
        self.on_shard_down: EntityHandler = None
        self.on_shard_up: EntityHandler = None
        #: NDJSON-able record of everything that happened, in order.
        self.fault_log: List[Dict[str, object]] = []
        #: Flight recorder mirror (None until installed via
        #: :class:`FlightRecorder`'s ``install`` or assigned directly):
        #: every applied schedule event and harness event also lands in
        #: the shared ring, stamped at its plan time, so a flight dump
        #: reconstructs the fault timeline next to packet fates.
        self.recorder = None
        #: Schedule events actually applied (the replay identity).
        self.applied: List[FaultEvent] = []
        # chaos_* observability.
        self.drop_injected = Counter("chaos_drop_injected")
        self.duplicate_injected = Counter("chaos_duplicate_injected")
        self.corrupt_injected = Counter("chaos_corrupt_injected")
        self.delay_injected = Counter("chaos_delay_injected")
        self.reorder_injected = Counter("chaos_reorder_injected")
        self.partition_drops = Counter("chaos_partition_drops")
        self.router_crashes = Counter("chaos_router_crashes")
        self.router_restarts = Counter("chaos_router_restarts")
        self.directory_outages = Counter("chaos_directory_outages")
        self.shard_failovers = Counter("chaos_shard_failovers")
        self.active_faults = Gauge("chaos_active_faults")
        self._injection_counters = {
            "drop": self.drop_injected,
            "duplicate": self.duplicate_injected,
            "corrupt": self.corrupt_injected,
            "delay": self.delay_injected,
            "reorder": self.reorder_injected,
            "partition": self.partition_drops,
        }

    def expanded_links(self) -> set:
        """Every directed link name any spec in the plan touches."""
        names: set = set()
        for links in self._expansion.values():
            names.update(links)
        return names

    # -- observability -----------------------------------------------------

    def register(self, registry: MetricsRegistry, **labels: str) -> None:
        """Adopt every chaos metric into ``registry``."""
        for metric in (
            self.drop_injected, self.duplicate_injected,
            self.corrupt_injected, self.delay_injected,
            self.reorder_injected, self.partition_drops,
            self.router_crashes, self.router_restarts,
            self.directory_outages, self.shard_failovers,
            self.active_faults,
        ):
            registry.register(metric, **labels)

    def record(self, kind: str, at: float, **fields: object) -> None:
        """Append one harness event (retry, recovery, …) to the log."""
        entry: Dict[str, object] = {"event": kind, "at": round(at, 6)}
        entry.update(fields)
        self.fault_log.append(entry)
        if self.recorder is not None:
            # A caller-supplied node (e.g. a retry's endpoint) wins over
            # the harness attribution.
            node = str(fields.pop("node", "chaos"))
            self.recorder.record(kind, node=node, t=at, **fields)

    def applied_ndjson(self) -> str:
        """Canonical rendering of the applied schedule (plan-relative).

        Two interpreters that walked the same plan produce the same
        bytes here — the parity tests' byte-identity assertion.
        """
        return "\n".join(
            json.dumps(e.to_json(), sort_keys=True, separators=(",", ":"))
            for e in self.applied
        )

    # -- schedule application ---------------------------------------------

    def apply(self, event: FaultEvent, at: float) -> None:
        """Apply one schedule event at substrate time ``at`` (seconds)."""
        starting = event.action == START
        if event.kind in LINK_FAULT_KINDS or event.kind == "partition":
            for link_name in self._expansion[event.spec_index]:
                faults = self._links[link_name]
                if starting:
                    faults.start(event)
                else:
                    faults.stop(event.spec_index)
        elif event.kind == "router_crash":
            name = event.target[len("router:"):]
            if starting:
                self.router_crashes.add()
                if self.on_router_crash is not None:
                    self.on_router_crash(name, at)
            else:
                self.router_restarts.add()
                if self.on_router_restart is not None:
                    self.on_router_restart(name, at)
        elif event.kind == "directory_outage":
            if starting:
                self.directory_outages.add()
                if self.on_directory_down is not None:
                    self.on_directory_down(event.target, at)
            elif self.on_directory_up is not None:
                self.on_directory_up(event.target, at)
        elif event.kind == "shard_failover":
            name = event.target[len("shard:"):]
            if starting:
                self.shard_failovers.add()
                if self.on_shard_down is not None:
                    self.on_shard_down(name, at)
            elif self.on_shard_up is not None:
                self.on_shard_up(name, at)
        if starting:
            self.active_faults.inc()
        else:
            self.active_faults.dec()
        self.applied.append(event)
        entry = dict(event.to_json())
        entry["at"] = round(at, 6)
        self.fault_log.append(entry)
        if self.recorder is not None:
            self.recorder.record(
                "fault_applied", node="chaos", t=at,
                kind=event.kind, target=event.target,
                action=event.action,
            )

    # -- the per-packet question ------------------------------------------

    def decide(self, link_name: str) -> FaultDecision:
        """Per-packet fate on one directed link (``"src->dst"``)."""
        faults = self._links.get(link_name)
        if faults is None or faults.quiet:
            return DELIVER
        decision, injected = faults.decide()
        for kind in injected:
            self._injection_counters[kind].add()
        return decision

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<FaultInjector plan={self.plan.name!r} "
            f"events={len(self.events)} applied={len(self.applied)}>"
        )
