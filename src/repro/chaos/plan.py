"""Declarative, seeded fault plans — the chaos engine's contract.

Sirpent's robustness story (§2.2 soft state, §3 client-held alternate
routes, §6.3 rebinding) is only credible under *systematic* fault
schedules, not hand-scripted ones.  A :class:`FaultPlan` declares a set
of :class:`FaultSpec` faults — drop / duplicate / reorder / corrupt /
delay / partition / router crash+restart / directory outage, each with
an onset, a duration and a rate — and compiles them into a
deterministic, seed-stable :meth:`FaultPlan.schedule` of
:class:`FaultEvent` start/stop pairs.

The compiled schedule is **pure data**: identical across runs, across
processes, and across *substrates* — the sim interpreter
(:mod:`repro.chaos.sim_interp`) and the live interpreter
(:mod:`repro.chaos.live_interp`) walk the very same event list, which
is what makes a chaos failure reproducible ("replay seed 7").
:meth:`FaultPlan.fingerprint` hashes the canonical NDJSON rendering so
a test can assert byte-identical replay.

All times are **plan-relative seconds** (the interpreters anchor them
to sim time or the wall clock); per-packet randomness during a fault's
active window comes from a :mod:`random.Random` seeded from
``(plan.seed, spec_index, link)`` — never from global state.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

#: Per-packet link faults (need a rate; applied on transmit).
LINK_FAULT_KINDS = ("drop", "duplicate", "reorder", "corrupt", "delay")

#: Whole-entity faults (no per-packet rate; on/off for the duration).
ENTITY_FAULT_KINDS = (
    "partition", "router_crash", "directory_outage", "shard_failover",
)

#: Every fault kind the engine understands.
FAULT_KINDS = LINK_FAULT_KINDS + ENTITY_FAULT_KINDS

#: Schedule actions.
START = "start"
STOP = "stop"

#: Target naming the directory service (no node expansion).
DIRECTORY_TARGET = "directory"


class PlanError(ValueError):
    """A fault plan that cannot be compiled."""


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault: what, where, when, how hard.

    ``target`` grammar (resolved by the interpreters against the one
    topology both substrates share):

    * ``"a->b"``   — the directed link from node ``a`` to node ``b``;
    * ``"a<->b"``  — both directions of that link;
    * ``"node:x"`` — every directed link touching node ``x``
      (for ``partition``: the §6.3 "router becomes a black hole" case);
    * ``"router:x"`` — the router process itself (``router_crash``);
    * ``"directory"`` — the directory service (``directory_outage``);
    * ``"shard:x"`` — one directory-cluster shard's leader
      (``shard_failover``: start kills the leader, stop restarts the
      crashed replica as a follower; promotion happens in between at
      the cluster's detection latency).
    """

    kind: str
    target: str
    onset_s: float
    duration_s: float
    #: Per-packet probability for link faults; ignored for entity faults.
    rate: float = 0.0
    #: Injected extra latency for ``delay``/``reorder`` (seconds).
    delay_s: float = 0.0

    def validate(self) -> "FaultSpec":
        """Raise :class:`PlanError` on an inexpressible fault."""
        if self.kind not in FAULT_KINDS:
            raise PlanError(f"unknown fault kind {self.kind!r}")
        if self.onset_s < 0.0:
            raise PlanError(f"negative onset {self.onset_s}")
        if self.duration_s <= 0.0:
            raise PlanError(f"non-positive duration {self.duration_s}")
        if self.kind in LINK_FAULT_KINDS and not 0.0 < self.rate <= 1.0:
            raise PlanError(
                f"{self.kind} fault needs a rate in (0, 1], got {self.rate}"
            )
        if self.kind in ("delay", "reorder") and self.delay_s <= 0.0:
            raise PlanError(f"{self.kind} fault needs delay_s > 0")
        if self.kind == "directory_outage" and self.target != DIRECTORY_TARGET:
            raise PlanError("directory_outage must target 'directory'")
        if self.kind == "router_crash" and not self.target.startswith("router:"):
            raise PlanError("router_crash must target 'router:<name>'")
        if self.kind == "shard_failover" and not self.target.startswith("shard:"):
            raise PlanError("shard_failover must target 'shard:<id>'")
        return self


@dataclass(frozen=True)
class FaultEvent:
    """One compiled schedule entry: a fault starting or stopping."""

    t: float
    action: str  # START | STOP
    kind: str
    target: str
    rate: float
    delay_s: float
    spec_index: int
    #: Seed for this spec's per-packet randomness (stable per spec).
    seed: int

    def to_json(self) -> Dict[str, object]:
        """Canonical JSON form (what :meth:`FaultPlan.to_ndjson` emits)."""
        return {
            "t": round(self.t, 9),
            "action": self.action,
            "kind": self.kind,
            "target": self.target,
            "rate": round(self.rate, 9),
            "delay_s": round(self.delay_s, 9),
            "spec": self.spec_index,
            "seed": self.seed,
        }


def _spec_seed(plan_seed: int, spec_index: int) -> int:
    """Stable 32-bit sub-seed for one spec's packet-level randomness."""
    digest = hashlib.sha256(
        f"sirpent-chaos:{plan_seed}:{spec_index}".encode("ascii")
    ).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative fault schedule plus its soundness budget.

    ``recovery_slo_s`` is the declared service-level objective: after
    the last fault stops, the first successful transaction must land
    within this many seconds.  ``retry_budget`` caps how many retries a
    single transaction may burn before the run counts as a retry storm.
    Both are what :class:`repro.chaos.invariants.InvariantChecker`
    enforces over a soak.
    """

    seed: int
    specs: Tuple[FaultSpec, ...] = field(default_factory=tuple)
    recovery_slo_s: float = 2.0
    retry_budget: int = 16
    name: str = ""

    def __post_init__(self) -> None:
        for spec in self.specs:
            spec.validate()

    # -- compilation -------------------------------------------------------

    def schedule(self) -> Tuple[FaultEvent, ...]:
        """The deterministic start/stop event list, sorted by time.

        Ties break stop-before-start (a fault window ending exactly when
        another begins never overlaps), then by spec index — total
        order, so two compilations are identical element for element.
        """
        events: List[FaultEvent] = []
        for index, spec in enumerate(self.specs):
            seed = _spec_seed(self.seed, index)
            common = dict(
                kind=spec.kind, target=spec.target, rate=spec.rate,
                delay_s=spec.delay_s, spec_index=index, seed=seed,
            )
            events.append(FaultEvent(t=spec.onset_s, action=START, **common))
            events.append(
                FaultEvent(
                    t=spec.onset_s + spec.duration_s, action=STOP, **common
                )
            )
        events.sort(key=lambda e: (e.t, 0 if e.action == STOP else 1,
                                   e.spec_index))
        return tuple(events)

    def faults_end_s(self) -> float:
        """Plan-relative time the last fault stops (0 for empty plans)."""
        if not self.specs:
            return 0.0
        return max(s.onset_s + s.duration_s for s in self.specs)

    # -- canonical rendering -----------------------------------------------

    def to_ndjson(self) -> str:
        """One canonical JSON line per schedule event (byte-stable)."""
        return "\n".join(
            json.dumps(event.to_json(), sort_keys=True, separators=(",", ":"))
            for event in self.schedule()
        )

    def fingerprint(self) -> str:
        """SHA-256 over :meth:`to_ndjson` — the replay identity."""
        return hashlib.sha256(self.to_ndjson().encode("ascii")).hexdigest()

    # -- generation --------------------------------------------------------

    @staticmethod
    def generate(
        seed: int,
        duration_s: float,
        link_targets: Sequence[str],
        router_targets: Sequence[str] = (),
        directory: bool = False,
        intensity: float = 0.5,
        recovery_slo_s: float = 2.0,
        retry_budget: int = 16,
        name: str = "",
    ) -> "FaultPlan":
        """Synthesize a mixed-fault plan from a seed (the soak driver).

        ``intensity`` in (0, 1] scales both fault rates and how much of
        the window is fault-covered.  Generation is a pure function of
        its arguments — same seed, same plan, same fingerprint.
        """
        if not 0.0 < intensity <= 1.0:
            raise PlanError(f"intensity {intensity} outside (0, 1]")
        if duration_s <= 0:
            raise PlanError(f"duration {duration_s} must be positive")
        rng = random.Random(f"sirpent-chaos-plan:{seed}")
        specs: List[FaultSpec] = []

        def window(min_frac: float = 0.08, max_frac: float = 0.3):
            length = duration_s * rng.uniform(min_frac, max_frac) * intensity
            length = max(length, duration_s * 0.02)
            onset = rng.uniform(0.0, max(1e-6, duration_s - length))
            return onset, length

        for target in link_targets:
            for kind in LINK_FAULT_KINDS:
                if rng.random() > 0.55 * intensity + 0.2:
                    continue
                onset, length = window()
                specs.append(FaultSpec(
                    kind=kind, target=target, onset_s=onset,
                    duration_s=length,
                    rate=round(rng.uniform(0.05, 0.4) * intensity + 0.02, 6),
                    delay_s=(
                        round(rng.uniform(0.002, 0.02), 6)
                        if kind in ("delay", "reorder") else 0.0
                    ),
                ))
            if rng.random() < 0.35 * intensity:
                onset, length = window(0.05, 0.15)
                specs.append(FaultSpec(
                    kind="partition", target=target,
                    onset_s=onset, duration_s=length,
                ))
        for router in router_targets:
            if rng.random() < 0.6 * intensity + 0.2:
                onset, length = window(0.08, 0.2)
                specs.append(FaultSpec(
                    kind="router_crash", target=f"router:{router}",
                    onset_s=onset, duration_s=length,
                ))
        if directory:
            onset, length = window(0.05, 0.15)
            specs.append(FaultSpec(
                kind="directory_outage", target=DIRECTORY_TARGET,
                onset_s=onset, duration_s=length,
            ))
        return FaultPlan(
            seed=seed, specs=tuple(specs), recovery_slo_s=recovery_slo_s,
            retry_budget=retry_budget, name=name or f"generated-{seed}",
        )


def expand_target(
    target: str, edges: Sequence[Tuple[str, str]]
) -> List[str]:
    """Resolve a spec target into directed link names ``"src->dst"``.

    ``edges`` is the topology's directed adjacency (both substrates
    derive it from the same :class:`repro.net.topology.Topology`), so
    sim and live expansion agree by construction.  Unknown link targets
    raise — a plan naming a link the topology lacks is a bug in the
    plan, not a silent no-op.
    """
    known = {f"{src}->{dst}" for src, dst in edges}
    if "<->" in target:
        a, b = target.split("<->", 1)
        wanted = [f"{a}->{b}", f"{b}->{a}"]
    elif target.startswith("node:"):
        node = target[len("node:"):]
        wanted = sorted(
            name for name in known
            if name.startswith(f"{node}->") or name.endswith(f"->{node}")
        )
        if not wanted:
            raise PlanError(f"target {target!r}: no links touch {node!r}")
        return wanted
    elif "->" in target:
        wanted = [target]
    else:
        raise PlanError(f"unintelligible link target {target!r}")
    missing = [name for name in wanted if name not in known]
    if missing:
        raise PlanError(f"target {target!r}: no such link(s) {missing}")
    return wanted


#: Optional[FaultPlan] helper used by interpreters' signatures.
PlanLike = Optional[FaultPlan]
