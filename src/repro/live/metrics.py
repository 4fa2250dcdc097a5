"""Per-endpoint counters for the live overlay.

Every live endpoint (router, host, directory) owns an
:class:`EndpointMetrics` instance; the UDP machinery in
:mod:`repro.live.link` feeds it frames/bytes/acks and the
routers/hosts add their drop reasons.  The smoke benchmark
(``bench_l01_live_loopback``) renders these tables after the run, which
is how we see — over real sockets — where every frame went.

The names are this module's own, not those of the simulator's
:class:`repro.core.router.RouterStats` (``drops["no_route"]`` here is
``dropped_no_route`` there).  A router's verdicts on both substrates
are compared through the router core's one vocabulary instead:
:attr:`repro.dataplane.router.RouterCore.drops`, keyed by the
pipeline's drop reasons.  Both counter objects answer the core's
``drop(reason)`` / ``count(event)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple


@dataclass
class EndpointMetrics:
    """Frame/byte/drop/retry accounting for one live endpoint."""

    name: str = ""
    frames_in: int = 0
    frames_out: int = 0
    bytes_in: int = 0
    bytes_out: int = 0
    acks_in: int = 0
    acks_out: int = 0
    #: Hop retransmissions: always 0 — the link never retransmits, the
    #: transport recovers loss — kept for the readers that sum it.
    retries: int = 0
    forwarded: int = 0
    delivered_local: int = 0
    #: Slick-Packets local reroutes this node performed (ARCHITECTURE
    #: §16); the exhausted-fallback case is a drop reason
    #: ("slick_fallback_exhausted"), not a second counter here.
    slick_reroutes: int = 0
    #: Drop reasons -> counts ("undecodable", "no_route", "token_reject",
    #: "route_exhausted", "unknown_peer", "peer_dead", "tx_backlog_full",
    #: "loss_injected", ...).  ``peer_dead`` counts the probe ladder's
    #: verdicts.
    drops: Dict[str, int] = field(default_factory=dict)

    def drop(self, reason: str) -> None:
        """Count one dropped frame under ``reason``."""
        self.drops[reason] = self.drops.get(reason, 0) + 1

    def count(self, event: str) -> None:
        """Count one ``event``, a counter field's name."""
        setattr(self, event, getattr(self, event) + 1)

    def total_drops(self) -> int:
        """Sum of every drop reason."""
        return sum(self.drops.values())

    def snapshot(self) -> Dict[str, int]:
        """A flat dict of all counters (drop reasons prefixed ``drop_``)."""
        flat = {
            "frames_in": self.frames_in,
            "frames_out": self.frames_out,
            "bytes_in": self.bytes_in,
            "bytes_out": self.bytes_out,
            "acks_in": self.acks_in,
            "acks_out": self.acks_out,
            "retries": self.retries,
            "forwarded": self.forwarded,
            "delivered_local": self.delivered_local,
            "slick_reroutes": self.slick_reroutes,
        }
        for reason, count in sorted(self.drops.items()):
            flat[f"drop_{reason}"] = count
        return flat


def render_metrics(all_metrics: List[EndpointMetrics]) -> str:
    """An aligned text table over several endpoints' counters.

    Numeric columns are right-justified under their headers; the
    byte counters sit next to their frame counters so per-frame sizes
    can be eyeballed straight off the table.
    """
    columns = ["endpoint", "frames_in", "bytes_in", "frames_out",
               "bytes_out", "fwd", "local", "retries", "drops"]
    rows: List[Tuple[str, ...]] = []
    for m in all_metrics:
        drops = ",".join(
            f"{reason}:{count}" for reason, count in sorted(m.drops.items())
        ) or "-"
        rows.append((
            m.name or "?", str(m.frames_in), str(m.bytes_in),
            str(m.frames_out), str(m.bytes_out),
            str(m.forwarded), str(m.delivered_local), str(m.retries), drops,
        ))
    widths = [len(c) for c in columns]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    numeric = set(range(1, len(columns) - 1))  # all but endpoint and drops

    def _cell(text: str, index: int) -> str:
        if index in numeric:
            return text.rjust(widths[index])
        return text.ljust(widths[index])

    lines = ["  ".join(_cell(c, i) for i, c in enumerate(columns))]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(_cell(c, i) for i, c in enumerate(row)))
    return "\n".join(lines)
