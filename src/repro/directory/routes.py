"""The Route object clients receive from the directory.

§3: "the directory service can return information on the bandwidth,
propagation delay, maximum transmission unit, etc. for each portion of
the route … a client can determine (up to variations in queuing delay)
the roundtrip time and MTU for packets on this route, rather than
discovering these parameters over time."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.dataplane.host import SourceRoute
from repro.net.addresses import MacAddress
from repro.viper.packet import TRAILER_LENGTH_BYTES
from repro.viper.wire import HeaderSegment

#: A router's per-hop decision time in the route model (§3's estimate).
DECISION_DELAY = 0.5e-6


def slickify_route(
    segments: List[HeaderSegment],
    alternates: Dict[int, List[HeaderSegment]],
) -> Tuple[List[HeaderSegment], List[List[HeaderSegment]]]:
    """Attach Slick-Packets backup blocks to a source route.

    ``alternates`` maps a hop index into ``segments`` to the complete
    replacement route that substitutes for ``segments[i:]`` when hop
    ``i``'s egress is dead (ARCHITECTURE §16).  Returns the segments
    with the slick flag raised on every protected hop plus the blocks
    in route order — the shapes :class:`Route.segments` /
    ``Route.alternates`` and the packet codec expect.
    """
    out: List[HeaderSegment] = []
    blocks: List[List[HeaderSegment]] = []
    for i, seg in enumerate(segments):
        block = alternates.get(i)
        if block:
            out.append(seg.copy(slick=True))
            blocks.append([s.copy() for s in block])
        else:
            out.append(seg.copy())
    return out, blocks


@dataclass
class Route(SourceRoute):
    """A usable source route plus its advertised attributes; its header
    memo (``segments`` and ``alternates`` frozen) is a
    :class:`~repro.dataplane.host.SourceRoute`'s."""

    destination: str
    #: One segment per router, then the destination host's final segment.
    segments: Tuple[HeaderSegment, ...]
    #: Which of the client's ports the first physical hop uses.
    first_hop_port: int
    #: Frame address of the first hop (None on a point-to-point port).
    first_hop_mac: Optional[MacAddress]
    # -- advertised attributes (§3) --
    mtu: int = 1500
    bottleneck_bps: float = 0.0
    propagation_delay: float = 0.0
    hop_count: int = 0
    cost: float = 0.0
    secure: bool = True
    #: Directory's issue time; clients may refresh stale routes.
    issued_at: float = 0.0
    #: Slick-Packets backup blocks, one per slick-flagged segment in
    #: route order (ARCHITECTURE §16); empty on non-slick routes.
    alternates: Tuple[Tuple[HeaderSegment, ...], ...] = ()

    def max_payload(self) -> int:
        """Largest payload that traverses the route untruncated.

        Conservative: the trailer grows to mirror the header, so both
        must fit the bottleneck MTU at once (plus per-element framing).
        """
        segments, alternates, _, overhead = self._headers
        if segments is not self.segments or alternates is not self.alternates:
            overhead = self.header_overhead()
        # Arithmetic, no helper call: a transactor asks once per route.
        elements = len(self.segments) - 1
        trailer_budget = overhead + (
            TRAILER_LENGTH_BYTES * elements if elements > 0 else 0
        )
        budget = self.mtu - overhead - trailer_budget
        return budget if budget > 0 else 0

    def expected_one_way(self, payload_size: int) -> float:
        """Predicted no-queueing delivery delay for a payload.

        Cut-through pipeline: one full transmission of the packet at the
        bottleneck rate, plus total propagation, plus
        :data:`DECISION_DELAY` per router.  This is the estimate §3 says
        clients can make before sending a single packet.
        """
        size = self.header_overhead() + payload_size
        transmit = size * 8.0 / self.bottleneck_bps if self.bottleneck_bps else 0.0
        return transmit + self.propagation_delay + self.hop_count * DECISION_DELAY

    def expected_rtt(self, payload_size: int, reply_size: int = 0) -> float:
        """:meth:`expected_one_way` there and back (the reply the
        request's size unless given): the advertised RTT a transactor
        times and judges this route by.  A transaction asks twice, so a
        warm route answers with arithmetic on the memo's header length,
        in exactly :meth:`expected_one_way`'s operation order."""
        segments, alternates, _, overhead = self._headers
        if segments is not self.segments or alternates is not self.alternates:
            overhead = self.header_overhead()
        bps = self.bottleneck_bps
        prop = self.propagation_delay
        hops = self.hop_count * DECISION_DELAY
        if not bps:
            return (prop + hops) * 2
        there = (overhead + payload_size) * 8.0 / bps + prop + hops
        back = (overhead + (reply_size or payload_size)) * 8.0 / bps + prop + hops
        return there + back

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Route to {self.destination!r} hops={self.hop_count} "
            f"mtu={self.mtu} bw={self.bottleneck_bps:.3g} "
            f"prop={self.propagation_delay * 1e6:.1f}us>"
        )
