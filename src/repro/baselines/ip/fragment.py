"""IP fragmentation and reassembly.

§4.3 of the paper contrasts Sirpent's truncation + transport-level
selective retransmission against "the all-or-nothing behavior of IP in
the reassembly of packets": lose any fragment and the whole datagram's
resources are wasted.  This module implements that behaviour —
including the reassembly timeout — so experiment E13 can measure it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.baselines.ip.header import (
    FLAG_MORE_FRAGMENTS,
    IPV4_HEADER_BYTES,
)
from repro.baselines.ip.packet import IpPacket
from repro.sim.engine import EventHandle, Simulator
from repro.sim.monitor import Counter


def fragment_packet(
    packet: IpPacket, mtu: int,
    new_id: Optional[Callable[[], int]] = None,
) -> List[IpPacket]:
    """Split a datagram into fragments that fit ``mtu``.

    Fragment payloads are multiples of 8 bytes except the last, per the
    IPv4 rules.  Raises on Don't-Fragment (the router then drops).
    ``new_id`` supplies reproducible fragment packet ids (typically the
    owning simulator's ``new_packet_id``); None falls back to the
    process-wide default allocator.
    """
    if packet.wire_size() <= mtu:
        return [packet]
    if packet.header.dont_fragment:
        raise ValueError("DF set on an oversized packet")
    payload_budget = (mtu - IPV4_HEADER_BYTES) // 8 * 8
    if payload_budget <= 0:
        raise ValueError(f"MTU {mtu} cannot carry any payload")
    fragments: List[IpPacket] = []
    base_offset_bytes = packet.header.fragment_offset * 8
    remaining = packet.payload_size
    offset = 0
    original_mf = packet.header.more_fragments
    while remaining > 0:
        take = min(payload_budget, remaining)
        last = remaining - take == 0
        mf = (not last) or original_mf
        header = replace(
            packet.header,
            total_length=IPV4_HEADER_BYTES + take,
            flags=(packet.header.flags & ~FLAG_MORE_FRAGMENTS)
            | (FLAG_MORE_FRAGMENTS if mf else 0),
            fragment_offset=(base_offset_bytes + offset) // 8,
            checksum=0,
        ).with_checksum()
        fields = {} if new_id is None else {"packet_id": new_id()}
        fragments.append(IpPacket(
            header=header,
            payload_size=take,
            **fields,
            payload=packet.payload,
            created_at=packet.created_at,
            source=packet.source,
            hops_taken=packet.hops_taken,
            hop_log=list(packet.hop_log),
            fragment_of=packet.fragment_of or packet.packet_id,
        ))
        offset += take
        remaining -= take
    return fragments


@dataclass
class _PartialDatagram:
    received: Dict[int, int]  # offset-bytes -> length
    payload: Any
    total_expected: Optional[int]
    created_at: float
    timer: Optional[EventHandle]
    src: int
    dst: int
    protocol: int


class Reassembler:
    """Destination-side reassembly with the classic timeout semantics."""

    def __init__(
        self,
        sim: Simulator,
        timeout: float = 0.5,
        deliver: Optional[Callable[[IpPacket], None]] = None,
    ) -> None:
        self.sim = sim
        self.timeout = timeout
        self.deliver = deliver
        self._partials: Dict[Tuple[int, int, int], _PartialDatagram] = {}
        self.reassembled = Counter("reassembled")
        self.timed_out = Counter("reassembly_timeouts")

    def accept(self, packet: IpPacket) -> Optional[IpPacket]:
        """Feed a packet; returns the whole datagram when complete.

        Unfragmented packets pass straight through.
        """
        header = packet.header
        if header.fragment_offset == 0 and not header.more_fragments:
            return packet
        key = (header.src, header.identification, header.protocol)
        partial = self._partials.get(key)
        if partial is None:
            partial = _PartialDatagram(
                received={}, payload=packet.payload, total_expected=None,
                created_at=packet.created_at, timer=None,
                src=header.src, dst=header.dst, protocol=header.protocol,
            )
            partial.timer = self.sim.after(self.timeout, self._expire, key)
            self._partials[key] = partial
        offset_bytes = header.fragment_offset * 8
        partial.received[offset_bytes] = packet.payload_size
        if not header.more_fragments:
            partial.total_expected = offset_bytes + packet.payload_size
        if partial.total_expected is None:
            return None
        covered = 0
        for offset in sorted(partial.received):
            if offset > covered:
                return None  # hole
            covered = max(covered, offset + partial.received[offset])
        if covered < partial.total_expected:
            return None
        # Complete: cancel the timer and hand up one whole datagram.
        if partial.timer is not None:
            partial.timer.cancel()
        del self._partials[key]
        self.reassembled.add()
        whole = IpPacket(
            packet_id=self.sim.new_packet_id(),
            header=replace(
                header,
                total_length=IPV4_HEADER_BYTES + partial.total_expected,
                flags=header.flags & ~FLAG_MORE_FRAGMENTS,
                fragment_offset=0,
            ),
            payload_size=partial.total_expected,
            payload=partial.payload,
            created_at=partial.created_at,
            source=packet.source,
            hop_log=list(packet.hop_log),
        )
        return whole

    def _expire(self, key: Tuple[int, int, int]) -> None:
        """All-or-nothing: every received fragment is discarded."""
        if key in self._partials:
            del self._partials[key]
            self.timed_out.add()

