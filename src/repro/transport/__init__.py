"""Transport layer for Sirpent (§4 of the paper, VMTP-flavoured).

Sirpent pushes three classically network-layer functions up here:

* **Misdelivery detection** (§4.1) — 64-bit entity identifiers unique
  independent of the network layer; packets for unknown entities (e.g.
  after undetected header corruption) are discarded by the transport.
* **Maximum packet lifetime** (§4.2) — a 32-bit millisecond creation
  timestamp replaces the TTL field; receivers discard packets older
  than their acceptance window, and no router ever touches the field.
* **Large logical packets** (§4.3) — packet groups with rate-based
  interpacket gaps and selective retransmission replace network-layer
  fragmentation/reassembly.

Plus the route management the paper's §6.3 assumes: clients hold
multiple routes from the directory and rebind on failure or congestion.
"""

from repro.transport.flowcontrol import DeliveryMask, RateController
from repro.transport.ids import EntityId, EntityIdAllocator
from repro.transport.playout import PlayoutBuffer
from repro.transport.rebind import RouteManager
from repro.transport.timestamps import HostClock, TimestampPolicy, encode_timestamp_ms
from repro.transport.stats import TransportStats
from repro.transport.vmtp import (
    TransactionResult,
    TransportConfig,
    VmtpPdu,
    VmtpTransport,
)

__all__ = [
    "DeliveryMask",
    "EntityId",
    "EntityIdAllocator",
    "HostClock",
    "PlayoutBuffer",
    "RateController",
    "RouteManager",
    "TimestampPolicy",
    "TransactionResult",
    "TransportConfig",
    "TransportStats",
    "VmtpPdu",
    "VmtpTransport",
    "encode_timestamp_ms",
]
