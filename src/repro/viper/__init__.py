"""VIPER — the Versatile Internetwork Protocol for Extended Routing.

The concrete realization of Sirpent proposed in §5 of the paper.  This
package implements the Figure-1 header segment byte layout exactly
(:mod:`repro.viper.wire`), the network-specific ``portInfo`` formats
(:mod:`repro.viper.portinfo`), and the packet structure with its
return-route trailer algebra (:mod:`repro.viper.packet`).
"""

from repro.viper.errors import DecodeError, ViperError
from repro.viper.flags import (
    PRIORITY_BULK,
    PRIORITY_LOWEST,
    PRIORITY_NORMAL,
    PRIORITY_PREEMPT,
    PRIORITY_PREEMPT_HIGH,
    effective_priority,
    is_preemptive,
    outranks,
)
from repro.viper.packet import (
    SirpentPacket,
    TRUNCATION_MARK,
    TrailerElement,
)
from repro.viper.portinfo import EthernetInfo, LogicalInfo
from repro.viper.wire import (
    FIXED_SEGMENT_BYTES,
    LOCAL_PORT,
    MAX_SEGMENTS,
    VIPER_MTU,
    HeaderSegment,
    decode_segment,
    encode_segment,
    segment_wire_size,
)

__all__ = [
    "DecodeError",
    "EthernetInfo",
    "FIXED_SEGMENT_BYTES",
    "HeaderSegment",
    "LOCAL_PORT",
    "LogicalInfo",
    "MAX_SEGMENTS",
    "PRIORITY_BULK",
    "PRIORITY_LOWEST",
    "PRIORITY_NORMAL",
    "PRIORITY_PREEMPT",
    "PRIORITY_PREEMPT_HIGH",
    "SirpentPacket",
    "TRUNCATION_MARK",
    "TrailerElement",
    "VIPER_MTU",
    "ViperError",
    "decode_segment",
    "effective_priority",
    "encode_segment",
    "is_preemptive",
    "outranks",
    "segment_wire_size",
]
