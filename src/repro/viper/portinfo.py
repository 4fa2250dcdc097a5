"""Network-specific ``portInfo`` payloads.

The paper (§2) makes ``portInfo`` a network-specific field whose format
is determined by the type of the port the segment's ``port`` field
designates — there is *no* self-describing tag on the wire.  A router
therefore parses the bytes according to what it knows its own port to
be.  We provide the two formats the paper discusses:

* :class:`EthernetInfo` — a full Ethernet header (dst, src, ethertype);
  the router swaps source and destination when moving the segment to
  the trailer, which is exactly how the return route gets built.
* :class:`LogicalInfo` — parameters for a logical hop (§2.2): an opaque
  label the owning network uses to pick/bind the real path.

Point-to-point ports carry an empty portInfo.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.net.addresses import ETHERTYPE_SIRPENT, MacAddress
from repro.viper.errors import DecodeError

ETHERNET_INFO_BYTES = 14

#: Wire size of the 16-bit Ethernet protocol type field.
ETHERTYPE_BYTES = 2

#: Wire size of a logical hop's opaque label.
LABEL_BYTES = 2


@dataclass(frozen=True)
class EthernetInfo:
    """An Ethernet header carried as VIPER portInfo (14 bytes)."""

    dst: MacAddress
    src: MacAddress
    ethertype: int = ETHERTYPE_SIRPENT

    def to_bytes(self) -> bytes:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise ValueError(f"ethertype {self.ethertype:#x} out of range")
        return (
            self.dst.to_bytes() + self.src.to_bytes()
            + self.ethertype.to_bytes(ETHERTYPE_BYTES, "big")
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "EthernetInfo":
        if len(data) != ETHERNET_INFO_BYTES:
            raise DecodeError(
                f"Ethernet portInfo must be {ETHERNET_INFO_BYTES} bytes, "
                f"got {len(data)}"
            )
        return cls(
            dst=MacAddress.from_bytes(data[0:6]),
            src=MacAddress.from_bytes(data[6:12]),
            ethertype=int.from_bytes(data[12:14], "big"),
        )

    def reversed(self) -> "EthernetInfo":
        """Swap source and destination — the router's trailer transform.

        §2: "with an Ethernet header, the destination and source
        addresses are swapped" so the trailer element "constitutes a
        correct return hop through this router".
        """
        return EthernetInfo(dst=self.src, src=self.dst, ethertype=self.ethertype)


#: Wire size of the compressed Ethernet portInfo (destination + type).
COMPRESSED_ETHERNET_INFO_BYTES = 8


@dataclass(frozen=True)
class CompressedEthernetInfo:
    """Destination-and-type-only Ethernet portInfo (8 bytes).

    Footnote 4 of the paper: "by agreement between the router and
    sources, the network-specific portion may contain only the
    destination and type fields, in which case the router would be
    responsible for filling in the correct Ethernet source address to
    form a full Ethernet header before forwarding the packet.  It would
    also replace the destination address with the source address when
    moving the original header segment information to the trailer."

    Saves 6 bytes per Ethernet hop at the cost of a router-side fill-in.
    """

    dst: MacAddress
    ethertype: int = ETHERTYPE_SIRPENT

    def to_bytes(self) -> bytes:
        if not 0 <= self.ethertype <= 0xFFFF:
            raise ValueError(f"ethertype {self.ethertype:#x} out of range")
        return self.dst.to_bytes() + self.ethertype.to_bytes(
            ETHERTYPE_BYTES, "big"
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "CompressedEthernetInfo":
        if len(data) != COMPRESSED_ETHERNET_INFO_BYTES:
            raise DecodeError(
                f"compressed Ethernet portInfo must be "
                f"{COMPRESSED_ETHERNET_INFO_BYTES} bytes, got {len(data)}"
            )
        return cls(
            dst=MacAddress.from_bytes(data[0:6]),
            ethertype=int.from_bytes(data[6:8], "big"),
        )


@dataclass(frozen=True)
class LogicalInfo:
    """PortInfo for a logical hop: an opaque label plus parameters.

    The label names a destination the owning network knows how to reach
    (e.g. "the Boston router"); the network binds it to a physical path
    at forwarding time (§2.2 — late binding for load balancing and
    rerouting).  On the wire it is a 2-byte label, 1-byte flow-hash
    hint and 1-byte reserved field.
    """

    label: int
    flow_hint: int = 0

    WIRE_BYTES = 4

    def to_bytes(self) -> bytes:
        if not 0 <= self.label <= 0xFFFF:
            raise ValueError(f"logical label {self.label} out of range")
        if not 0 <= self.flow_hint <= 0xFF:
            raise ValueError(f"flow hint {self.flow_hint} out of range")
        return self.label.to_bytes(LABEL_BYTES, "big") + bytes(
            [self.flow_hint, 0]
        )

    @classmethod
    def from_bytes(cls, data: bytes) -> "LogicalInfo":
        if len(data) != cls.WIRE_BYTES:
            raise DecodeError(
                f"logical portInfo must be {cls.WIRE_BYTES} bytes, got {len(data)}"
            )
        return cls(label=int.from_bytes(data[0:2], "big"), flow_hint=data[2])
