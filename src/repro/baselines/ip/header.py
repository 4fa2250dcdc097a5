"""IPv4-style header with real checksum arithmetic.

The baseline router pays the costs the paper enumerates: TTL decrement
and checksum update on every hop.  The checksum is the genuine ones'
complement internet checksum (RFC 1071) and the TTL update uses the
incremental method of RFC 1141, so the byte-level behaviour — including
detection of corrupted headers, which Sirpent deliberately forgoes —
is authentic.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace

IPV4_HEADER_BYTES = 20

#: Flag bits in the flags/fragment-offset word.
FLAG_DONT_FRAGMENT = 0x4000
FLAG_MORE_FRAGMENTS = 0x2000
OFFSET_MASK = 0x1FFF

_HEADER_STRUCT = struct.Struct(">BBHHHBBHII")


def internet_checksum(data: bytes) -> int:
    """RFC 1071 ones' complement sum of 16-bit words."""
    if len(data) % 2:
        data += b"\x00"
    total = 0
    for (word,) in struct.iter_unpack(">H", data):
        total += word
        total = (total & 0xFFFF) + (total >> 16)
    return (~total) & 0xFFFF


@dataclass(frozen=True)
class IpHeader:
    """A 20-byte IPv4-like header (no options)."""

    src: int
    dst: int
    total_length: int
    identification: int = 0
    ttl: int = 64
    protocol: int = 17
    tos: int = 0
    flags: int = 0
    fragment_offset: int = 0  # in 8-byte units
    checksum: int = 0

    def to_bytes(self) -> bytes:
        version_ihl = (4 << 4) | 5
        flags_offset = (self.flags & 0xE000) | (self.fragment_offset & OFFSET_MASK)
        return _HEADER_STRUCT.pack(
            version_ihl, self.tos, self.total_length,
            self.identification, flags_offset,
            self.ttl, self.protocol, self.checksum,
            self.src, self.dst,
        )

    def with_checksum(self) -> "IpHeader":
        """Return a copy whose checksum field is correct."""
        zeroed = replace(self, checksum=0)
        return replace(self, checksum=internet_checksum(zeroed.to_bytes()))

    def checksum_ok(self) -> bool:
        """Verify: the checksum of the full header must be zero."""
        return internet_checksum(self.to_bytes()) == 0

    def decrement_ttl(self) -> "IpHeader":
        """The per-hop TTL update with RFC 1141 incremental checksum.

        This is exactly the work the paper wants off the fast path: two
        field updates on every packet at every router.
        """
        if self.ttl == 0:
            raise ValueError("TTL already zero")
        new_ttl = self.ttl - 1
        # TTL and protocol share a 16-bit word: TTL is the high byte.
        old_word = (self.ttl << 8) | self.protocol
        new_word = (new_ttl << 8) | self.protocol
        checksum = self.checksum + old_word - new_word
        # Fold per RFC 1141 (~C + ~m + m' arithmetic, simplified form).
        while checksum < 0:
            checksum += 0xFFFF
        while checksum > 0xFFFF:
            checksum = (checksum & 0xFFFF) + (checksum >> 16)
        return replace(self, ttl=new_ttl, checksum=checksum)

    @property
    def more_fragments(self) -> bool:
        return bool(self.flags & FLAG_MORE_FRAGMENTS)

    @property
    def dont_fragment(self) -> bool:
        return bool(self.flags & FLAG_DONT_FRAGMENT)
