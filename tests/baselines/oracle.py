"""The IPv4 header's decoder, which only tests read headers with.

The IP baseline builds and checksums headers but never parses one off
the wire; tests decode what :meth:`IpHeader.to_bytes` wrote.
"""

from repro.baselines.ip.header import (
    IPV4_HEADER_BYTES,
    OFFSET_MASK,
    IpHeader,
    _HEADER_STRUCT,
)


def decode_ip_header(data: bytes) -> IpHeader:
    """The :class:`IpHeader` ``data`` starts with."""
    if len(data) < IPV4_HEADER_BYTES:
        raise ValueError("buffer too short for an IPv4 header")
    (version_ihl, tos, total_length, identification, flags_offset,
     ttl, protocol, checksum, src, dst) = _HEADER_STRUCT.unpack(
        data[:IPV4_HEADER_BYTES]
    )
    if version_ihl >> 4 != 4:
        raise ValueError(f"not an IPv4 header (version {version_ihl >> 4})")
    if version_ihl & 0x0F != 5:
        raise ValueError(
            f"unsupported IHL {version_ihl & 0x0F} (options not modelled)"
        )
    return IpHeader(
        src=src, dst=dst, total_length=total_length,
        identification=identification, ttl=ttl, protocol=protocol,
        tos=tos, flags=flags_offset & 0xE000,
        fragment_offset=flags_offset & OFFSET_MASK, checksum=checksum,
    )
