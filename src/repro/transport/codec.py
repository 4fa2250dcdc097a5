"""The VMTP PDU and its one wire form, for both substrates.

A PDU is ``header ++ body ++ trailer``.  The 64-byte header carries
every field a receiver reads — VMTP-scale (RFC 1045's header is 64
bytes too), so the sizes the simulator's tables were built on are the
codec's own:

    kind(1) reserved(1) member(1) count(1) reply_socket(1) reserved(3)
    src_entity(8) dst_entity(8) transaction_id(4) mask(4)
    pacing_gap(8, an IEEE double) reserved(24)

The body is a member's bytes; a NAK has none (its mask rides the
header).  The 8-byte trailer is the 32-bit creation timestamp (§4.2)
and a CRC-32 of every byte before it (§4.1): Sirpent's header has no
checksum, so this is what catches a damaged frame.  :func:`encode_pdu`
writes a PDU; :func:`open_pdu` checks and decodes one in place.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Any, Union

from repro.transport.ids import EntityId


class PduKind(enum.Enum):
    """VMTP PDU kinds: requests, responses and selective-retransmit NAKs.

    The two NAK directions are distinct kinds, so a host that is both a
    client and a server never takes one meant for its other role.
    """
    REQUEST = "request"
    RESPONSE = "response"
    #: Client to server: "resend the response members missing from this mask".
    RESPONSE_NAK = "response_nak"
    #: Server to client: "resend the request members missing from this mask".
    REQUEST_NAK = "request_nak"


@dataclass
class VmtpPdu:
    """A VMTP PDU's fields: entity ids, transaction id, group
    bookkeeping, and the creation timestamp that lives in the PDU's
    *trailer* with the checksum (§4.2)."""

    kind: PduKind
    transaction_id: int
    src_entity: EntityId
    dst_entity: EntityId
    member_index: int
    group_count: int
    timestamp: int
    reply_socket: int
    mask_bits: int = 0
    user_size: int = 0
    user_data: Any = None
    #: Sender's interpacket gap for this group (VMTP's rate-based flow
    #: control is advertised, so the receiver's gap detection can tell
    #: "paced and in flight" from "lost").
    pacing_gap: float = 0.0
    #: Where this member's bytes start in ``user_data``, the logical
    #: packet every member of a group carries whole.
    user_offset: int = 0


_HEADER = struct.Struct(">BxBBBxxxQQIId24x")
_WORD = struct.Struct(">I")
#: The trailer: creation timestamp, CRC-32.
_TRAILER = struct.Struct(">II")

HEADER_BYTES = _HEADER.size
TRAILER_BYTES = _TRAILER.size
#: What a PDU adds to its member's bytes.
OVERHEAD = HEADER_BYTES + TRAILER_BYTES

#: Wire codes of the PDU kinds: a kind's code is its index.
_KINDS = (
    PduKind.REQUEST, PduKind.RESPONSE,
    PduKind.RESPONSE_NAK, PduKind.REQUEST_NAK,
)
_REQUEST, _RESPONSE = _KINDS[:2]


def encode_pdu(pdu: VmtpPdu) -> bytes:
    """``pdu`` as bytes: a member carries its bytes of ``user_data``, a
    NAK nothing but its header.  One join lays down everything the
    CRC-32 covers, and one pass computes it."""
    kind = pdu.kind
    # Members first, by identity: an enum's hash is a Python call.
    code = 0 if kind is _REQUEST else 1 if kind is _RESPONSE else _KINDS.index(kind)
    if code <= 1:
        start = pdu.user_offset
        body = pdu.user_data[start:start + pdu.user_size]
    else:
        body = b""
    header = _HEADER.pack(
        code, pdu.member_index, pdu.group_count, pdu.reply_socket,
        pdu.src_entity, pdu.dst_entity, pdu.transaction_id, pdu.mask_bits,
        pdu.pacing_gap,
    )
    data = b"".join((header, body, _WORD.pack(pdu.timestamp)))
    return data + _WORD.pack(zlib.crc32(data))


def open_pdu(data: bytes, start: int, end: int) -> Union[VmtpPdu, str]:
    """Check and decode the PDU in ``data[start:end]`` in one pass: the
    checksum runs over the span, and a member's bytes are the one slice
    handed up.

    Returns the PDU, or why there is none: ``"short_pdu"`` (no room for
    a header and a trailer), ``"checksum"`` (the CRC-32 does not match),
    ``"unknown_pdu"`` (no such kind) or ``"malformed_nak"`` (a NAK that
    carries a body: it is not one this codec wrote).
    """
    body_at = start + HEADER_BYTES
    stamp_at = end - TRAILER_BYTES
    if stamp_at < body_at:
        return "short_pdu"
    stamp, crc = _TRAILER.unpack_from(data, stamp_at)
    if zlib.crc32(data[start:end - 4]) != crc:
        return "checksum"
    code, member, count, reply_socket, src, dst, txid, mask, gap = (
        _HEADER.unpack_from(data, start)
    )
    if code <= 1:  # a member's bytes
        return VmtpPdu(
            _KINDS[code], txid, src, dst, member, count, stamp,
            reply_socket, mask, stamp_at - body_at, data[body_at:stamp_at], gap,
        )
    if code >= len(_KINDS):
        return "unknown_pdu"
    if stamp_at != body_at:
        return "malformed_nak"
    return VmtpPdu(
        _KINDS[code], txid, src, dst, member, count, stamp, reply_socket,
        mask, 0, None, gap,
    )
