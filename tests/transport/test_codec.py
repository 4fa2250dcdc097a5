"""The PDU codec round-trips every field the machine reads on receive.

:func:`~repro.transport.codec.open_pdu` of
:func:`~repro.transport.codec.encode_pdu`'s bytes gives back, for all
four kinds, what :meth:`~repro.transport.machine.TransactionMachine.on_pdu`
and its handlers read: the entities, the transaction and group fields,
the reply socket, the creation stamp, a NAK's mask, a member's bytes
and the sender's pacing gap, exactly (a double on the wire).  Every
wire size is the one the simulator's tables were built on: the 64-byte
header and 8-byte trailer around the member.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.transport.codec import (
    HEADER_BYTES,
    OVERHEAD,
    TRAILER_BYTES,
    PduKind,
    VmtpPdu,
    encode_pdu,
    open_pdu,
)

#: What the machine reads of every PDU it takes.
READ_FIELDS = (
    "kind", "transaction_id", "src_entity", "dst_entity", "member_index",
    "group_count", "timestamp", "reply_socket", "mask_bits", "pacing_gap",
)


@st.composite
def pdus(draw):
    kind = draw(st.sampled_from(list(PduKind)))
    fields = dict(
        kind=kind,
        transaction_id=draw(st.integers(0, 2**32 - 1)),
        src_entity=draw(st.integers(0, 2**64 - 1)),
        dst_entity=draw(st.integers(0, 2**64 - 1)),
        member_index=draw(st.integers(0, 255)),
        group_count=draw(st.integers(0, 255)),
        timestamp=draw(st.integers(0, 2**32 - 1)),
        reply_socket=draw(st.integers(0, 255)),
        mask_bits=draw(st.integers(0, 2**32 - 1)),
        pacing_gap=draw(st.floats(0.0, 10.0)),
    )
    if kind in (PduKind.REQUEST, PduKind.RESPONSE):
        size = draw(st.integers(0, 1024))
        offset = draw(st.integers(0, 2048))
        data = draw(st.binary(min_size=offset + size, max_size=offset + size + 16))
        fields.update(user_data=data, user_offset=offset, user_size=size)
    return VmtpPdu(**fields)


@settings(max_examples=300, deadline=None)
@given(pdu=pdus(), lead=st.binary(max_size=40), tail=st.binary(max_size=40))
def test_every_field_the_machine_reads_round_trips(pdu, lead, tail):
    data = encode_pdu(pdu)
    frame = lead + data + tail
    got = open_pdu(frame, len(lead), len(lead) + len(data))
    assert isinstance(got, VmtpPdu), got
    for name in READ_FIELDS:
        assert getattr(got, name) == getattr(pdu, name), name
    if pdu.kind in (PduKind.REQUEST, PduKind.RESPONSE):
        body = pdu.user_data[pdu.user_offset:pdu.user_offset + pdu.user_size]
        assert (got.user_size, got.user_data, got.user_offset) == (len(body), body, 0)
        assert len(data) == OVERHEAD + len(body)
    else:
        assert (got.user_size, got.user_data) == (0, None)
        assert len(data) == OVERHEAD


def test_the_layout_is_vmtp_scale():
    assert (HEADER_BYTES, TRAILER_BYTES, OVERHEAD) == (64, 8, 72)
    nak = VmtpPdu(PduKind.RESPONSE_NAK, 7, 1, 2, 0, 3, 9, 1, mask_bits=0b101)
    data = encode_pdu(nak)
    # The trailer is the stamp, then the CRC: the age check reads it
    # where §4.2 puts it, behind the body.
    assert int.from_bytes(data[-8:-4], "big") == 9
    assert open_pdu(data, 0, len(data)).mask_bits == 0b101
    assert open_pdu(data[:5] + b"\xff" + data[6:], 0, len(data)) == "checksum"
    assert open_pdu(data, 0, OVERHEAD - 1) == "short_pdu"
