"""The offset walks a live data frame is opened by, against the frame's
own structure: the preamble written in place, where the payload starts
and ends, which port leads, and whether the trailer carries the
truncation mark."""

import pytest

from repro.live.frames import (
    FRAME_DATA,
    PREAMBLE_BYTES,
    TRACE_ID_BYTES,
    decode_preamble,
    encode_live_frame,
    encode_preamble,
    encode_preamble_into,
    encode_probe,
    frame_bounds,
    frame_spans,
    payload_offset,
    truncate_into,
    truncation_marked,
)
from repro.viper.errors import ViperDecodeError
from repro.viper.packet import SirpentPacket, TrailerElement
from repro.viper.ring import BufferRing
from repro.viper.wire import HeaderSegment
from tests.live.oracle import hop_in_place, slot_view

PAYLOAD = b"sixteen byte pay"


def _frame(trace_id=0, segments=None):
    if segments is None:
        segments = [
            HeaderSegment(port=7, token=b"T" * 28, portinfo=b"\x01\x02"),
            HeaderSegment(port=3),
        ]
    packet = SirpentPacket(
        segments=segments,
        payload_size=len(PAYLOAD),
        payload=PAYLOAD,
        trailer=[TrailerElement(HeaderSegment(port=9, rpf=True))],
    )
    return encode_live_frame(packet, PAYLOAD, trace_id=trace_id)


@pytest.mark.parametrize("trace_id", [0, 0x0102030405060708],
                         ids=["untraced", "traced"])
def test_encode_preamble_into_writes_what_encode_preamble_returns(trace_id):
    expected = encode_preamble(FRAME_DATA, 4, 321, trace_id=trace_id)
    buffer = bytearray(b"\xee" * 40)
    written = encode_preamble_into(buffer, 5, 4, 321, trace_id=trace_id)
    assert written == len(expected)
    assert written == PREAMBLE_BYTES + (TRACE_ID_BYTES if trace_id else 0)
    assert buffer[5:5 + written] == expected
    assert buffer[:5] == b"\xee" * 5
    assert buffer[5 + written:] == b"\xee" * (35 - written)


@pytest.mark.parametrize("seg_count,payload_len,trace_id", [
    (256, 0, 0), (1, 0x10000, 0), (1, 0, 1 << 64),
], ids=["segments", "payload", "trace-id"])
def test_encode_preamble_into_refuses_fields_the_preamble_cannot_hold(
    seg_count, payload_len, trace_id
):
    with pytest.raises(ValueError):
        encode_preamble_into(bytearray(32), 0, seg_count, payload_len,
                             trace_id=trace_id)


@pytest.mark.parametrize("trace_id", [0, 77], ids=["untraced", "traced"])
def test_frame_bounds_find_the_lead_port_and_the_payload(trace_id):
    datagram = _frame(trace_id)
    preamble = decode_preamble(datagram)
    port, start, end = frame_bounds(datagram, preamble)
    assert port == 7
    assert start == payload_offset(datagram, preamble)
    assert datagram[start:end] == PAYLOAD
    assert frame_spans(datagram, preamble)[:3] == (port, start, end)


def test_a_frame_with_no_segment_left_has_no_lead_port():
    datagram = _frame(segments=[])
    preamble = decode_preamble(datagram)
    port, start, end = frame_bounds(datagram, preamble)
    assert port is None
    assert start == PREAMBLE_BYTES
    assert datagram[start:end] == PAYLOAD


def test_frame_bounds_refuse_a_payload_past_the_datagram():
    datagram = _frame()
    preamble = decode_preamble(datagram)._replace(
        payload_len=len(datagram)
    )
    with pytest.raises(ViperDecodeError):
        frame_bounds(datagram, preamble)


def test_frame_bounds_refuse_a_control_frame():
    probe = encode_probe(5)
    with pytest.raises(ViperDecodeError):
        frame_bounds(probe, decode_preamble(probe))


def test_a_forwarded_frame_carries_no_truncation_mark():
    datagram = hop_in_place(_frame(), HeaderSegment(port=4))
    preamble = decode_preamble(datagram)
    _, _, end, spans = frame_spans(datagram, preamble)
    assert len(spans) == 2
    assert not truncation_marked(len(datagram), end, spans)


def test_a_truncated_frame_carries_the_truncation_mark():
    view = slot_view(BufferRing(slots=1), _frame())
    body = len(view.mem) - PREAMBLE_BYTES
    assert truncate_into(view, body - 4)
    datagram = view.tobytes()
    view.release()
    preamble = decode_preamble(datagram)
    _, _, end, spans = frame_spans(datagram, preamble)
    assert preamble.payload_len == len(PAYLOAD) - 6
    assert truncation_marked(len(datagram), end, spans)
