"""Fuzzing the decoders: arbitrary bytes must never crash, only raise
DecodeError or produce a structure that re-encodes consistently."""

from hypothesis import given, settings, strategies as st

from repro.baselines.ip.header import IPV4_HEADER_BYTES
from repro.dataplane.multicast import decode_tree_info
from repro.viper.errors import DecodeError
from repro.viper.packet import (
    TRAILER_LENGTH_BYTES,
    TRUNCATION_MARK,
    TRUNCATION_SENTINEL,
    trailer_spans,
)
from repro.viper.portinfo import CompressedEthernetInfo, EthernetInfo
from repro.viper.wire import HeaderSegment, decode_segment, encode_segment
from tests.baselines.oracle import decode_ip_header
from tests.live.oracle import decode_trailer


@given(st.binary(max_size=600))
@settings(max_examples=300)
def test_segment_decoder_total(data):
    try:
        segment, consumed = decode_segment(data)
    except DecodeError:
        return
    assert 0 < consumed <= len(data)
    # What decoded must re-encode to exactly the bytes consumed.
    assert encode_segment(segment) == data[:consumed]


@given(st.binary(max_size=400))
@settings(max_examples=200)
def test_tree_decoder_total(data):
    try:
        branches = decode_tree_info(data)
    except DecodeError:
        return
    assert branches
    assert all(branch.segments for branch in branches)


def _trailer_piece(segment):
    """One trailer element as a router appends it: the segment's bytes
    and their 2-byte back-length."""
    wire = encode_segment(segment)
    return wire + len(wire).to_bytes(TRAILER_LENGTH_BYTES, "big")


#: Byte strings that are partly trailers: random bytes, reversed
#: segments with their back-lengths and truncation marks, in any order.
_trailerish = st.lists(
    st.one_of(
        st.binary(max_size=8),
        st.just(TRUNCATION_SENTINEL.to_bytes(TRAILER_LENGTH_BYTES, "big")),
        st.builds(
            HeaderSegment,
            port=st.integers(0, 255), rpf=st.booleans(),
            token=st.binary(max_size=20) | st.binary(min_size=255, max_size=260),
        ).map(_trailer_piece),
    ),
    max_size=8,
).map(b"".join)


@given(st.binary(max_size=300) | _trailerish)
@settings(max_examples=300)
def test_trailer_walk_never_crashes(data):
    elements, boundary = decode_trailer(data)
    assert 0 <= boundary <= len(data)
    # The decoder is the span walk materialised: the same boundary, one
    # element per span plus a mark for every 2 bytes between spans, and
    # the elements re-encode to exactly the bytes walked.
    spans, walked = trailer_spans(data)
    assert boundary == walked
    covered = sum(end - start + TRAILER_LENGTH_BYTES for start, end in spans)
    marks = (len(data) - boundary - covered) // TRAILER_LENGTH_BYTES
    assert len(elements) == len(spans) + marks
    assert sum(element is TRUNCATION_MARK for element in elements) == marks
    assert b"".join(
        TRUNCATION_SENTINEL.to_bytes(TRAILER_LENGTH_BYTES, "big")
        if element is TRUNCATION_MARK else _trailer_piece(element.segment)
        for element in elements
    ) == data[boundary:]


@given(st.binary(max_size=40))
@settings(max_examples=200)
def test_portinfo_decoders_total(data):
    for decoder in (EthernetInfo.from_bytes, CompressedEthernetInfo.from_bytes):
        try:
            decoder(data)
        except DecodeError:
            pass


@given(st.binary(min_size=IPV4_HEADER_BYTES, max_size=IPV4_HEADER_BYTES))
@settings(max_examples=300)
def test_ip_header_decoder_total(data):
    try:
        header = decode_ip_header(data)
    except ValueError:
        return
    # Decoded headers re-encode to the same bytes.
    assert header.to_bytes() == data


@given(st.binary(max_size=19))
def test_short_ip_header_rejected(data):
    try:
        decode_ip_header(data)
        assert False, "short buffer accepted"
    except ValueError:
        pass
