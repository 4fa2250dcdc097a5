"""Fuzzing the decoders: arbitrary bytes must never crash, only raise
DecodeError or produce a structure that re-encodes consistently."""

from hypothesis import given, settings, strategies as st

from repro.baselines.ip.header import IPV4_HEADER_BYTES, IpHeader
from repro.dataplane.multicast import decode_tree_info
from repro.viper.errors import DecodeError
from repro.viper.packet import decode_trailer
from repro.viper.portinfo import CompressedEthernetInfo, EthernetInfo
from repro.viper.wire import decode_segment, encode_segment


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


@given(st.binary(max_size=300))
@settings(max_examples=200)
def test_trailer_walk_never_crashes(data):
    elements, boundary = decode_trailer(data)
    assert 0 <= boundary <= len(data)


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
        header = IpHeader.from_bytes(data)
    except ValueError:
        return
    # Decoded headers re-encode to the same bytes.
    assert header.to_bytes() == data


@given(st.binary(max_size=19))
def test_short_ip_header_rejected(data):
    try:
        IpHeader.from_bytes(data)
        assert False, "short buffer accepted"
    except ValueError:
        pass
