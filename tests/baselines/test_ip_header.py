"""Unit tests for the IPv4-like header and checksum arithmetic."""

import pytest

from repro.baselines.ip.header import (
    FLAG_DONT_FRAGMENT,
    FLAG_MORE_FRAGMENTS,
    IPV4_HEADER_BYTES,
    IpHeader,
    internet_checksum,
)
from tests.baselines.oracle import decode_ip_header


def make_header(**overrides):
    fields = dict(src=0x0A000001, dst=0x0A000002, total_length=120, ttl=64)
    fields.update(overrides)
    return IpHeader(**fields).with_checksum()


def test_header_is_20_bytes():
    assert len(make_header().to_bytes()) == IPV4_HEADER_BYTES


def test_checksum_verifies():
    header = make_header()
    assert header.checksum_ok()


def test_corruption_detected():
    header = make_header()
    data = bytearray(header.to_bytes())
    data[16] ^= 0x01  # flip a bit in src
    corrupted = decode_ip_header(bytes(data))
    assert not corrupted.checksum_ok()


def test_roundtrip():
    header = make_header(
        identification=0x1234, ttl=17, protocol=6, tos=0xA0,
        flags=FLAG_DONT_FRAGMENT, fragment_offset=0,
    )
    decoded = decode_ip_header(header.to_bytes())
    assert decoded == header


def test_known_checksum_vector():
    """The classic RFC 1071 worked example."""
    data = bytes([
        0x45, 0x00, 0x00, 0x73, 0x00, 0x00, 0x40, 0x00,
        0x40, 0x11, 0x00, 0x00,  # checksum zeroed
        0xc0, 0xa8, 0x00, 0x01, 0xc0, 0xa8, 0x00, 0xc7,
    ])
    assert internet_checksum(data) == 0xB861


def test_odd_length_padding():
    assert internet_checksum(b"\x01") == internet_checksum(b"\x01\x00")


def test_ttl_decrement_incremental_checksum():
    """RFC 1141: the incremental update must equal a full recompute."""
    header = make_header(ttl=64)
    for _ in range(63):
        header = header.decrement_ttl()
        assert header.checksum_ok(), f"broken at ttl={header.ttl}"
    assert header.ttl == 1


def test_ttl_zero_rejected():
    header = make_header(ttl=0)
    with pytest.raises(ValueError):
        header.decrement_ttl()


def test_fragment_flags():
    header = make_header(flags=FLAG_MORE_FRAGMENTS, fragment_offset=185)
    assert header.more_fragments
    assert not header.dont_fragment
    decoded = decode_ip_header(header.to_bytes())
    assert decoded.fragment_offset == 185
    assert decoded.more_fragments


def test_non_ipv4_rejected():
    data = bytearray(make_header().to_bytes())
    data[0] = (6 << 4) | 5
    with pytest.raises(ValueError):
        decode_ip_header(bytes(data))


def test_short_buffer_rejected():
    with pytest.raises(ValueError):
        decode_ip_header(b"\x45\x00")
