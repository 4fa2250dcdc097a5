"""Unit tests for network-specific portInfo formats."""

import pytest

from repro.net.addresses import ETHERTYPE_SIRPENT, MacAddress
from repro.viper.errors import DecodeError
from repro.viper.portinfo import (
    ETHERNET_INFO_BYTES,
    EthernetInfo,
    LogicalInfo,
)


def macs():
    return MacAddress(0x010203040506), MacAddress(0x0A0B0C0D0E0F)


def test_ethernet_info_is_14_bytes():
    dst, src = macs()
    info = EthernetInfo(dst=dst, src=src)
    assert len(info.to_bytes()) == ETHERNET_INFO_BYTES == 14


def test_ethernet_info_roundtrip():
    dst, src = macs()
    info = EthernetInfo(dst=dst, src=src, ethertype=0x1234)
    decoded = EthernetInfo.from_bytes(info.to_bytes())
    assert decoded == info


def test_ethernet_info_layout():
    dst, src = macs()
    data = EthernetInfo(dst=dst, src=src, ethertype=ETHERTYPE_SIRPENT).to_bytes()
    assert data[0:6] == dst.to_bytes()
    assert data[6:12] == src.to_bytes()
    assert int.from_bytes(data[12:14], "big") == ETHERTYPE_SIRPENT


def test_reversed_swaps_addresses():
    """The §2 trailer transform: dst and src swap, type survives."""
    dst, src = macs()
    info = EthernetInfo(dst=dst, src=src, ethertype=0x88B5)
    rev = info.reversed()
    assert rev.dst == src and rev.src == dst
    assert rev.ethertype == info.ethertype
    assert rev.reversed() == info  # involution


def test_wrong_length_rejected():
    with pytest.raises(DecodeError):
        EthernetInfo.from_bytes(b"\x00" * 13)
    with pytest.raises(DecodeError):
        EthernetInfo.from_bytes(b"\x00" * 15)


def test_bad_ethertype_rejected():
    dst, src = macs()
    with pytest.raises(ValueError):
        EthernetInfo(dst=dst, src=src, ethertype=-1).to_bytes()


def test_logical_info_roundtrip():
    info = LogicalInfo(label=0xBEEF, flow_hint=42)
    decoded = LogicalInfo.from_bytes(info.to_bytes())
    assert decoded == info
    assert len(info.to_bytes()) == LogicalInfo.WIRE_BYTES


def test_logical_info_validation():
    with pytest.raises(ValueError):
        LogicalInfo(label=1 << 16).to_bytes()
    with pytest.raises(ValueError):
        LogicalInfo(label=1, flow_hint=300).to_bytes()
    with pytest.raises(DecodeError):
        LogicalInfo.from_bytes(b"\x00\x01")
