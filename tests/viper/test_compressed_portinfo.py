"""Unit tests for the compressed Ethernet portInfo (paper footnote 4)."""

import pytest

from repro.dataplane.pipeline import resolve_dst_mac
from repro.net.addresses import MacAddress
from repro.viper.errors import DecodeError
from repro.viper.portinfo import (
    COMPRESSED_ETHERNET_INFO_BYTES,
    CompressedEthernetInfo,
    EthernetInfo,
)
from repro.viper.wire import HeaderSegment


def macs():
    return MacAddress(0x010203040506), MacAddress(0x0A0B0C0D0E0F)


def test_is_8_bytes():
    dst, _ = macs()
    info = CompressedEthernetInfo(dst=dst)
    assert len(info.to_bytes()) == COMPRESSED_ETHERNET_INFO_BYTES == 8


def test_roundtrip():
    dst, _ = macs()
    info = CompressedEthernetInfo(dst=dst, ethertype=0x1234)
    assert CompressedEthernetInfo.from_bytes(info.to_bytes()) == info


def test_saves_six_bytes_per_hop():
    dst, src = macs()
    full = EthernetInfo(dst=dst, src=src).to_bytes()
    compressed = CompressedEthernetInfo(dst=dst).to_bytes()
    assert len(full) - len(compressed) == 6


def test_wrong_length_rejected():
    with pytest.raises(DecodeError):
        CompressedEthernetInfo.from_bytes(b"\x00" * 7)
    with pytest.raises(DecodeError):
        CompressedEthernetInfo.from_bytes(b"\x00" * 14)


@pytest.mark.parametrize("port_kind,portinfo,resolved", [
    ("ethernet", CompressedEthernetInfo(dst=macs()[0]).to_bytes(), macs()[0]),
    ("ethernet", EthernetInfo(dst=macs()[0], src=macs()[1]).to_bytes(),
     macs()[0]),
    ("ethernet", b"\x00" * 7, None),
    ("p2p", CompressedEthernetInfo(dst=macs()[0]).to_bytes(), None),
], ids=["compressed", "full", "malformed", "off-ethernet"])
def test_the_router_reads_the_destination_of_either_form(
    port_kind, portinfo, resolved
):
    """The router takes only the destination from the portInfo, so the
    8-byte form serves as well as the 14-byte one; the attachment puts
    its own source address on the frame."""
    segment = HeaderSegment(port=1, portinfo=portinfo)
    assert resolve_dst_mac(segment, port_kind) == resolved


class TestEndToEnd:
    def test_compressed_route_delivers_over_ethernet(self):
        """A route built with compressed portInfo crosses Ethernet hops
        (the router resolves the 8-byte form)."""
        from repro.directory import RouteQuery
        from repro.scenarios import build_sirpent_campus

        scenario = build_sirpent_campus()
        full = scenario.directory.query("venus", RouteQuery(
            "milo.lcs.mit.edu",
        ))[0]
        compressed = scenario.directory.query("venus", RouteQuery(
            "milo.lcs.mit.edu", compress_ethernet=True,
        ))[0]
        # The compressed route is smaller on the wire.
        assert compressed.header_overhead() < full.header_overhead()
        got = []
        scenario.hosts["milo"].bind(0, got.append)
        scenario.hosts["venus"].send(compressed, b"compressed", 300)
        scenario.sim.run(until=1.0)
        assert len(got) == 1
        assert got[0].payload == b"compressed"
        assert got[0].packet.hop_log == ["gw-stanford", "gw-mit"]
