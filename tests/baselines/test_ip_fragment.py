"""Unit tests for IP fragmentation and all-or-nothing reassembly."""

import pytest

from repro.baselines.ip.fragment import Reassembler, fragment_packet
from repro.baselines.ip.header import IPV4_HEADER_BYTES, IpHeader, FLAG_DONT_FRAGMENT
from repro.baselines.ip.packet import IpPacket
from repro.sim.engine import Simulator


def make_packet(payload=2000, df=False, identification=7):
    header = IpHeader(
        src=1, dst=2, total_length=IPV4_HEADER_BYTES + payload,
        identification=identification, ttl=10,
        flags=FLAG_DONT_FRAGMENT if df else 0,
    ).with_checksum()
    return IpPacket(header=header, payload_size=payload, payload=b"data")


def test_small_packet_untouched():
    packet = make_packet(payload=100)
    assert fragment_packet(packet, mtu=576) == [packet]


def test_fragments_fit_mtu_and_cover_payload():
    packet = make_packet(payload=2000)
    fragments = fragment_packet(packet, mtu=576)
    assert all(f.wire_size() <= 576 for f in fragments)
    assert sum(f.payload_size for f in fragments) == 2000
    # Offsets are 8-byte aligned and contiguous.
    offset = 0
    for fragment in fragments:
        assert fragment.header.fragment_offset * 8 == offset
        offset += fragment.payload_size
    assert fragments[-1].header.more_fragments is False
    assert all(f.header.more_fragments for f in fragments[:-1])


def test_fragment_checksums_valid():
    for fragment in fragment_packet(make_packet(), mtu=576):
        assert fragment.header.checksum_ok()


def test_df_raises():
    with pytest.raises(ValueError):
        fragment_packet(make_packet(df=True), mtu=576)


def test_tiny_mtu_rejected():
    with pytest.raises(ValueError):
        fragment_packet(make_packet(), mtu=IPV4_HEADER_BYTES + 4)


def test_refragmentation_of_a_fragment():
    packet = make_packet(payload=2000)
    first_pass = fragment_packet(packet, mtu=1500)
    second_pass = fragment_packet(first_pass[0], mtu=576)
    offsets = [f.header.fragment_offset * 8 for f in second_pass]
    assert offsets[0] == 0
    assert all(f.header.more_fragments for f in second_pass)  # MF inherited


class TestReassembler:
    def test_in_order_reassembly(self):
        sim = Simulator()
        reassembler = Reassembler(sim)
        fragments = fragment_packet(make_packet(payload=2000), mtu=576)
        results = [reassembler.accept(f) for f in fragments]
        assert all(r is None for r in results[:-1])
        whole = results[-1]
        assert whole is not None
        assert whole.payload_size == 2000
        assert not whole.header.more_fragments
        assert reassembler.reassembled.count == 1

    def test_out_of_order_reassembly(self):
        sim = Simulator()
        reassembler = Reassembler(sim)
        fragments = fragment_packet(make_packet(payload=2000), mtu=576)
        whole = None
        for fragment in reversed(fragments):
            whole = reassembler.accept(fragment) or whole
        assert whole is not None and whole.payload_size == 2000

    def test_unfragmented_passes_through(self):
        sim = Simulator()
        reassembler = Reassembler(sim)
        packet = make_packet(payload=100)
        assert reassembler.accept(packet) is packet

    def test_missing_fragment_blocks_delivery(self):
        sim = Simulator()
        reassembler = Reassembler(sim)
        fragments = fragment_packet(make_packet(payload=2000), mtu=576)
        for fragment in fragments[:-1]:
            assert reassembler.accept(fragment) is None
        assert len(reassembler._partials) == 1

    def test_timeout_discards_everything(self):
        """The all-or-nothing failure §4.3 contrasts with truncation."""
        sim = Simulator()
        reassembler = Reassembler(sim, timeout=0.5)
        fragments = fragment_packet(make_packet(payload=2000), mtu=576)
        for fragment in fragments[:-1]:
            reassembler.accept(fragment)
        sim.run(until=1.0)
        assert len(reassembler._partials) == 0
        assert reassembler.timed_out.count == 1
        # The late straggler cannot complete: a fresh partial starts.
        assert reassembler.accept(fragments[-1]) is None

    def test_interleaved_datagrams_keep_separate(self):
        sim = Simulator()
        reassembler = Reassembler(sim)
        a = fragment_packet(make_packet(payload=1200, identification=1), 576)
        b = fragment_packet(make_packet(payload=1200, identification=2), 576)
        whole_a = whole_b = None
        for fragment_a, fragment_b in zip(a, b):  # interleave arrivals
            whole_a = reassembler.accept(fragment_a) or whole_a
            whole_b = reassembler.accept(fragment_b) or whole_b
        assert whole_a.header.identification == 1
        assert whole_b.header.identification == 2
        assert whole_a.payload_size == whole_b.payload_size == 1200
