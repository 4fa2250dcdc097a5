"""Unit tests for the VIPER flags/priority byte (§5)."""

import pytest

from repro.viper.flags import (
    PRIORITY_BULK,
    PRIORITY_LOWEST,
    PRIORITY_NORMAL,
    PRIORITY_PREEMPT,
    PRIORITY_PREEMPT_HIGH,
    effective_priority,
    is_preemptive,
    outranks,
    pack_flags_priority,
    unpack_flags_priority,
    validate_priority,
)


def test_pack_unpack_roundtrip_all_values():
    for vnt in (False, True):
        for dib in (False, True):
            for rpf in (False, True):
                for slick in (False, True):
                    for priority in range(16):
                        byte = pack_flags_priority(
                            vnt, dib, rpf, priority, slick=slick
                        )
                        assert unpack_flags_priority(byte) == (
                            vnt, dib, rpf, slick, priority
                        )


def test_slick_defaults_off_and_keeps_legacy_bytes():
    """Omitting ``slick`` packs the exact pre-slick byte for every
    legacy flag combination — non-slick frames stay byte-identical."""
    for vnt in (False, True):
        for dib in (False, True):
            for rpf in (False, True):
                for priority in range(16):
                    legacy = pack_flags_priority(vnt, dib, rpf, priority)
                    assert legacy & 0x10 == 0  # slick bit clear
                    assert legacy == pack_flags_priority(
                        vnt, dib, rpf, priority, slick=False
                    )


def test_priority_order_normal_band():
    """0 is normal, 7 highest (§5)."""
    for lower, higher in zip(range(0, 7), range(1, 8)):
        assert outranks(higher, lower)


def test_priority_order_low_band():
    """High-order-bit values are lower; 0xF is lowest (§5)."""
    assert outranks(PRIORITY_NORMAL, PRIORITY_BULK)
    assert outranks(PRIORITY_BULK, PRIORITY_LOWEST)
    assert outranks(0x8, 0x9)  # within the low band, bigger = lower


def test_total_order_is_strict():
    effectives = sorted(effective_priority(p) for p in range(16))
    assert effectives == list(range(16))  # all distinct


def test_preemptive_priorities():
    assert is_preemptive(PRIORITY_PREEMPT)
    assert is_preemptive(PRIORITY_PREEMPT_HIGH)
    assert not is_preemptive(5)
    assert not is_preemptive(PRIORITY_NORMAL)
    assert not is_preemptive(PRIORITY_LOWEST)


def test_outranks_is_irreflexive():
    for p in range(16):
        assert not outranks(p, p)


def test_priority_range_validated():
    with pytest.raises(ValueError):
        effective_priority(16)
    with pytest.raises(ValueError):
        pack_flags_priority(False, False, False, -1)
    with pytest.raises(ValueError):
        unpack_flags_priority(256)


def test_validate_priority_passes_every_nibble_unchanged():
    for priority in range(16):
        assert validate_priority(priority) == priority


@pytest.mark.parametrize("priority", [-1, 0x10, 0xFF])
def test_validate_priority_refuses_what_a_nibble_cannot_hold(priority):
    with pytest.raises(ValueError):
        validate_priority(priority)
    with pytest.raises(ValueError):
        pack_flags_priority(False, False, False, priority)
