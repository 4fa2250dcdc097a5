"""The probe ladder's policy value, and the chaos corruption helper."""

import dataclasses

import pytest

from repro.live.frames import PREAMBLE_BYTES
from repro.live.link import LivenessConfig, corrupt_datagram


@pytest.mark.parametrize("field, value", [
    ("ack_timeout_s", 0.0),
    ("ack_timeout_s", -0.05),
    ("ack_timeout_s", float("nan")),
    ("max_retries", -1),
])
def test_liveness_config_rejects_a_bad_value(field, value):
    """A timeout at or before now and a negative rung count fail where
    the config is built, not in the endpoint later."""
    with pytest.raises(ValueError, match=field):
        LivenessConfig(**{field: value})


def test_liveness_config_accepts_the_edges():
    config = LivenessConfig(ack_timeout_s=1e-6, max_retries=0)
    assert (config.ack_timeout_s, config.max_retries) == (1e-6, 0)


@pytest.mark.parametrize("field", [
    field.name for field in dataclasses.fields(LivenessConfig)
])
def test_liveness_config_is_frozen(field):
    """One instance is shared by every endpoint of an overlay: a write
    would retime all of them, so there is none."""
    config = LivenessConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(config, field, getattr(config, field))


# -- chaos corruption helper -------------------------------------------------


def test_corrupt_datagram_preserves_preamble_and_is_deterministic():
    datagram = bytes(range(PREAMBLE_BYTES)) + b"payload-body-bytes"
    mangled = corrupt_datagram(datagram, seed=0xDEADBEEF)
    assert mangled != datagram
    assert len(mangled) == len(datagram)
    assert mangled[:PREAMBLE_BYTES] == datagram[:PREAMBLE_BYTES]
    assert corrupt_datagram(datagram, seed=0xDEADBEEF) == mangled
    runt = datagram[:PREAMBLE_BYTES]
    assert corrupt_datagram(runt, seed=1) == runt
