"""``decode_preamble`` against its field-by-field reference.

The production decoder reads the fixed preamble with one
``struct.unpack_from`` and returns a tuple record; the reference below
is the decoder it replaced, byte indexing and all, kept here as the
oracle.  On every buffer — random, valid, or a valid one mutated and
truncated — and for every buffer type the live stack hands it
(``bytes`` from tests and the slow paths, ``bytearray`` scratch frames,
``memoryview`` over a ring slot) the two must return the identical
record or raise :class:`ViperDecodeError` with the identical message:
same checks, same order.  Data, probe and ack preambles are all in the
corpus, and a version-1 (11-byte) preamble must be refused.  A probe's
or an ack's nonce is read by ``control_nonce`` only from a frame that
frames exactly, against a field-by-field reference too.
"""

import random

from repro.live.frames import (
    FLAG_TRACED,
    FRAME_ACK,
    FRAME_DATA,
    FRAME_PROBE,
    MAGIC,
    PREAMBLE_BYTES,
    TRACE_ID_BYTES,
    VERSION,
    Preamble,
    control_nonce,
    decode_preamble,
    encode_ack,
    encode_preamble,
    encode_probe,
)
from repro.viper.errors import ViperDecodeError
from repro.viper.wire import MAX_SEGMENTS


def reference_decode_preamble(datagram) -> Preamble:
    """The pre-``struct`` decoder, verbatim."""
    if len(datagram) < PREAMBLE_BYTES:
        raise ViperDecodeError(
            f"datagram of {len(datagram)} bytes is shorter than the "
            f"{PREAMBLE_BYTES}-byte preamble"
        )
    if datagram[0:2] != MAGIC:
        raise ViperDecodeError("bad live-frame magic")
    if datagram[2] != VERSION:
        raise ViperDecodeError(f"unsupported live-frame version {datagram[2]}")
    wire_kind = datagram[3]
    traced = bool(wire_kind & FLAG_TRACED)
    kind = wire_kind & ~FLAG_TRACED
    if kind not in (FRAME_DATA, FRAME_ACK, FRAME_PROBE):
        raise ViperDecodeError(f"unknown live-frame kind {kind}")
    seg_count = datagram[4]
    if seg_count > MAX_SEGMENTS:
        raise ViperDecodeError(
            f"segment count {seg_count} exceeds VIPER's {MAX_SEGMENTS}"
        )
    trace_id = 0
    if traced:
        if kind != FRAME_DATA:
            raise ViperDecodeError("traced flag on a non-data frame")
        if len(datagram) < PREAMBLE_BYTES + TRACE_ID_BYTES:
            raise ViperDecodeError("traced frame shorter than its trace id")
        trace_id = int.from_bytes(
            datagram[PREAMBLE_BYTES:PREAMBLE_BYTES + TRACE_ID_BYTES], "big"
        )
        if trace_id == 0:
            raise ViperDecodeError("traced flag with zero trace id")
    return Preamble(
        kind=kind,
        seg_count=seg_count,
        payload_len=int.from_bytes(datagram[5:7], "big"),
        trace_id=trace_id,
    )


def outcome(decoder, buffer):
    try:
        return decoder(buffer)
    except ViperDecodeError as error:
        return ("ViperDecodeError", str(error))


def assert_same(buffer: bytes) -> str:
    """Both decoders agree on ``buffer`` as bytes, bytearray and
    memoryview; returns "ok" or the error message for the tally."""
    expected = outcome(reference_decode_preamble, buffer)
    for shaped in (buffer, bytearray(buffer), memoryview(bytearray(buffer))):
        got = outcome(decode_preamble, shaped)
        assert got == expected, (buffer.hex(), type(shaped).__name__)
        assert type(got) is type(expected)
    return "ok" if isinstance(expected, Preamble) else expected[1]


def valid_preamble(rng: random.Random) -> bytes:
    kind = (
        FRAME_DATA if rng.random() < 0.7
        else rng.choice((FRAME_ACK, FRAME_PROBE))
    )
    trace_id = (
        rng.getrandbits(64) or 1
        if kind == FRAME_DATA and rng.random() < 0.3 else 0
    )
    return encode_preamble(
        kind, rng.randrange(MAX_SEGMENTS + 1), rng.getrandbits(16),
        trace_id=trace_id,
    ) + rng.randbytes(rng.randrange(40))


#: Single-field corruptions, each aimed at one check of the decoder.
def _bad_magic(b, rng):
    b[rng.randrange(2)] ^= 1 + rng.randrange(255)


def _bad_version(b, rng):
    b[2] = rng.choice([v for v in range(256) if v != VERSION])


def _bad_kind(b, rng):
    b[3] = (b[3] & FLAG_TRACED) | rng.randrange(3, 128)


def _version_1(b, rng):
    b[2] = 1  # the 11-byte preamble's version: never read as version 2


def _too_many_segments(b, rng):
    b[4] = rng.randrange(MAX_SEGMENTS + 1, 256)


def _traced_control(b, rng):
    b[3] = rng.choice((FRAME_ACK, FRAME_PROBE)) | FLAG_TRACED


def _traced_flag_set(b, rng):
    b[3] |= FLAG_TRACED  # whatever follows now reads as the trace id


def _zero_trace_id(b, rng):
    b[3] = FRAME_DATA | FLAG_TRACED
    b[PREAMBLE_BYTES:PREAMBLE_BYTES + TRACE_ID_BYTES] = bytes(TRACE_ID_BYTES)


MUTATIONS = (
    _bad_magic, _bad_version, _version_1, _bad_kind, _too_many_segments,
    _traced_control, _traced_flag_set, _zero_trace_id,
)


def test_fuzz_identical_record_or_identical_error():
    rng = random.Random(0x9E4A)
    tally = {}

    def check(buffer: bytes) -> None:
        verdict = assert_same(buffer)
        tally[verdict] = tally.get(verdict, 0) + 1

    for _ in range(1500):  # line noise
        check(rng.randbytes(rng.randrange(32)))
    for _ in range(1500):  # well-formed
        check(valid_preamble(rng))
    for _ in range(1500):  # one aimed corruption, sometimes two
        mutated = bytearray(valid_preamble(rng))
        for _ in range(1 if rng.random() < 0.7 else 2):
            rng.choice(MUTATIONS)(mutated, rng)
        check(bytes(mutated))
    for _ in range(1500):  # random byte flips and truncation
        mutated = bytearray(valid_preamble(rng))
        for _ in range(rng.randrange(4)):
            mutated[rng.randrange(len(mutated))] = rng.randrange(256)
        check(bytes(mutated[: rng.randrange(len(mutated) + 1)]))
    assert sum(tally.values()) == 6000
    # The corpus reached the success path and every rejection.
    assert tally["ok"] > 1000
    assert "unsupported live-frame version 1" in tally
    for message in (
        "bad live-frame magic",
        "traced flag on a non-data frame",
        "traced frame shorter than its trace id",
        "traced flag with zero trace id",
    ):
        assert tally.get(message, 0) > 0, message
    for prefix in (
        "datagram of ", "unsupported live-frame version ",
        "unknown live-frame kind ", "segment count ",
    ):
        assert any(key.startswith(prefix) for key in tally), prefix


def test_preamble_is_a_cheap_immutable_record():
    preamble = decode_preamble(encode_preamble(FRAME_DATA, 3, 64))
    assert preamble == (FRAME_DATA, 3, 64, 0)
    assert preamble.header_len == PREAMBLE_BYTES == 7
    traced = decode_preamble(
        encode_preamble(FRAME_DATA, 3, 64, trace_id=9) + bytes(4)
    )
    assert traced.trace_id == 9
    assert traced.header_len == PREAMBLE_BYTES + TRACE_ID_BYTES == 15


def reference_control_nonce(datagram):
    """A probe's or an ack's nonce, field by field: the preamble, no
    segments, ``payloadLen`` 4 and exactly four bytes behind it."""
    if (
        len(datagram) != PREAMBLE_BYTES + 4
        or datagram[4] != 0
        or datagram[5:7] != b"\x00\x04"
    ):
        return None
    return int.from_bytes(datagram[PREAMBLE_BYTES:], "big")


def test_fuzz_control_frames_frame_exactly_or_not_at_all():
    """``control_nonce`` on probe and ack frames — whole, cut, grown or
    with a length field off — against the field-by-field reference."""
    rng = random.Random(0xC0DE)
    tally = {"nonce": 0, "refused": 0}
    for _ in range(3000):
        kind = rng.choice((FRAME_PROBE, FRAME_ACK))
        nonce = rng.getrandbits(32)
        frame = bytearray(encode_probe(nonce) if kind == FRAME_PROBE
                          else encode_ack(nonce))
        roll = rng.random()
        if roll < 0.2:
            frame = frame[:rng.randrange(PREAMBLE_BYTES, len(frame))]
        elif roll < 0.4:
            frame += rng.randbytes(rng.randrange(1, 6))
        elif roll < 0.5:
            frame[4] = rng.randrange(1, MAX_SEGMENTS + 1)
        elif roll < 0.6:
            frame[5:7] = rng.choice((0, 3, 5, 8, 0xFFFF)).to_bytes(2, "big")
        frame = bytes(frame)
        preamble = decode_preamble(frame)
        assert preamble.kind == kind
        expected = reference_control_nonce(frame)
        try:
            got = control_nonce(frame, preamble)
        except ViperDecodeError:
            got = None
        assert got == expected, frame.hex()
        if expected is not None:
            assert got == nonce
        tally["nonce" if expected is not None else "refused"] += 1
    assert min(tally.values()) > 1000
