"""``decode_preamble`` against its field-by-field reference.

The production decoder reads the fixed preamble with one
``struct.unpack_from`` and returns a tuple record; the reference below
is the decoder it replaced, byte indexing and all, kept here as the
oracle.  On every buffer — random, valid, or a valid one mutated and
truncated — and for every buffer type the live stack hands it
(``bytes`` from tests and the slow paths, ``bytearray`` scratch frames,
``memoryview`` over a ring slot) the two must return the identical
record or raise :class:`ViperDecodeError` with the identical message:
same checks, same order.
"""

import random

from repro.live.frames import (
    FLAG_TRACED,
    FRAME_ACK,
    FRAME_DATA,
    MAGIC,
    PREAMBLE_BYTES,
    TRACE_ID_BYTES,
    VERSION,
    Preamble,
    decode_preamble,
    encode_preamble,
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
    if kind not in (FRAME_DATA, FRAME_ACK):
        raise ViperDecodeError(f"unknown live-frame kind {kind}")
    seg_count = datagram[8]
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
        seq=int.from_bytes(datagram[4:8], "big"),
        seg_count=seg_count,
        payload_len=int.from_bytes(datagram[9:11], "big"),
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
    kind = FRAME_DATA if rng.random() < 0.8 else FRAME_ACK
    trace_id = (
        rng.getrandbits(64) or 1
        if kind == FRAME_DATA and rng.random() < 0.3 else 0
    )
    return encode_preamble(
        kind, rng.getrandbits(32), rng.randrange(MAX_SEGMENTS + 1),
        rng.getrandbits(16), trace_id=trace_id,
    ) + rng.randbytes(rng.randrange(40))


#: Single-field corruptions, each aimed at one check of the decoder.
def _bad_magic(b, rng):
    b[rng.randrange(2)] ^= 1 + rng.randrange(255)


def _bad_version(b, rng):
    b[2] = rng.choice([v for v in range(256) if v != VERSION])


def _bad_kind(b, rng):
    b[3] = (b[3] & FLAG_TRACED) | rng.randrange(2, 128)


def _too_many_segments(b, rng):
    b[8] = rng.randrange(MAX_SEGMENTS + 1, 256)


def _traced_ack(b, rng):
    b[3] = FRAME_ACK | FLAG_TRACED


def _traced_flag_set(b, rng):
    b[3] |= FLAG_TRACED  # whatever follows now reads as the trace id


def _zero_trace_id(b, rng):
    b[3] = FRAME_DATA | FLAG_TRACED
    b[PREAMBLE_BYTES:PREAMBLE_BYTES + TRACE_ID_BYTES] = bytes(TRACE_ID_BYTES)


MUTATIONS = (
    _bad_magic, _bad_version, _bad_kind, _too_many_segments, _traced_ack,
    _traced_flag_set, _zero_trace_id,
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
    preamble = decode_preamble(encode_preamble(FRAME_DATA, 7, 3, 64))
    assert preamble == (FRAME_DATA, 7, 3, 64, 0)
    assert preamble.header_len == PREAMBLE_BYTES
    traced = decode_preamble(
        encode_preamble(FRAME_DATA, 7, 3, 64, trace_id=9) + bytes(4)
    )
    assert traced.trace_id == 9
    assert traced.header_len == PREAMBLE_BYTES + TRACE_ID_BYTES
