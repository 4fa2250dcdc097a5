"""The v2 command protocol: typed parse, canonical bytes, error taxonomy."""

import json

import pytest

from repro.directory.cluster.protocol import (
    CommandError,
    CommandRequest,
    CommandResponse,
    PROTOCOL_V2,
    ProtocolError,
    RETRYABLE_CODES,
    VersionError,
    canonical_encode,
    canonical_params,
    decode_response,
)


# -- requests --------------------------------------------------------------

def test_request_round_trips_through_the_wire():
    request = CommandRequest.make(
        "register_host",
        {"name": "venus.cs.stanford.edu", "node": "venus"},
        "c1-17",
    )
    parsed = CommandRequest.parse(json.loads(request.encode()))
    assert parsed == request
    assert parsed.v == PROTOCOL_V2
    assert parsed.params_dict == {
        "name": "venus.cs.stanford.edu", "node": "venus",
    }


def test_a_traced_request_round_trips_its_trace_context():
    request = CommandRequest.make(
        "lookup", {"name": "a.b"}, "t1", trace={"parent": "query", "id": 42},
    )
    assert request.to_json()["trace"] == {"id": 42, "parent": "query"}
    parsed = CommandRequest.parse(json.loads(request.encode()))
    assert parsed == request
    assert parsed.trace_id == 42
    assert parsed.trace_dict == {"id": 42, "parent": "query"}


def test_an_untraced_request_carries_no_trace_key():
    request = CommandRequest.make("lookup", {"name": "a.b"}, "t2")
    assert "trace" not in request.to_json()
    assert request.trace_dict == {}
    assert request.trace_id == 0


def test_with_trace_replaces_only_the_trace_context():
    request = CommandRequest.make(
        "rebind", {"name": "a.b"}, "t3", trace={"id": 1},
    )
    retraced = request.with_trace({"id": 2, "parent": "retry"})
    assert retraced.trace_id == 2
    assert (retraced.method, retraced.params, retraced.request_id) == (
        request.method, request.params, request.request_id,
    )
    untraced = request.with_trace(None)
    assert untraced.trace == ()
    assert untraced.encode() == CommandRequest.make(
        "rebind", {"name": "a.b"}, "t3",
    ).encode()


def test_canonical_params_ignore_key_order():
    assert canonical_params({"b": 1, "a": [2, 3]}) == canonical_params(
        {"a": [2, 3], "b": 1}
    ) == '{"a":[2,3],"b":1}'


def test_writes_and_reads_are_classified():
    write = CommandRequest.make("rebind", {"name": "a.b"}, "r1")
    read = CommandRequest.make("lookup", {"name": "a.b"}, "r2")
    assert write.is_write
    assert not read.is_write


def test_unsupported_version_is_a_named_rejection():
    with pytest.raises(VersionError):
        CommandRequest.parse({
            "v": 9, "id": "x", "method": "ping", "params": {},
        })


@pytest.mark.parametrize("frame", [
    "not an object",
    {"v": 2, "method": "ping", "params": {}},            # no id
    {"v": 2, "id": "", "method": "ping", "params": {}},  # empty id
    {"v": 2, "id": "x", "params": {}},                   # no method
    {"v": 2, "id": "x", "method": "ping", "params": ["positional"]},
    {"v": True, "id": "x", "method": "ping", "params": {}},
])
def test_malformed_frames_are_protocol_errors(frame):
    with pytest.raises(ProtocolError):
        CommandRequest.parse(frame)


def test_a_frame_without_v_is_v1_hence_version_error_here():
    """The typed parser only speaks v2; the live server routes
    v-less frames down the legacy path *before* this parser runs."""
    with pytest.raises(VersionError):
        CommandRequest.parse({"id": "x", "method": "ping", "params": {}})


# -- canonical encoding ----------------------------------------------------

def test_canonical_encoding_ignores_key_order():
    a = canonical_encode({"b": 1, "a": {"y": 2, "x": 3}})
    b = canonical_encode({"a": {"x": 3, "y": 2}, "b": 1})
    assert a == b
    assert a.endswith(b"\n")


def test_equal_responses_encode_byte_identically():
    one = CommandResponse.success("id-1", {"node": "venus", "name": "a.b"})
    two = CommandResponse.success("id-1", {"name": "a.b", "node": "venus"})
    assert one.encode() == two.encode()


# -- responses -------------------------------------------------------------

def test_success_response_round_trip():
    response = CommandResponse.success("c1-17", {"name": "a.b.net"})
    decoded = decode_response(response.encode())
    assert decoded.ok
    assert decoded.request_id == "c1-17"
    assert decoded.result_dict == {"name": "a.b.net"}


def test_failure_response_round_trip_keeps_the_taxonomy():
    response = CommandResponse.failure("c1-18", CommandError.make(
        "shard_unavailable", "no live leader", {"shard": "shard-2"},
    ))
    decoded = decode_response(response.encode())
    assert not decoded.ok
    assert decoded.error is not None
    assert decoded.error.code == "shard_unavailable"
    assert decoded.error.retryable
    assert decoded.error.details_dict == {"shard": "shard-2"}


def test_conflict_is_not_retryable():
    error = CommandError.make("conflict", "bound elsewhere")
    assert not error.retryable


def test_every_retryable_code_is_a_known_code():
    for code in RETRYABLE_CODES:
        assert CommandError.make(code, "x").retryable


def test_unknown_error_codes_are_refused():
    with pytest.raises(ProtocolError):
        CommandError.make("made_up_code", "nope")


def test_undecodable_response_line_is_a_protocol_error():
    with pytest.raises(ProtocolError):
        decode_response(b"{half a json object\n")


def test_unknown_status_is_refused():
    with pytest.raises(ProtocolError):
        CommandResponse.parse({"v": 2, "id": "x", "status": "maybe"})
