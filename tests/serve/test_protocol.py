"""Wire-format unit tests: framing, handshake, config decoding."""

from fractions import Fraction

import pytest

from repro.algorithms import registry
from repro.pipeline import Pipeline, spec_config
from repro.serve import protocol
from repro.verify.discharge import ObligationDischarged, UnitStarted, EarlyExit


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def test_encode_decode_roundtrip():
    message = {"type": "verify", "spec": "svt", "id": "r1"}
    line = protocol.encode_line(message)
    assert line.endswith(b"\n")
    assert b"\n" not in line[:-1]
    assert protocol.decode_line(line) == message


def test_encoding_is_canonical():
    # Key order cannot leak into the frame: both endpoints and the tests
    # compare frames byte-for-byte.
    a = protocol.encode_line({"b": 1, "a": 2, "type": "x"})
    b = protocol.encode_line({"type": "x", "a": 2, "b": 1})
    assert a == b


@pytest.mark.parametrize(
    "line",
    [b"not json\n", b"[1, 2]\n", b'{"no-type": 1}\n', b'{"type": 7}\n'],
)
def test_decode_rejects_malformed_frames(line):
    with pytest.raises(protocol.ProtocolError):
        protocol.decode_line(line)


def test_oversized_frame_rejected():
    big = {"type": "verify", "source": "x" * protocol.MAX_LINE_BYTES}
    with pytest.raises(protocol.ProtocolError):
        protocol.encode_line(big)


# ---------------------------------------------------------------------------
# Handshake
# ---------------------------------------------------------------------------


def test_hellos_carry_version_and_protocol():
    from repro import __version__

    hello = protocol.server_hello()
    assert hello["version"] == __version__
    assert hello["protocol"] == protocol.PROTOCOL_VERSION
    assert protocol.client_hello()["protocol"] == protocol.PROTOCOL_VERSION


def test_check_client_hello_accepts_current_protocol():
    protocol.check_client_hello(protocol.client_hello())


@pytest.mark.parametrize(
    "message",
    [
        {"type": "verify", "spec": "svt"},
        {"type": "hello"},
        {"type": "hello", "protocol": protocol.PROTOCOL_VERSION + 1},
        {"type": "hello", "protocol": "1"},
        {"type": "hello", "protocol": 1},  # the previous protocol
    ],
)
def test_check_client_hello_rejects_mismatch(message):
    with pytest.raises(protocol.ProtocolError) as err:
        protocol.check_client_hello(message)
    assert err.value.code == "protocol-mismatch"


# ---------------------------------------------------------------------------
# Config decoding
# ---------------------------------------------------------------------------


def test_config_from_wire_defaults():
    config = protocol.config_from_wire(None)
    assert config.mode == "unroll"
    assert config.bindings == {}
    assert config.cancel_event is None


def test_config_from_wire_rationals_and_assumptions():
    config = protocol.config_from_wire(
        {
            "bindings": {"eps": "1/2", "size": 5},
            "assumptions": ["eps > 0"],
            "fail_fast": True,
        }
    )
    assert config.bindings == {"eps": Fraction(1, 2), "size": Fraction(5)}
    assert len(config.assumptions) == 1
    assert config.fail_fast is True


def test_config_from_wire_merges_over_base():
    spec = registry.get("svt")
    base = spec_config(spec)
    config = protocol.config_from_wire({"bindings": {"eps": "2"}}, base=base)
    # The explicit binding overrides; the rest of the Table-1 regime stays.
    assert config.bindings["eps"] == Fraction(2)
    for name, value in base.bindings.items():
        if name != "eps":
            assert config.bindings[name] == value
    assert config.assumptions == tuple(base.assumptions)


@pytest.mark.parametrize(
    "data",
    [
        {"nope": 1},
        {"mode": "sideways"},
        {"bindings": {"eps": "elephant"}},
        {"bindings": ["eps"]},
        {"assumptions": ["eps >"]},
        {"backend": "quantum"},
        {"unroll_limit": "many"},
    ],
)
def test_config_from_wire_rejects_bad_configs(data):
    with pytest.raises(protocol.ProtocolError):
        protocol.config_from_wire(data)


@pytest.mark.parametrize("key, value", [("jobs", 2), ("backend", "serial")])
def test_removed_discharge_keys_are_named_in_the_error(key, value):
    with pytest.raises(protocol.ProtocolError) as err:
        protocol.config_from_wire({key: value})
    assert err.value.code == "bad-request"
    assert key in str(err.value)


# ---------------------------------------------------------------------------
# Pipeline → wire
# ---------------------------------------------------------------------------


def test_event_to_wire_kinds_and_fields():
    started = protocol.event_to_wire(UnitStarted(unit="u0", obligations=3), rid="r9")
    assert started["type"] == "event"
    assert started["kind"] == "unit-started"
    assert started["unit"] == "u0"
    assert started["obligations"] == 3
    assert started["id"] == "r9"

    early = protocol.event_to_wire(EarlyExit(unit="plan", reason="cancelled"))
    assert early["kind"] == "early-exit"
    assert "id" not in early


def test_event_wire_is_json_encodable():
    event = ObligationDischarged(
        unit="u1", oid="abc123", tag="eps-budget", cached=True
    )
    protocol.encode_line(protocol.event_to_wire(event, rid="r1"))


def test_result_to_wire_shape():
    spec = registry.get("partial_sum")
    run = Pipeline().run(spec.source, config=spec_config(spec))
    result = protocol.result_to_wire(run, cached=False, rid="r1")
    assert result["type"] == "result"
    assert result["name"] == run.name
    assert result["source_sha256"] == run.source_hash
    assert result["cached"] is False
    outcome = result["outcome"]
    assert outcome["verified"] is True
    assert outcome["obligations_total"] == len(outcome["oids"])
    assert outcome["failures"] == []
    assert outcome["counters"]["solve_calls"] > 0
    assert [s["stage"] for s in result["stages"]] == [
        "parse", "check", "lower_ir", "lower", "optimize", "verify",
    ]
    # The whole terminal message must survive framing.
    assert protocol.decode_line(protocol.encode_line(result)) == result
