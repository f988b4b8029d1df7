"""The ``repro serve`` wire protocol: newline-delimited JSON.

Framing
-------
Every message is one JSON object, UTF-8 encoded, terminated by ``\\n``,
at most :data:`MAX_LINE_BYTES` long.  The connection is strictly
request/response *per connection*: the client sends one request line and
reads response lines until it sees the request's terminal message
(``result``, ``status``, ``witness``, ``pong``, ``shutdown-ack`` or
``error``);
``verify`` additionally streams any number of ``event`` lines before its
terminal message.  Concurrency comes from opening several connections —
the server multiplexes them over one warm cache.

Handshake
---------
On connect the server speaks first::

    {"type": "hello", "server": "repro-serve", "version": "1.2.0", "protocol": 3}

The client answers with its own ``hello`` carrying the protocol version
it speaks; the server replies ``{"type": "ready", ...}`` or rejects the
connection with an ``error`` (code ``protocol-mismatch``) and closes.
:data:`PROTOCOL_VERSION` is bumped on any incompatible wire change.

Message catalogue
-----------------
See ``docs/protocol.md`` for the full field-by-field specification with
examples; this module is its executable counterpart — every message the
server or client emits is built by a constructor here, and the
conversion of pipeline results and typed
:class:`~repro.verify.discharge.DischargeEvent`\\ s to wire dicts lives
here so both endpoints and the tests agree byte-for-byte.
"""

from __future__ import annotations

import dataclasses
import json
from fractions import Fraction
from typing import Any, Dict, List, Optional

from repro import __version__
from repro.lang.parser import parse_expr
from repro.verify.discharge import DischargeEvent, ObligationFailure, event_kind
from repro.verify.verifier import VerificationConfig, VerificationOutcome

#: Bumped on every incompatible wire change; both endpoints send it in
#: the handshake and the server rejects clients speaking anything else.
PROTOCOL_VERSION = 3

#: Upper bound on one framed message (sources, event bursts and status
#: dumps are all far below this; the cap exists so a corrupt peer cannot
#: make either endpoint buffer unboundedly).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: Verify-request configuration keys the server accepts.
CONFIG_KEYS = (
    "mode",
    "bindings",
    "assumptions",
    "unroll_limit",
    "fail_fast",
    "witness",
)

#: Error codes the server emits (``error`` messages' ``code`` field).
ERROR_CODES = (
    "protocol-mismatch",
    "bad-request",
    "unknown-spec",
    "verify-error",
    "timeout",
    "cancelled",
    "shutting-down",
    "overloaded",
    "internal",
)


class ProtocolError(ValueError):
    """A malformed or protocol-violating message."""

    def __init__(self, message: str, code: str = "bad-request") -> None:
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# Framing
# ---------------------------------------------------------------------------


def encode_line(message: Dict[str, Any]) -> bytes:
    """One wire frame: compact JSON + newline."""
    line = json.dumps(message, separators=(",", ":"), sort_keys=True).encode("utf-8")
    if len(line) + 1 > MAX_LINE_BYTES:
        raise ProtocolError(f"message of {len(line)} bytes exceeds MAX_LINE_BYTES")
    return line + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one frame; every message must be a JSON object with a ``type``."""
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(f"frame of {len(line)} bytes exceeds MAX_LINE_BYTES")
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ProtocolError(f"undecodable frame: {err}")
    if not isinstance(message, dict) or not isinstance(message.get("type"), str):
        raise ProtocolError("every message must be a JSON object with a string 'type'")
    return message


# ---------------------------------------------------------------------------
# Handshake and control messages
# ---------------------------------------------------------------------------


def server_hello() -> Dict[str, Any]:
    return {
        "type": "hello",
        "server": "repro-serve",
        "version": __version__,
        "protocol": PROTOCOL_VERSION,
    }


def client_hello() -> Dict[str, Any]:
    return {"type": "hello", "version": __version__, "protocol": PROTOCOL_VERSION}


def ready() -> Dict[str, Any]:
    return {"type": "ready", "protocol": PROTOCOL_VERSION}


def error(
    code: str,
    message: str,
    rid: Optional[str] = None,
    retry_after: Optional[float] = None,
) -> Dict[str, Any]:
    assert code in ERROR_CODES, code
    out: Dict[str, Any] = {"type": "error", "code": code, "message": message}
    if rid is not None:
        out["id"] = rid
    if retry_after is not None:
        # Advisory backoff floor (seconds); sent with ``overloaded`` so
        # clients do not hammer a server that is already at capacity.
        out["retry_after"] = round(float(retry_after), 3)
    return out


def health(
    status: str, causes: List[str], rid: Optional[str] = None, **extra: Any
) -> Dict[str, Any]:
    """The ``health`` response: ``ok``/``degraded``/``draining`` + causes."""
    assert status in ("ok", "degraded", "draining"), status
    out: Dict[str, Any] = {"type": "health", "status": status, "causes": list(causes)}
    out.update(extra)
    if rid is not None:
        out["id"] = rid
    return out


def check_client_hello(message: Dict[str, Any]) -> None:
    """Validate the client side of the handshake (server calls this).

    Raises :class:`ProtocolError` with code ``protocol-mismatch`` when
    the peer speaks a different protocol revision — mixed-version fleets
    must fail loudly at connect time, not corrupt a stream mid-request.
    """
    if message.get("type") != "hello":
        raise ProtocolError(
            f"expected a hello, got {message.get('type')!r}", code="protocol-mismatch"
        )
    spoken = message.get("protocol")
    if spoken != PROTOCOL_VERSION:
        raise ProtocolError(
            f"client speaks protocol {spoken!r}, server speaks {PROTOCOL_VERSION}",
            code="protocol-mismatch",
        )


# ---------------------------------------------------------------------------
# Verify requests: wire → VerificationConfig
# ---------------------------------------------------------------------------


def _parse_binding(name: str, value: Any) -> Fraction:
    try:
        return Fraction(str(value))
    except (ValueError, ZeroDivisionError):
        raise ProtocolError(f"binding {name!r} is not a rational: {value!r}")


def config_from_wire(
    data: Optional[Dict[str, Any]],
    base: Optional[VerificationConfig] = None,
    cancel_event=None,
) -> VerificationConfig:
    """The :class:`VerificationConfig` a request's ``config`` dict denotes.

    ``base`` supplies defaults (a registry spec's Table-1 regime for
    ``spec`` requests); explicit keys override it, with ``bindings``
    merged name-by-name on top of the base bindings.  Rationals travel
    as strings (``"1/2"``) or integers.
    """
    data = data or {}
    unknown = sorted(set(data) - set(CONFIG_KEYS))
    if unknown:
        raise ProtocolError(f"unknown config keys: {', '.join(unknown)}")
    base = base or VerificationConfig()

    mode = data.get("mode", base.mode)
    if mode not in ("unroll", "invariant"):
        raise ProtocolError(f"mode must be 'unroll' or 'invariant', got {mode!r}")
    bindings = dict(base.bindings)
    raw_bindings = data.get("bindings", {})
    if not isinstance(raw_bindings, dict):
        raise ProtocolError("bindings must be an object of name -> rational")
    for name, value in raw_bindings.items():
        bindings[name] = _parse_binding(name, value)
    if "assumptions" in data:
        try:
            assumptions = tuple(parse_expr(text) for text in data["assumptions"])
        except Exception as err:  # ParseError or wrong shapes
            raise ProtocolError(f"unparsable assumption: {err}")
    else:
        assumptions = tuple(base.assumptions)
    try:
        unroll_limit = int(data.get("unroll_limit", base.unroll_limit))
    except (TypeError, ValueError) as err:
        raise ProtocolError(f"unroll_limit must be an integer: {err}")
    return VerificationConfig(
        mode=mode,
        bindings=bindings,
        assumptions=assumptions,
        unroll_limit=unroll_limit,
        fail_fast=bool(data.get("fail_fast", base.fail_fast)),
        cancel_event=cancel_event,
        witness=bool(data.get("witness", base.witness)),
    )


# ---------------------------------------------------------------------------
# Results and events: pipeline → wire
# ---------------------------------------------------------------------------


def event_to_wire(event: DischargeEvent, rid: Optional[str] = None) -> Dict[str, Any]:
    """One typed discharge event as an ``event`` message.

    The ``kind`` field carries the stable kebab-case event name
    ("unit-started", "obligation-discharged", "early-exit", ...); the
    event dataclass's own fields ride alongside it unchanged.
    """
    out: Dict[str, Any] = {"type": "event", "kind": event_kind(event)}
    out.update(dataclasses.asdict(event))
    if rid is not None:
        out["id"] = rid
    return out


def failure_to_wire(failure: ObligationFailure) -> Dict[str, Any]:
    return {
        "oid": failure.obligation.oid,
        "tag": failure.obligation.tag,
        "description": failure.describe(),
    }


def outcome_to_wire(outcome: VerificationOutcome) -> Dict[str, Any]:
    return {
        "verified": outcome.verified,
        "obligations_total": outcome.obligations_total,
        "oids": list(outcome.oids or ()),
        "failures": [failure_to_wire(f) for f in outcome.failures],
        "early_exit": outcome.early_exit,
        "seconds": round(outcome.seconds, 6),
        "counters": outcome.solver_stats(),
    }


def result_to_wire(run, cached: bool, rid: Optional[str] = None) -> Dict[str, Any]:
    """The terminal ``result`` message for one verify request.

    ``run`` is a :class:`~repro.pipeline.PipelineRun`; ``cached`` says
    whether the ``verify`` stage came out of the server's warm stage
    memo (in which case no events were streamed and the embedded
    counters are those of the original producing run).
    """
    out: Dict[str, Any] = {
        "type": "result",
        "name": run.name,
        "source_sha256": run.source_hash,
        "cached": cached,
        "outcome": outcome_to_wire(run.outcome),
        "stages": [run.stages[s].to_dict() for s in run.stages],
    }
    if rid is not None:
        out["id"] = rid
    return out
