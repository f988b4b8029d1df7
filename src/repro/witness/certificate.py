"""The proof-witness certificate and its canonical JSON form.

A :class:`Certificate` is the auditable artifact behind one ``valid``
verdict: input clauses in arrival order, the theory atom table (SAT
variable → linear inequality over the obligation's variables), the
solve-time assumption literals, and the chronological proof-event trail
— theory lemmas with Farkas coefficients and DRUP-style learned clauses.
As emitted it holds the boolean problem exactly as the SAT core saw it;
as serialized into the store it is the proof core
(:func:`~repro.witness.emit.trim_certificate`), the same shape with
only the events the refutation uses and the atoms they mention.  The
trusted kernel (:mod:`repro.witness.validate`) replays exactly this
data, in either form; nothing else is needed.

Serialization is **canonical JSON**: sorted keys, no whitespace, exact
rationals as ``"p/q"`` strings, and a schema version — so a certificate
stored in the obligation store (or shipped over the serve protocol)
round-trips byte-identically and is safe to fingerprint.  Decoding
accepts only that canonical spelling (``"p"`` for an integer, ``"p/q"``
in lowest terms with ``q > 1`` otherwise) and yields an ``int`` for an
integral value, a ``Fraction`` for any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Optional, Tuple

from repro.witness.validate import Rational, WitnessError

#: Bump when the certificate JSON shape changes; validators reject
#: certificates from other schema versions.
SCHEMA_VERSION = 1

#: ``(op, ((name, coeff), ...), const)`` — one atom's linear form.
Atom = Tuple[str, Tuple[Tuple[str, Rational], ...], Rational]


def _rational(text: object) -> Rational:
    """Decode a canonical ``"p"`` or ``"p/q"`` string; any other spelling
    (``"6/4"``, ``"3/1"``, ``"+3"``, ``" 3"``, ``"1.5"``, a JSON number)
    raises ``ValueError``."""
    if type(text) is str:
        num, slash, den = text.partition("/")
        try:
            value = Fraction(int(num), int(den)) if slash else int(num)
        except (ValueError, ZeroDivisionError):
            pass
        else:
            # Canonical iff it prints back unchanged: lowest terms, q > 1
            # (a Fraction with q == 1 prints without the "/q").
            if str(value) == text:
                return value
    raise ValueError(f"non-canonical rational {text!r}")


@dataclass
class Certificate:
    """A machine-checkable proof for one ``valid`` verdict.

    ``oid``/``fingerprint`` tie the certificate to an obligation and its
    premise fingerprint once it is attached by the discharge layer; the
    proof (atoms, assumptions, events) is obligation-agnostic and may be
    shared by every member of a conjoined batch.  An emitted certificate
    snapshots the solver's whole incremental history; its trimmed proof
    core, which the store keeps, has ``input`` events that are a
    subsequence of the emitted ones.
    """

    atoms: Dict[int, Atom] = field(default_factory=dict)
    assumptions: Tuple[int, ...] = ()
    events: Tuple[Tuple, ...] = ()
    oid: Optional[str] = None
    fingerprint: Optional[str] = None

    # -- introspection ---------------------------------------------------------

    def summary(self) -> Dict[str, int]:
        counts = {"inputs": 0, "lemmas": 0, "learned": 0}
        for event in self.events:
            if event[0] == "input":
                counts["inputs"] += 1
            elif event[0] == "lemma":
                counts["lemmas"] += 1
            elif event[0] == "learn":
                counts["learned"] += 1
        counts["atoms"] = len(self.atoms)
        counts["assumptions"] = len(self.assumptions)
        return counts

    # -- canonical JSON --------------------------------------------------------

    def to_json(self) -> str:
        """The canonical serialized form (sorted keys, exact fractions)."""
        events = []
        for event in self.events:
            kind = event[0]
            wire = [kind, [int(l) for l in event[1]]]
            if kind == "lemma":
                wire.append([[int(lit), str(mu)] for lit, mu in event[2]])
            events.append(wire)
        payload = {
            "schema": SCHEMA_VERSION,
            "oid": self.oid,
            "fingerprint": self.fingerprint,
            "assumptions": [int(l) for l in self.assumptions],
            "atoms": {
                str(var): {
                    "op": op,
                    "coeffs": {name: str(c) for name, c in coeffs},
                    "const": str(const),
                }
                for var, (op, coeffs, const) in self.atoms.items()
            },
            "events": events,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "Certificate":
        """Parse a serialized certificate; malformed input raises
        :class:`~repro.witness.validate.WitnessError` (step ``decode``)."""
        try:
            payload = json.loads(text)
            if not isinstance(payload, dict):
                raise ValueError("certificate is not a JSON object")
            schema = payload.get("schema")
            if schema != SCHEMA_VERSION:
                raise ValueError(f"unsupported schema version {schema!r}")
            atoms: Dict[int, Atom] = {}
            for key, atom in payload["atoms"].items():
                coeffs = tuple(
                    sorted((name, _rational(c)) for name, c in atom["coeffs"].items())
                )
                atoms[int(key)] = (atom["op"], coeffs, _rational(atom["const"]))
            events = []
            for wire in payload["events"]:
                kind = wire[0]
                clause = tuple(map(int, wire[1]))
                if kind == "lemma":
                    entries = tuple((int(lit), _rational(mu)) for lit, mu in wire[2])
                    events.append((kind, clause, entries))
                elif kind in ("input", "learn"):
                    events.append((kind, clause))
                else:
                    raise ValueError(f"unknown event kind {kind!r}")
            return cls(
                atoms=atoms,
                assumptions=tuple(map(int, payload["assumptions"])),
                events=tuple(events),
                oid=payload.get("oid"),
                fingerprint=payload.get("fingerprint"),
            )
        except WitnessError:
            raise
        except (KeyError, IndexError, TypeError, ValueError, ZeroDivisionError) as err:
            raise WitnessError("decode", f"malformed certificate: {err}")
