"""Verification of target programs (the paper's CPAChecker role).

The target language is deterministic code plus ``havoc`` and ``assert``;
verifying that no assertion can fail establishes ε-differential privacy
of the source program (Theorem 2).  This package provides:

* :mod:`repro.verify.vcgen` — a symbolic executor *streaming* proof
  obligations (stable content-derived ids, CFG provenance), with two
  loop treatments: full unrolling under concrete loop bounds (BMC / the
  paper's "fix ε" regime) and invariant-based Hoare reasoning (the
  paper's manually-supplied-invariant regime).
* :mod:`repro.verify.discharge` — the first-class discharge API:
  :class:`DischargePlan` partitions the obligation stream into
  addressable work units; a :class:`DischargeBackend` (serial, or
  one-shot when ``incremental=False``) schedules them in plan order; a
  typed :class:`DischargeEvent` stream reports progress.
* :mod:`repro.verify.lemmas` — instantiation lemmas relating monomial
  atoms (sign propagation and multiplication monotonicity), standing in
  for the nonlinear reasoning the paper obtains by rewriting programs.
* :mod:`repro.verify.houdini` — conjunctive invariant inference over a
  template pool, with optional loop peeling.
* :mod:`repro.verify.verifier` — the façade: configuration, obligation
  discharge through the SMT solver, counterexample extraction.
"""

from repro.verify.verifier import (
    VerificationConfig,
    VerificationOutcome,
    ObligationFailure,
    iter_obligations,
    verify_target,
)
from repro.verify.vcgen import Obligation, Provenance, VCGenerator
from repro.verify.discharge import (
    DischargeBackend,
    DischargeEvent,
    DischargePlan,
    DischargeUnit,
    OneShotBackend,
    SerialBackend,
    event_kind,
)
from repro.verify.houdini import HoudiniResult, infer_invariants

__all__ = [
    "VerificationConfig",
    "VerificationOutcome",
    "ObligationFailure",
    "iter_obligations",
    "verify_target",
    "Obligation",
    "Provenance",
    "VCGenerator",
    "DischargeBackend",
    "DischargeEvent",
    "DischargePlan",
    "DischargeUnit",
    "OneShotBackend",
    "SerialBackend",
    "event_kind",
    "HoudiniResult",
    "infer_invariants",
]
