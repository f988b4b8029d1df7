"""Proof witnesses: certificates for ``valid`` verdicts and the small
trusted kernel that re-checks them without re-running the solver.

See ``docs/witness.md`` for the certificate schema, the trusted-kernel
scope, and the validation cost model.
"""

from repro.witness.certificate import SCHEMA_VERSION, Certificate
from repro.witness.emit import certificate_from_solver, trim_certificate
from repro.witness.validate import WitnessError, validate

__all__ = [
    "SCHEMA_VERSION",
    "Certificate",
    "WitnessError",
    "certificate_from_solver",
    "trim_certificate",
    "validate",
]
