"""Failure modes of the ShadowDP pipeline."""

from __future__ import annotations


class ShadowDPError(Exception):
    """Base class for all pipeline errors."""


class ShadowDPTypeError(ShadowDPError):
    """The program does not type check (Section 4).

    ``reason`` is a machine-readable tag used by tests and by the
    annotation-inference search (Section 6.4) to distinguish "wrong
    annotation" from "program outside the fragment".  ``solve_calls``
    is the solver work the check did before it rejected the program.
    """

    def __init__(self, message: str, reason: str = "type-error") -> None:
        super().__init__(message)
        self.reason = reason
        self.solve_calls = 0


class ShadowDPVerificationError(ShadowDPError):
    """The transformed program could not be verified (Section 6.1)."""
