"""Inner-loop performance counters for the DPLL(T) stack.

A single :class:`SolverProfile` instance is shared by an
:class:`~repro.solver.smt.SMTSolver`, its CDCL core and its simplex
theory solver, so one object accumulates every interesting event of a
solve: SAT-level work (decisions, propagations, conflicts, restarts,
learned/deleted clauses), theory-level work (pivots, bound assertions,
theory conflicts) and DPLL(T) rounds.  The verification layer merges
the per-context profiles into one per-run profile and surfaces it
through :class:`~repro.verify.verifier.VerificationOutcome` and the CLI
``--profile`` flag.

Counters are plain attribute increments on the hot paths — cheap enough
to stay always-on — and deterministic for a given input, which is what
lets CI guard on them instead of wall-clock seconds.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict


@dataclass
class SolverProfile:
    """Counter bundle for the solver inner loops."""

    #: DPLL(T) checks executed (one per SMTSolver.check()).
    solve_calls: int = 0
    #: DPLL(T) rounds: 1 + the theory lemmas of each check, i.e. the SAT
    #: solves a lazy loop that restarts at every theory conflict would run.
    rounds: int = 0
    # -- SAT core ----------------------------------------------------------
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    restarts: int = 0
    learned_clauses: int = 0
    deleted_clauses: int = 0
    # -- simplex theory solver --------------------------------------------
    pivots: int = 0
    bound_asserts: int = 0
    theory_conflicts: int = 0
    # -- term layer --------------------------------------------------------
    intern_hits: int = 0
    intern_misses: int = 0

    def merge(self, other: "SolverProfile") -> None:
        for field in fields(self):
            setattr(self, field.name, getattr(self, field.name) + getattr(other, field.name))

    def to_dict(self) -> Dict[str, int]:
        return {field.name: getattr(self, field.name) for field in fields(self)}

    @staticmethod
    def from_dict(data: Dict[str, int]) -> "SolverProfile":
        names = {field.name for field in fields(SolverProfile)}
        return SolverProfile(**{k: v for k, v in data.items() if k in names})

    def describe(self) -> str:
        """A compact one-line rendering for CLI output."""
        d = self.to_dict()
        return ", ".join(f"{name}={value}" for name, value in d.items() if value)
