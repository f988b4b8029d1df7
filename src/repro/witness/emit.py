"""Certificate assembly from the solver's recorded proof state, and the
backward trimmer that cuts a certificate down to its proof core.

The emission side of the witness subsystem: after an UNSAT
:meth:`~repro.solver.smt.SMTSolver.check` (with proof recording enabled
via ``enable_proof()``), :func:`certificate_from_solver` snapshots the
solver's proof log — assumptions, chronological clause events, Farkas
entries — together with the theory atom table into a self-contained,
picklable :class:`~repro.witness.certificate.Certificate`.

That snapshot covers the solving context's whole incremental history,
and most of it plays no part in the refutation.  :func:`trim_certificate`
keeps only what the proof uses, in the style of DRAT-trim's backward
check (Wetzler, Heule and Hunt, SAT 2014); the store and
``repro witness show --oid`` serialize that core, not the snapshot.

This module is *untrusted* emission code and imports nothing from
:mod:`repro.solver`: a bug here yields a certificate the trusted kernel
rejects, never one it wrongly accepts.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

from repro.witness.certificate import Certificate


def certificate_from_solver(solver) -> Optional[Certificate]:
    """Build a certificate from ``solver``'s last UNSAT proof snapshot.

    ``solver`` is an :class:`~repro.solver.smt.SMTSolver` with proof
    recording on; returns ``None`` when no snapshot exists (proof mode
    off, or no UNSAT answer yet).  The snapshot covers the solver's full
    incremental history, so certificates from later queries of one
    context are supersets of earlier ones — each remains independently
    checkable.
    """
    proof = solver.last_proof
    if proof is None:
        return None
    assumptions, events = proof
    atoms = {}
    for var, atom in solver.atom_items():
        expr = atom.expr
        coeffs = tuple(sorted(expr.iter_terms()))
        atoms[var] = (atom.op, coeffs, expr.const)
    return Certificate(atoms=atoms, assumptions=tuple(assumptions), events=events)


class _BackwardCheck:
    """A certificate's event clauses, indexed for unit propagation, with
    a mark on every clause some kept proof step uses."""

    def __init__(self, events: Sequence[Tuple]) -> None:
        self.clauses: List[Tuple[int, ...]] = [event[1] for event in events]
        #: literal -> indices of the indexed clauses containing it, ascending
        self.occurs: Dict[int, List[int]] = {}
        #: indices of the indexed clauses with at most one literal
        self.short: List[int] = []
        for index, clause in enumerate(self.clauses):
            for lit in set(clause):
                self.occurs.setdefault(lit, []).append(index)
            if len(clause) <= 1:
                self.short.append(index)
        self.size = len(self.clauses)
        self.used = bytearray(self.size)

    def retract_to(self, limit: int) -> None:
        """Drop every clause from index ``limit`` on out of the index."""
        while self.size > limit:
            self.size -= 1
            clause = self.clauses[self.size]
            for lit in set(clause):
                self.occurs[lit].pop()
            if len(clause) <= 1:
                self.short.pop()

    def refute(self, clause: Sequence[int]) -> bool:
        """Refute ``clause`` by unit propagation over the indexed clauses,
        as the kernel's RUP check does, and mark the clauses the conflict
        depends on."""
        reason: Dict[int, int] = {}  # true literal -> forcing clause, -1 if assumed
        for lit in clause:
            if lit in reason:
                return True  # complementary literals: RUP with no clause
            reason[-lit] = -1
        clauses, occurs = self.clauses, self.occurs
        pending = list(self.short)
        for lit in reason:
            pending.extend(occurs.get(-lit, ()))
        while pending:
            index = pending.pop()
            unit = 0
            open_count = 0
            for lit in clauses[index]:
                if lit in reason:
                    break
                if -lit in reason:
                    continue
                unit = lit
                open_count += 1
                if open_count > 1:
                    break
            else:
                if open_count == 0:
                    self._mark(index, reason)
                    return True
                reason[unit] = index
                pending.extend(occurs.get(-unit, ()))
        return False

    def _mark(self, conflict: int, reason: Dict[int, int]) -> None:
        """Mark the conflict clause and, transitively, the clause that
        forced each of its false literals."""
        clauses, used = self.clauses, self.used
        seen = {conflict}
        stack = [conflict]
        while stack:
            index = stack.pop()
            used[index] = 1
            for lit in clauses[index]:
                cause = reason.get(-lit, -1)
                if cause >= 0 and cause not in seen:
                    seen.add(cause)
                    stack.append(cause)


def trim_certificate(certificate: Certificate) -> Optional[Certificate]:
    """The proof core of ``certificate``, or None when the backward check
    cannot re-derive its conflict.

    Unit propagation from the assumptions re-derives the goal conflict;
    the learned clauses are then walked in reverse, and each one a kept
    step uses is re-derived by RUP over the clauses before it.  The core
    keeps, in their original order, only the ``input``, ``lemma`` and
    ``learn`` events some kept step uses, the same assumptions, and the
    atom entries of the variables its events mention.

    Sound by monotonicity: if a subset of the input clauses is
    unsatisfiable under the assumptions, so is the whole set.  The
    kernel re-checks the core like any other certificate.
    """
    events = certificate.events
    check = _BackwardCheck(events)
    if not check.refute(tuple(-lit for lit in certificate.assumptions)):
        return None
    for index in range(len(events) - 1, -1, -1):
        if check.used[index] and events[index][0] == "learn":
            check.retract_to(index)
            if not check.refute(events[index][1]):
                return None
    kept = tuple(event for event, used in zip(events, check.used) if used)
    mentioned = {abs(lit) for event in kept for lit in event[1]}
    atoms = {var: atom for var, atom in certificate.atoms.items() if var in mentioned}
    return replace(certificate, atoms=atoms, events=kept)
