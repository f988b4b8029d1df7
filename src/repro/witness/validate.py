"""The trusted witness-validation kernel.

This module is the *entire* trusted computing base of the proof-witness
subsystem: it re-checks a :class:`~repro.witness.certificate.Certificate`
using only exact rational arithmetic (``int`` and
:class:`~fractions.Fraction`, which mix exactly) and unit propagation —
no CDCL search, no simplex pivoting, no imports from the solver
packages.  A certificate that passes :func:`validate` proves that
the conjunction of its input clauses (under its assumption literals) is
unsatisfiable *relative to the atom table's theory semantics*; what the
kernel deliberately does **not** re-check (the Tseitin encoding of the
obligation, the atom table's faithfulness to the source formulas) is
documented in ``docs/witness.md``.

Two kinds of proof step are replayed, in certificate event order:

``("lemma", clause, entries)``
    A theory lemma.  The negated clause literals denote a conjunction of
    linear inequalities (via the atom table); ``entries`` supplies Farkas
    coefficients whose combination must cancel every variable and leave
    a contradictory constant.  The fixed literal denotation is::

        +v, op "<=" : e <= 0        -v, op "<=" : -e < 0
        +v, op "<"  : e <  0        -v, op "<"  : -e <= 0
        +v, op "="  : e  = 0        -v, op "="  : rejected

    (negated equalities are never asserted by the emitter — the equality
    split clauses stand in for them — so the kernel refuses them).

``("learn", clause)``
    A clause the SAT core learned; checked by **reverse unit
    propagation** (RUP): assuming the clause false, propagation over
    every earlier clause must derive a conflict.  Earlier clauses are
    indexed by literal, so propagation visits only the clauses that
    contain a literal it falsified.

``("input", clause)`` events are axioms (the problem clauses exactly as
the SAT core received them).  The final, implicit step checks that the
assumption literals themselves propagate to a conflict — i.e. the
recorded UNSAT answer really follows.

Every failure raises a typed :class:`WitnessError` naming the failing
step; the kernel fails closed (anything unexpected is a rejection).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple, Union

#: An exact rational; decoded certificates keep integral values as ints.
Rational = Union[int, Fraction]

#: An int, so Farkas sums over integral values never leave ``int``.
_ZERO = 0


class WitnessError(Exception):
    """A certificate failed validation.

    ``step`` names the failing proof step (``"lemma[4]"``, ``"rup[7]"``,
    ``"goal"``, ``"decode"``, …) so callers — and tests mutating
    certificates on purpose — can assert *where* validation failed.
    """

    def __init__(self, step: str, message: str) -> None:
        super().__init__(f"{step}: {message}")
        self.step = step
        self.detail = message


class _ClauseIndex:
    """The clauses replayed so far, indexed for unit propagation."""

    def __init__(self) -> None:
        self.clauses: List[Tuple[int, ...]] = []
        #: literal -> indices of the clauses containing it
        self.occurs: Dict[int, List[int]] = {}
        #: indices of the clauses with at most one literal: they can be
        #: unit or empty before any literal is assigned
        self.short: List[int] = []

    def add(self, clause: Tuple[int, ...]) -> None:
        index = len(self.clauses)
        self.clauses.append(clause)
        for lit in set(clause):
            self.occurs.setdefault(lit, []).append(index)
        if len(clause) <= 1:
            self.short.append(index)

    def rup_check(self, clause: Sequence[int], step: str) -> None:
        """Check ``clause`` by reverse unit propagation.

        Assume every literal of ``clause`` false, then run unit
        propagation to fixpoint; the check succeeds iff a conflict
        (falsified clause) appears.  A clause is re-examined whenever one
        of its literals becomes false, so every clause that turns unit or
        empty is seen.
        """
        assigned = set()
        for lit in clause:
            if lit in assigned:
                return  # clause contains complementary literals: trivially RUP
            assigned.add(-lit)
        clauses, occurs = self.clauses, self.occurs
        pending = list(self.short)
        for lit in assigned:
            pending.extend(occurs.get(-lit, ()))
        while pending:
            unit = 0
            open_count = 0
            for lit in clauses[pending.pop()]:
                if lit in assigned:
                    break
                if -lit in assigned:
                    continue
                unit = lit
                open_count += 1
                if open_count > 1:
                    break
            else:
                if open_count == 0:
                    return  # conflict reached: the clause is RUP
                assigned.add(unit)
                pending.extend(occurs.get(-unit, ()))
        raise WitnessError(step, "unit propagation does not refute the clause")


def _check_farkas(
    atoms: Dict[int, Tuple[str, Tuple[Tuple[str, Rational], ...], Rational]],
    clause: Sequence[int],
    entries: Sequence[Tuple[int, Rational]],
    step: str,
) -> None:
    """Check one theory lemma's Farkas witness.

    The lemma clause is valid iff the conjunction of the *negations* of
    its literals is infeasible; ``entries`` names (a subset of) those
    negations with rational coefficients whose combination must have a
    zero variable part and a contradictory constant: ``> 0``, or ``= 0``
    with at least one strict inequality carrying a positive coefficient.
    """
    if not entries:
        raise WitnessError(step, "empty Farkas combination")
    negated = {-lit for lit in clause}
    combo: Dict[str, Rational] = {}
    const = _ZERO
    any_strict = False
    for lit, mu in entries:
        if lit not in negated:
            raise WitnessError(step, f"literal {lit} is not a premise of the lemma")
        atom = atoms.get(abs(lit))
        if atom is None:
            raise WitnessError(step, f"literal {lit} has no atom table entry")
        op, coeffs, atom_const = atom
        if op == "=":
            if lit < 0:
                raise WitnessError(step, "negated equality literal in a Farkas witness")
            eps, strict = 1, False  # mu may carry either sign
        elif op == "<=":
            eps, strict = (1, False) if lit > 0 else (-1, True)
            if mu < 0:
                raise WitnessError(step, f"negative coefficient {mu} on literal {lit}")
        elif op == "<":
            eps, strict = (1, True) if lit > 0 else (-1, False)
            if mu < 0:
                raise WitnessError(step, f"negative coefficient {mu} on literal {lit}")
        else:
            raise WitnessError(step, f"unknown atom operator {op!r}")
        if mu == 0:
            continue
        scale = mu * eps
        for name, c in coeffs:
            value = combo.get(name, _ZERO) + scale * c
            if value == 0:
                combo.pop(name, None)
            else:
                combo[name] = value
        const += scale * atom_const
        if strict:
            any_strict = True
    if combo:
        name = sorted(combo)[0]
        raise WitnessError(step, f"nonzero variable part ({name}: {combo[name]})")
    if not (const > 0 or (const == 0 and any_strict)):
        raise WitnessError(step, f"combination is not contradictory (constant {const})")


def validate(cert) -> Dict[str, int]:
    """Re-check ``cert``; returns step counts, raises :class:`WitnessError`.

    ``cert`` is any object with ``atoms``, ``assumptions`` and ``events``
    attributes in :class:`~repro.witness.certificate.Certificate` shape.
    """
    clauses = _ClauseIndex()
    counts = {"inputs": 0, "lemmas": 0, "rup_steps": 0}
    for index, event in enumerate(cert.events):
        kind = event[0]
        if kind == "input":
            counts["inputs"] += 1
        elif kind == "lemma":
            if len(event) != 3:
                raise WitnessError(f"lemma[{index}]", "malformed lemma event")
            _check_farkas(cert.atoms, event[1], event[2], f"lemma[{index}]")
            counts["lemmas"] += 1
        elif kind == "learn":
            clauses.rup_check(event[1], f"rup[{index}]")
            counts["rup_steps"] += 1
        else:
            raise WitnessError(f"events[{index}]", f"unknown event kind {kind!r}")
        clauses.add(tuple(event[1]))
    clauses.rup_check(tuple(-lit for lit in cert.assumptions), "goal")
    counts["rup_steps"] += 1
    return counts
