"""Online DPLL(T): the simplex theory solver inside the CDCL search.

This is the Dutertre–de Moura integration the simplex was built for:

1. Tseitin-encode the asserted formulas to CNF and precompute, once per
   atom, the simplex bounds each of its polarities asserts.
2. Run the CDCL core with the solver attached as its theory.  At every
   propagation fixpoint the bounds of the newly trailed atom literals
   are asserted, and the simplex checks feasibility when one of them
   changed a bound.  Simplex bound states are pushed and popped in step
   with the core's decision levels.
3. An infeasibility comes back to the core as a *theory lemma* — the
   negated conflict set, recorded with its Farkas certificate in proof
   mode — which the core keeps as a permanent clause and analyzes like
   any other conflict.
4. When the core has a total assignment, the simplex assignment of that
   last fixpoint is the model.

``SolverProfile.rounds`` counts 1 + the theory lemmas of each check: the
number of SAT solves the earlier offline loop (one SAT solve per theory
conflict) would have run.

Equality atoms get a theory-split clause ``(x = y) ∨ (x < y) ∨ (x > y)``
at encoding time so that *negated* equalities never reach the simplex
(which cannot represent disequalities).

The solver is **incremental**: the SAT core, the Tseitin encoding and
the simplex tableau persist across :meth:`SMTSolver.check` calls, so
formulas added after a check only pay for their own clauses, and theory
lemmas learned in one query prune the search in the next.  On top of
that, :meth:`SMTSolver.push`/:meth:`SMTSolver.pop` provide retractable
assertion scopes in the MiniSat style: each scope owns a fresh
*selector* variable, scoped clauses are guarded by its negation, checks
pass the active selectors as solve-time assumptions, and popping a
scope permanently asserts the negated selector (deactivating its
clauses without disturbing anything learned from them).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from repro.solver import formula as F
from repro.solver.cnf import TseitinEncoder
from repro.solver.delta import DeltaRat, Number, divide
from repro.solver.linear import LinExpr
from repro.solver.profile import SolverProfile
from repro.solver.sat import CDCLSolver
from repro.solver.simplex import Infeasible, Simplex


class _RoundLimit(Exception):
    """Raised through the CDCL core when a check exhausts ``max_rounds``."""


@dataclass
class SatResult:
    """Outcome of a satisfiability check."""

    status: str  # "sat" | "unsat" | "unknown"
    arith_model: Dict[str, Fraction] = field(default_factory=dict)
    bool_model: Dict[str, bool] = field(default_factory=dict)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def is_unsat(self) -> bool:
        return self.status == "unsat"


class SMTSolver:
    """An incremental SMT solver: assert, :meth:`check`, assert more, …

    ``push()``/``pop()`` open and close retractable assertion scopes;
    assertions made outside any scope are permanent.  :attr:`solve_calls`
    counts the DPLL(T) checks actually executed (the currency the
    benchmark suite reports).
    """

    def __init__(self, max_rounds: int = 100_000, profile: Optional[SolverProfile] = None) -> None:
        self._encoder = TseitinEncoder()
        self._max_rounds = max_rounds
        #: Inner-loop counters, shared with both engines below.
        self.profile = profile if profile is not None else SolverProfile()
        # Persistent engines.
        self._sat = CDCLSolver(profile=self.profile)
        self._simplex = Simplex(profile=self.profile)
        self._slack_of: Dict[LinExpr, Tuple[str, Fraction]] = {}
        # SAT var -> precomputed bound plan for its atom: (simplex var,
        # upper-if-true, lower-if-true, upper-if-false, lower-if-false).
        # Computed once per atom; every DPLL(T) round replays plans
        # instead of renormalizing LinExprs and rebuilding DeltaRats.
        self._atom_plan: Dict[
            int,
            Tuple[
                str,
                Optional[DeltaRat],
                Optional[DeltaRat],
                Optional[DeltaRat],
                Optional[DeltaRat],
            ],
        ] = {}
        # Incremental bookkeeping.
        self._synced = 0  # clauses already handed to the SAT core
        self._splits_done: Set[int] = set()  # equality atoms already split
        self._scopes: List[int] = []  # active selector variables
        self.solve_calls = 0
        # Theory state of the running check: the decision level the
        # simplex bound states reach (-1: none pushed), the trail prefix
        # already asserted, whether a bound changed since the last
        # feasible simplex check, and the lemmas returned so far.
        self._theory_level = -1
        self._theory_head = 0
        self._dirty = False
        self._lemmas = 0
        # Proof bookkeeping (witness mode).  ``_atom_meta`` maps each
        # theory SAT var to ``(sign, factor)`` relating the asserted
        # simplex bounds back to the atom's own expression: the bound
        # inequality equals ``(±sign/factor) · atom.expr OP 0`` (see
        # ``_farkas_entries``).  ``_proof`` is the chronological event
        # log shared with the SAT core; ``last_proof`` snapshots
        # ``(assumptions, events)`` at each unsat answer.
        self._atom_meta: Dict[int, Tuple[int, Fraction]] = {}
        self._proof: Optional[List[Tuple]] = None
        self.last_proof: Optional[Tuple[Tuple[int, ...], Tuple[Tuple, ...]]] = None

    def enable_proof(self) -> None:
        """Start recording a proof-event log for certificate emission.

        Events — ``("input", clause)``, ``("learn", clause)`` and
        ``("lemma", clause, farkas_entries)`` — are appended in exactly
        the order the SAT core receives the clauses, so a validator can
        replay them: inputs are axioms, learned clauses are RUP against
        the prefix, and theory lemmas carry their own Farkas witness.
        Must be called before the first :meth:`check`; idempotent.
        """
        if self._proof is None:
            if self._synced:
                raise RuntimeError("enable_proof must precede the first check")
            self._proof = []
            self._sat.proof = self._proof

    def atom_items(self) -> List[Tuple[int, F.FAtom]]:
        """The current SAT var -> theory atom table (for certificates)."""
        return list(self._encoder.cnf.atom_of_var.items())

    # -- assertion scopes ------------------------------------------------------

    def push(self) -> None:
        """Open a retractable assertion scope."""
        self._scopes.append(self._encoder.new_selector())

    def pop(self) -> None:
        """Close the innermost scope, retracting its assertions."""
        if not self._scopes:
            raise RuntimeError("pop without matching push")
        selector = self._scopes.pop()
        # Permanently false selector: every clause guarded by -selector is
        # satisfied, i.e. dead — clauses learned *from* them stay valid.
        self._encoder.cnf.clauses.append((-selector,))

    def add(self, node: F.Formula) -> None:
        """Assert ``node`` in the current scope (permanent when no scope)."""
        if not self._scopes:
            self._encoder.assert_formula(node)
        else:
            self._assert_scoped(node, self._scopes[-1])

    def _assert_scoped(self, node: F.Formula, selector: int) -> None:
        if isinstance(node, F.FTrue):
            return
        if isinstance(node, F.FFalse):
            self._encoder.cnf.clauses.append((-selector,))
            return
        # Split top-level conjunctions exactly like assert_formula does,
        # guarding each conjunct — keeps the CNF small for VC premises.
        if isinstance(node, F.FAnd):
            for arg in node.args:
                self._assert_scoped(arg, selector)
            return
        literal = self._encoder.literal(node)
        self._encoder.cnf.clauses.append((-selector, literal))

    # -- the check -------------------------------------------------------------

    def check(self) -> SatResult:
        cnf = self._encoder.cnf
        self._add_equality_splits()
        self._sat.ensure_vars(cnf.num_vars)
        proof = self._proof
        while self._synced < len(cnf.clauses):
            clause = cnf.clauses[self._synced]
            self._sat.add_clause(clause)
            if proof is not None:
                proof.append(("input", tuple(clause)))
            self._synced += 1
        for var, atom in cnf.atom_of_var.items():
            if var not in self._atom_plan:
                self._plan_atom(var, atom)

        assumptions = tuple(self._scopes)
        self.solve_calls += 1
        self.profile.solve_calls += 1
        self._dirty = False
        self._lemmas = 0
        # Attached only for this check: a permanent core -> solver
        # reference would make a reference cycle.
        self._sat.theory = self
        try:
            if not self._sat.solve(assumptions):
                if proof is not None:
                    self.last_proof = (assumptions, tuple(proof))
                return SatResult("unsat")
            sat_values = self._sat._values
            arith = {
                k: v for k, v in self._simplex.concrete_model().items() if not k.startswith("%")
            }
            booleans = {
                name: sat_values[var]
                for var, name in cnf.bool_of_var.items()
                if sat_values[var] is not None
            }
            return SatResult("sat", arith, booleans)
        except _RoundLimit:
            return SatResult("unknown")
        finally:
            self._sat.theory = None
            self.theory_backtrack(-1)
            self._theory_head = 0
            self.profile.rounds += 1 + self._lemmas

    # -- the CDCL theory hooks ---------------------------------------------------

    def theory_check(self, trail: List[int], level: int) -> Optional[List[int]]:
        """Assert the bounds of atom literals trailed since the last call
        and check feasibility; returns a theory lemma on infeasibility."""
        simplex = self._simplex
        while self._theory_level < level:
            simplex.push_state()
            self._theory_level += 1
        plans = self._atom_plan
        start = self._theory_head
        self._theory_head = len(trail)
        try:
            for literal in trail[start:]:
                plan = plans.get(literal if literal > 0 else -literal)
                if plan is None:
                    continue
                name, pos_upper, pos_lower, neg_upper, neg_lower = plan
                upper, lower = (pos_upper, pos_lower) if literal > 0 else (neg_upper, neg_lower)
                if upper is not None and simplex.assert_upper(name, upper, literal):
                    self._dirty = True
                if lower is not None and simplex.assert_lower(name, lower, literal):
                    self._dirty = True
            if self._dirty:
                simplex.check()
                self._dirty = False
            return None
        except Infeasible as err:
            if self._lemmas + 1 >= self._max_rounds:
                raise _RoundLimit
            self._lemmas += 1
            # Theory lemmas are valid independently of any scope, so
            # they persist across pops — the incremental payoff.
            lemma = [-t for t in err.conflict if isinstance(t, int)]
            if self._proof is not None:
                self._proof.append(("lemma", tuple(lemma), self._farkas_entries(err.farkas)))
            return lemma

    def theory_backtrack(self, level: int) -> None:
        """Retract the bounds asserted above decision ``level``."""
        while self._theory_level > level:
            self._simplex.pop_state()
            self._theory_level -= 1
        self._theory_head = min(self._theory_head, len(self._sat._trail))

    # -- helpers ---------------------------------------------------------------

    def _farkas_entries(self, farkas) -> Tuple[Tuple[int, Number], ...]:
        """Convert a simplex conflict's bound-level Farkas coefficients to
        atom-level ``(literal, coefficient)`` pairs.

        The simplex speaks bounds on targets (variables or slacks); the
        validator speaks inequalities over the atoms' own expressions.
        ``_atom_meta`` holds the bridge: for atom literal ``v`` with
        ``(sign, factor)``, the asserted *upper* bound inequality equals
        ``(sign/factor)·atom.expr OP 0`` and the *lower* bound inequality
        ``(-sign/factor)·atom.expr OP 0``.  For every inequality atom the
        polarity the plan asserts matches the validator's fixed literal
        denotation, so the converted coefficient is simply ``λ/factor``;
        equality atoms (both bounds, one positive literal) carry a signed
        coefficient.  ``%one`` bounds never reach a conflict (slack rows
        are constant-free) and are skipped defensively — the validator
        rejects, never accepts, if that assumption were ever violated.
        Coefficients are int-first, like the simplex's.
        """
        atoms = self._encoder.cnf.atom_of_var
        entries: List[Tuple[int, Number]] = []
        for bound, coeff in farkas:
            tag = bound.tag
            if not isinstance(tag, int):
                continue
            sign, factor = self._atom_meta[abs(tag)]
            if atoms[abs(tag)].op == "=":
                mu = divide(coeff * sign, factor)
                if not bound.is_upper:
                    mu = -mu
            else:
                mu = divide(coeff, factor)
            entries.append((tag, mu))
        return tuple(entries)

    def _bound_target(self, expr: LinExpr) -> Tuple[str, int, Fraction, Fraction]:
        """Map ``expr OP 0`` to a bound on a single simplex variable.

        Returns ``(var, sign, limit, factor)`` such that ``expr <= 0`` is
        ``var <= limit`` when ``sign > 0`` and ``var >= limit`` when
        ``sign < 0`` (strictness carries over; ``expr = 0`` pins ``var``
        to ``limit`` either way); ``factor`` is the positive scale with
        ``expr == canonical_form * factor``, kept for certificate
        emission.

        Single-variable expressions bound the variable directly — in
        *both* orientations, so ``x >= c`` (normalized ``-x + c``) costs
        no tableau row.  Multi-variable bodies share one slack variable
        per sign-canonical form: ``x - y`` and ``y - x`` hit the same
        row with opposite signs.
        """
        canon, factor = expr.normalized()
        shift = canon.const
        body = canon - shift
        names = body.variables()
        if len(names) == 1:
            name = names[0]
            coeff = body.coeff(name)
            # normalized() scales by |lead coeff|, so coeff is ±1 here.
            if coeff == 1:
                self._simplex.add_variable(name)
                return name, 1, -shift, factor
            if coeff == -1:
                self._simplex.add_variable(name)
                return name, -1, shift, factor
        sign = 1
        if body.coeff(names[0]) < 0:
            body = -body
            sign = -1
        slack_entry = self._slack_of.get(body)
        if slack_entry is None:
            slack = f"%s{len(self._slack_of)}"
            self._simplex.define(slack, body)
            self._slack_of[body] = (slack, Fraction(1))
            slack_entry = self._slack_of[body]
        slack, _ = slack_entry
        # canon OP 0  ⇔  sign*body + shift OP 0  ⇔  sign*slack OP -shift.
        return slack, sign, (-shift if sign > 0 else shift), factor

    def _add_equality_splits(self) -> None:
        cnf = self._encoder.cnf
        for var, atom in list(cnf.atom_of_var.items()):
            if atom.op != "=" or var in self._splits_done:
                continue
            self._splits_done.add(var)
            lt = self._encoder.literal(F.FAtom("<", atom.expr))
            gt = self._encoder.literal(F.FAtom("<", -atom.expr))
            # x=0 ∨ x<0 ∨ x>0 — lets a negated equality satisfy the theory.
            self._encoder.cnf.clauses.append((var, lt, gt))
            # Mutual exclusion speeds the search (theory would find these).
            self._encoder.cnf.clauses.append((-var, -lt))
            self._encoder.cnf.clauses.append((-var, -gt))

    def _plan_atom(
        self, var: int, atom: F.FAtom
    ) -> Tuple[
        str,
        Optional[DeltaRat],
        Optional[DeltaRat],
        Optional[DeltaRat],
        Optional[DeltaRat],
    ]:
        """Precompute the simplex bounds the atom induces, both polarities.

        The plan is ``(target, pos_upper, pos_lower, neg_upper,
        neg_lower)``: the upper/lower bounds to assert on ``target`` when
        the atom is true (``pos_*``) or false (``neg_*``); strict bounds
        carry a ∓δ.  A negated equality asserts nothing — it is handled
        by the equality split clause.
        """
        target, sign, limit, factor = self._bound_target(atom.expr)
        self._atom_meta[var] = (sign, factor)
        weak = DeltaRat(limit)
        if atom.op == "=":
            plan = (target, weak, weak, None, None)
        elif atom.op == "<=":
            if sign > 0:  # true: target <= limit; false: target > limit
                plan = (target, weak, None, None, DeltaRat(limit, 1))
            else:  # true: target >= limit; false: target < limit
                plan = (target, None, weak, DeltaRat(limit, -1), None)
        else:  # "<"
            if sign > 0:  # true: target < limit; false: target >= limit
                plan = (target, DeltaRat(limit, -1), None, None, weak)
            else:  # true: target > limit; false: target <= limit
                plan = (target, None, DeltaRat(limit, 1), weak, None)
        self._atom_plan[var] = plan
        return plan


def check_formulas(*assertions: F.Formula, max_rounds: int = 100_000) -> SatResult:
    """Convenience: check the conjunction of ``assertions``."""
    solver = SMTSolver(max_rounds=max_rounds)
    for node in assertions:
        solver.add(node)
    return solver.check()
