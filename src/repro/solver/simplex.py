"""The Dutertre–de Moura general simplex for linear real arithmetic.

This is the theory solver behind the DPLL(T) loop: it decides
satisfiability of a conjunction of bounds over variables related by fixed
linear equations (the *tableau*), and reports a small conflict set (a
subset of the asserted bounds that is already infeasible) when the
conjunction is unsatisfiable.

Strict inequalities are represented with delta-rationals
(:mod:`repro.solver.delta`), so ``x < c`` is the bound ``x <= c - δ``.

All arithmetic is exact and **int-first**: every tableau coefficient,
assignment component, bound value and Farkas coefficient is an ``int``
when integral and a ``Fraction`` (denominator above 1) only otherwise.
On the verifier's queries most of them are integers, so most pivots and
updates run in ``int`` arithmetic.  A sum or product with a ``Fraction``
operand is normalized back to an ``int`` when it comes out integral, and
no ``/`` is ever taken between two ints (that would give a float):
reciprocals and quotients go through :func:`repro.solver.delta.divide`.
Numerically every value equals the all-``Fraction`` computation's, so
pivots, conflicts and models are the same (``tests/solver/test_int_first.py``
keeps that computation as a reference).  :meth:`Simplex.concrete_model`
returns ``Fraction`` values.

The implementation is tuned for the DPLL(T) inner loop:

* Variables are **integer ids** internally (the public API still speaks
  names); rows are int-keyed coefficient maps, so no string hashing
  happens during pivoting.
* A **column occurrence index** maps each variable to the set of rows
  mentioning it, so nonbasic updates and pivots touch O(occurrences)
  rows instead of scanning the whole tableau.
* Bound assertion is **trail-based**: :meth:`push_state` marks a point,
  :meth:`pop_state` restores the exact bounds in O(changes), so bound
  states follow the SAT core's decision levels.
* :meth:`check` selects the violated *row* by Bland's rule (minimum
  index — also the better lemma producer, see its docstring) and the
  entering *column* by a Dantzig-style largest-coefficient heuristic,
  falling back to minimum index after a pivot budget, preserving
  termination.  It scans only the rows **touched** since the last
  feasible state (their basic variable's value or bound changed), a
  superset of the violated rows, so the row it picks — and every pivot —
  is the one a full scan would pick.

Reference: B. Dutertre and L. de Moura, "A Fast Linear-Arithmetic Solver
for DPLL(T)", CAV 2006.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Set, Tuple

from repro.solver.delta import ZERO_D, DeltaRat, Number, divide, int_first
from repro.solver.linear import LinExpr
from repro.solver.profile import SolverProfile

_ONE_D = DeltaRat(1)


@dataclass(frozen=True)
class Bound:
    """An asserted bound on a variable, tagged with its origin.

    ``tag`` is opaque to the simplex (the SMT layer stores SAT literals in
    it); conflict sets are reported as sets of tags.
    """

    var: str
    is_upper: bool
    value: DeltaRat
    tag: object


class Infeasible(Exception):
    """Raised by ``assert_bound``/``check`` with a conflict set of tags.

    ``farkas`` is the conflict's certificate: ``(bound, coefficient)``
    pairs such that the nonnegative rational combination of the bound
    inequalities (each ``var <= value`` or ``var >= value``) cancels
    every variable and leaves a contradictory constant.  The coefficients
    are int-first.  The witness subsystem turns it into an independently
    checkable Farkas lemma; the conflict-set semantics are unchanged.
    """

    def __init__(
        self,
        conflict: Set[object],
        farkas: Tuple[Tuple[Bound, Number], ...] = (),
    ) -> None:
        super().__init__(f"infeasible: {conflict}")
        self.conflict = conflict
        self.farkas = farkas


class Simplex:
    """A simplex instance over named variables.

    Usage: create, add tableau rows with :meth:`define`, then assert
    bounds and call :meth:`check`.  In the online DPLL(T) loop,
    :meth:`push_state`/:meth:`pop_state` follow the SAT core's decision
    levels; :meth:`reset_bounds` drops every bound at once.
    """

    #: Pivots per :meth:`check` before switching from the Dantzig-style
    #: heuristic to Bland's rule (plus twice the variable count).
    bland_threshold: int = 64

    def __init__(self, profile: Optional[SolverProfile] = None) -> None:
        self.profile = profile if profile is not None else SolverProfile()
        # id <-> name maps; all per-variable state is indexed by id.
        self._names: List[str] = []
        self._ids: Dict[str, int] = {}
        self._is_basic: List[bool] = []
        # row[basic] maps nonbasic -> coefficient:  basic = Σ coeff · nonbasic
        self._rows: Dict[int, Dict[int, Number]] = {}
        # column occurrence index: var id -> basic ids whose row mentions it
        self._cols: List[Set[int]] = []
        self._assignment: List[DeltaRat] = []
        self._lower: List[Optional[Bound]] = []
        self._upper: List[Optional[Bound]] = []
        # bound trail: (var id, is_upper, previous Bound) per change
        self._trail: List[Tuple[int, bool, Optional[Bound]]] = []
        self._trail_limits: List[int] = []
        self._one_id: Optional[int] = None
        # basic ids whose value or bound changed since the last feasible
        # check: every violated row is in here (see check)
        self._touched: Set[int] = set()

    # -- construction ---------------------------------------------------------

    def add_variable(self, name: str) -> int:
        vid = self._ids.get(name)
        if vid is not None:
            return vid
        vid = len(self._names)
        self._names.append(name)
        self._ids[name] = vid
        self._is_basic.append(False)
        self._cols.append(set())
        self._assignment.append(ZERO_D)
        self._lower.append(None)
        self._upper.append(None)
        return vid

    def define(self, name: str, expr: LinExpr) -> None:
        """Introduce ``name`` as a basic variable equal to ``expr``.

        ``expr`` must be over existing (nonbasic or basic) variables; any
        basic variables it mentions are substituted out by their rows.
        The constant part of ``expr`` is folded in by introducing the
        canonical constant-one variable ``%one`` (bounded to 1).
        """
        if name in self._ids:
            raise ValueError(f"variable {name} already defined")
        row: Dict[int, Number] = {}

        def accumulate(vid: int, coeff: Number) -> None:
            if coeff == 0:
                return
            if self._is_basic[vid]:
                for inner, inner_coeff in self._rows[vid].items():
                    accumulate(inner, int_first(coeff * inner_coeff))
            else:
                value = row.get(vid)
                if value is None:
                    row[vid] = coeff
                else:
                    value = int_first(value + coeff)
                    if value == 0:
                        del row[vid]
                    else:
                        row[vid] = value

        for var, coeff in expr.iter_terms():
            accumulate(self.add_variable(var), int_first(coeff))
        if expr.const != 0:
            accumulate(self._constant_one(), int_first(expr.const))

        vid = self.add_variable(name)
        self._is_basic[vid] = True
        self._rows[vid] = row
        for col in row:
            self._cols[col].add(vid)
        self._assignment[vid] = self._row_value(vid)

    def _constant_one(self) -> int:
        if self._one_id is None:
            vid = self.add_variable("%one")
            self._one_id = vid
            self._lower[vid] = Bound("%one", False, _ONE_D, "%one")
            self._upper[vid] = Bound("%one", True, _ONE_D, "%one")
            self._update(vid, _ONE_D)
        return self._one_id

    def _row_value(self, basic: int) -> DeltaRat:
        total = ZERO_D
        assignment = self._assignment
        for var, coeff in self._rows[basic].items():
            total = total + assignment[var].scale(coeff)
        return total

    # -- bound assertion -------------------------------------------------------

    def reset_bounds(self) -> None:
        """Retract all asserted bounds (tableau and assignment kept)."""
        for vid in range(len(self._names)):
            self._lower[vid] = None
            self._upper[vid] = None
        self._trail.clear()
        self._trail_limits.clear()
        if self._one_id is not None:
            self._lower[self._one_id] = Bound("%one", False, _ONE_D, "%one")
            self._upper[self._one_id] = Bound("%one", True, _ONE_D, "%one")

    def push_state(self) -> None:
        """Mark the current bound state; :meth:`pop_state` restores it."""
        self._trail_limits.append(len(self._trail))

    def pop_state(self) -> None:
        """Undo every bound change since the matching :meth:`push_state`.

        Only bounds are unwound (in O(changes)); the tableau and the
        current assignment always satisfy the row equations regardless of
        pivoting, and every restored bound is no tighter than the popped
        one, so the assignment stays consistent.
        """
        if not self._trail_limits:
            raise RuntimeError("pop_state without matching push_state")
        limit = self._trail_limits.pop()
        trail = self._trail
        while len(trail) > limit:
            vid, is_upper, previous = trail.pop()
            if is_upper:
                self._upper[vid] = previous
            else:
                self._lower[vid] = previous

    def assert_upper(self, var: str, value: DeltaRat, tag: object) -> bool:
        """Assert ``var <= value``; returns whether the bound tightened."""
        vid = self.add_variable(var)
        self.profile.bound_asserts += 1
        lower = self._lower[vid]
        if lower is not None and value < lower.value:
            new = Bound(var, True, value, tag)
            raise Infeasible({tag, lower.tag}, farkas=((new, 1), (lower, 1)))
        upper = self._upper[vid]
        if upper is not None and upper.value <= value:
            return False
        self._trail.append((vid, True, upper))
        self._upper[vid] = Bound(var, True, value, tag)
        if self._is_basic[vid]:
            self._touched.add(vid)
        elif self._assignment[vid] > value:
            self._update(vid, value)
        return True

    def assert_lower(self, var: str, value: DeltaRat, tag: object) -> bool:
        """Assert ``var >= value``; returns whether the bound tightened."""
        vid = self.add_variable(var)
        self.profile.bound_asserts += 1
        upper = self._upper[vid]
        if upper is not None and upper.value < value:
            new = Bound(var, False, value, tag)
            raise Infeasible({tag, upper.tag}, farkas=((new, 1), (upper, 1)))
        lower = self._lower[vid]
        if lower is not None and lower.value >= value:
            return False
        self._trail.append((vid, False, lower))
        self._lower[vid] = Bound(var, False, value, tag)
        if self._is_basic[vid]:
            self._touched.add(vid)
        elif self._assignment[vid] < value:
            self._update(vid, value)
        return True

    def _update(self, nonbasic: int, value: DeltaRat) -> None:
        assignment = self._assignment
        delta = value - assignment[nonbasic]
        assignment[nonbasic] = value
        rows = self._rows
        column = self._cols[nonbasic]
        for basic in column:
            assignment[basic] = assignment[basic] + delta.scale(rows[basic][nonbasic])
        self._touched.update(column)

    # -- pivoting ---------------------------------------------------------------

    def _pivot(self, basic: int, nonbasic: int) -> None:
        cols = self._cols
        rows = self._rows
        row = rows.pop(basic)
        for col in row:
            cols[col].discard(basic)
        coeff = row.pop(nonbasic)
        # basic = coeff * nonbasic + rest  =>  nonbasic = (basic - rest)/coeff
        inverse = divide(1, coeff)
        new_row: Dict[int, Number] = {basic: inverse}
        for var, c in row.items():
            value = -c * inverse
            if value.__class__ is Fraction and value.denominator == 1:
                value = value.numerator
            new_row[var] = value
        self._is_basic[basic] = False
        self._is_basic[nonbasic] = True
        rows[nonbasic] = new_row
        # Substitute nonbasic out of exactly the rows that mention it.
        affected = cols[nonbasic]
        cols[nonbasic] = set()
        for other in affected:
            other_row = rows[other]
            factor = other_row.pop(nonbasic)
            for var, c in new_row.items():
                old = other_row.get(var)
                value = factor * c if old is None else old + factor * c
                if value.__class__ is Fraction and value.denominator == 1:
                    value = value.numerator
                if old is None:
                    other_row[var] = value
                    cols[var].add(other)
                elif value == 0:
                    del other_row[var]
                    cols[var].discard(other)
                else:
                    other_row[var] = value
        for col in new_row:
            cols[col].add(nonbasic)

    def _pivot_and_update(self, basic: int, nonbasic: int, value: DeltaRat) -> None:
        self.profile.pivots += 1
        assignment = self._assignment
        rows = self._rows
        coeff = rows[basic][nonbasic]
        theta = (value - assignment[basic]) / coeff
        assignment[basic] = value
        assignment[nonbasic] = assignment[nonbasic] + theta
        column = self._cols[nonbasic]
        for other in column:
            if other == basic:
                continue
            assignment[other] = assignment[other] + theta.scale(rows[other][nonbasic])
        touched = self._touched
        touched.update(column)
        touched.discard(basic)
        touched.add(nonbasic)
        self._pivot(basic, nonbasic)

    # -- the check procedure -----------------------------------------------------

    def check(self) -> None:
        """Restore feasibility or raise :class:`Infeasible`.

        Row selection is always Bland's rule (the violated basic variable
        of minimum index) — besides being half of the termination
        argument, the lowest rows are the structural slack definitions,
        and the Farkas conflicts they produce prune the DPLL(T) search
        far better than "most violated" alternatives (measured ~10x
        fewer theory rounds on the registry sweep).  The *entering*
        column uses a Dantzig-style largest-coefficient heuristic until
        :attr:`bland_threshold` pivots have been spent in this check,
        then falls back to minimum index, restoring the full Bland rule
        and with it guaranteed termination.

        Only touched rows are scanned: a row can start violating its
        bounds only when its basic variable's value changes or one of its
        bounds tightens, and both mark the row touched; rows found within
        bounds are dropped from the touched set.
        """
        budget = self.bland_threshold + 2 * len(self._names)
        pivots = 0
        assignment = self._assignment
        lower = self._lower
        upper = self._upper
        touched = self._touched
        while True:
            violating = -1
            below = False
            satisfied = []
            for vid in touched:
                value = assignment[vid]
                low = lower[vid]
                if low is not None and value < low.value:
                    if violating < 0 or vid < violating:
                        violating, below = vid, True
                    continue
                up = upper[vid]
                if up is not None and value > up.value:
                    if violating < 0 or vid < violating:
                        violating, below = vid, False
                    continue
                satisfied.append(vid)
            touched.difference_update(satisfied)
            if violating < 0:
                return
            row = self._rows[violating]
            heuristic = pivots < budget
            candidate = -1
            best_coeff: Optional[Number] = None
            for var in row:
                coeff = row[var]
                if below:
                    can_help = (coeff > 0 and self._can_increase(var)) or (
                        coeff < 0 and self._can_decrease(var)
                    )
                else:
                    can_help = (coeff > 0 and self._can_decrease(var)) or (
                        coeff < 0 and self._can_increase(var)
                    )
                if not can_help:
                    continue
                if heuristic:
                    magnitude = -coeff if coeff < 0 else coeff
                    if best_coeff is None or magnitude > best_coeff or (
                        magnitude == best_coeff and var < candidate
                    ):
                        candidate, best_coeff = var, magnitude
                elif candidate < 0 or var < candidate:
                    candidate = var
            if candidate < 0:
                raise self._conflict_from_row(violating, below)
            target = lower[violating].value if below else upper[violating].value
            self._pivot_and_update(violating, candidate, target)
            pivots += 1

    def _can_increase(self, vid: int) -> bool:
        upper = self._upper[vid]
        return upper is None or self._assignment[vid] < upper.value

    def _can_decrease(self, vid: int) -> bool:
        lower = self._lower[vid]
        return lower is None or self._assignment[vid] > lower.value

    def _conflict_from_row(self, basic: int, below: bool) -> Infeasible:
        """The Farkas conflict: the violated bound on ``basic`` plus the
        binding bounds on every row variable (they jointly pin the row's
        value on the wrong side).

        The attached Farkas coefficients are the textbook ones: 1 for the
        violated bound itself and ``|coeff|`` for each binding row-variable
        bound — the row equation ``basic = Σ coeff·var`` makes the variable
        parts of that combination cancel exactly, because every tableau row
        stays in the linear span of the slack definitional equations under
        pivoting.
        """
        self.profile.theory_conflicts += 1
        conflict: Set[object] = set()
        farkas: List[Tuple[Bound, Number]] = []
        own = self._lower[basic] if below else self._upper[basic]
        conflict.add(own.tag)
        farkas.append((own, 1))
        for var, coeff in self._rows[basic].items():
            if (coeff > 0) == below:
                bound = self._upper[var]
            else:
                bound = self._lower[var]
            if bound is not None:
                conflict.add(bound.tag)
                farkas.append((bound, -coeff if coeff < 0 else coeff))
        conflict.discard("%one")
        return Infeasible(conflict, farkas=tuple(farkas))

    # -- introspection (tests, debugging) -----------------------------------------

    def bounds(self) -> Dict[str, Tuple[Optional[Bound], Optional[Bound]]]:
        """The current ``name -> (lower, upper)`` bound state."""
        return {
            name: (self._lower[vid], self._upper[vid])
            for vid, name in enumerate(self._names)
        }

    def tableau(self) -> Dict[str, Dict[str, Number]]:
        """The current rows as ``basic name -> {nonbasic name: coeff}``."""
        return {
            self._names[basic]: {self._names[col]: c for col, c in row.items()}
            for basic, row in self._rows.items()
        }

    # -- models --------------------------------------------------------------------

    def model(self) -> Dict[str, DeltaRat]:
        """The current (feasible) assignment for all variables."""
        return {name: self._assignment[vid] for vid, name in enumerate(self._names)}

    def concrete_model(self) -> Dict[str, Fraction]:
        """A concrete rational model: substitute a small positive δ.

        δ must be small enough that every asserted bound still holds; the
        standard per-bound limits are accumulated here.  δ is a
        ``Fraction``, so every model value is one too.
        """
        delta = Fraction(1)
        for vid in range(len(self._names)):
            value = self._assignment[vid]
            lower = self._lower[vid]
            if lower is not None:
                gap_real = value.real - lower.value.real
                gap_delta = lower.value.delta - value.delta
                if gap_delta > 0 and gap_real > 0:
                    delta = min(delta, Fraction(gap_real, 2 * gap_delta))
            upper = self._upper[vid]
            if upper is not None:
                gap_real = upper.value.real - value.real
                gap_delta = value.delta - upper.value.delta
                if gap_delta > 0 and gap_real > 0:
                    delta = min(delta, Fraction(gap_real, 2 * gap_delta))
        return {
            name: self._assignment[vid].at(delta)
            for vid, name in enumerate(self._names)
        }
