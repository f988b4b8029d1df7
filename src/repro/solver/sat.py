"""A CDCL SAT solver.

Implements the standard architecture: two-watched-literal propagation,
first-UIP conflict analysis with clause learning, heap-based VSIDS
activity ordering with exponential decay, phase saving, **Luby-sequence
restarts** and **learned-clause database reduction by LBD** (literal
block distance — the number of distinct decision levels in a learned
clause; low-LBD "glue" clauses are kept forever, high-LBD ones are
periodically dropped).  The solver is incremental in the way DPLL(T)
needs: new clauses (theory conflicts, scoped assertions) can be added
between ``solve()`` calls, and ``solve(assumptions)`` treats the
assumptions as temporary first decisions.

Clause-database reduction only ever removes clauses the solver *learned*
itself (they are implied by the rest, so removal is sound and cannot
change SAT/UNSAT answers); clauses added through :meth:`add_clause` —
problem clauses, selector-guarded scope clauses — and theory lemmas are
permanent.

For DPLL(T) a *theory* can be attached (:attr:`CDCLSolver.theory`).  The
core consults it at every propagation fixpoint with
``theory.theory_check(trail, level)``, which returns ``None`` (the
trail is theory-consistent) or a *lemma*: a theory-valid clause that
the trail falsifies.  The lemma is kept as a permanent clause and
analyzed like any other conflict.  Every backjump is reported with
``theory.theory_backtrack(level)``, so the theory can retract what it
asserted above ``level``.

Literals follow the DIMACS convention: nonzero ints, ``-v`` negates.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.solver.profile import SolverProfile

Literal = int


def luby(i: int) -> int:
    """The i-th element (1-indexed) of the Luby restart sequence
    1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, …"""
    while True:
        k = i.bit_length()
        if i == (1 << k) - 1:
            return 1 << (k - 1)
        i -= (1 << (k - 1)) - 1


class Unsatisfiable(Exception):
    """Raised internally when the instance is refuted at level 0."""


class CDCLSolver:
    """A self-contained CDCL solver over int literals.

    ``restart_base`` scales the Luby sequence (conflicts until the i-th
    restart = ``restart_base * luby(i)``); ``reduce_base``/``reduce_inc``
    schedule learned-clause database reductions (first reduction after
    ``reduce_base`` conflicts, then every ``reduce_inc`` more).  Tests
    shrink these to exercise the machinery on small instances.
    """

    def __init__(
        self,
        num_vars: int = 0,
        profile: Optional[SolverProfile] = None,
        restart_base: int = 100,
        reduce_base: int = 2000,
        reduce_inc: int = 1000,
        activity_decay: float = 0.95,
    ) -> None:
        self.num_vars = 0
        self.profile = profile if profile is not None else SolverProfile()
        # Assignment state: values[v] in (True, False, None), 1-indexed.
        self._values: List[Optional[bool]] = [None]
        self._level_of: List[int] = [0]
        self._reason: List[Optional[List[Literal]]] = [None]
        self._activity: List[float] = [0.0]
        self._phase: List[bool] = [False]
        self._trail: List[Literal] = []
        self._trail_limits: List[int] = []
        self._propagate_head = 0
        # Clause store: each clause is a list of literals (None = deleted);
        # watch lists hold indices and are cleaned lazily.
        self._clauses: List[Optional[List[Literal]]] = []
        self._watches: Dict[Literal, List[int]] = {}
        # Learned-clause bookkeeping for DB reduction.
        self._learned: List[int] = []
        self._lbd: Dict[int, int] = {}
        self._activity_inc = 1.0
        self._activity_decay = activity_decay
        self._restart_base = restart_base
        self._reduce_limit = reduce_base
        self._reduce_inc = reduce_inc
        self._conflicts_total = 0
        self._restarts_total = 0
        # VSIDS decision heap of (-activity, var); entries go stale when a
        # var is bumped (a fresher entry is pushed) — stale pops are skipped.
        self._heap: List[Tuple[float, int]] = []
        self._unsat = False
        #: Optional shared proof-event log (the witness subsystem's DRUP
        #: trail).  When set, every learned clause is appended as a
        #: ``("learn", clause)`` event in learn order — each is checkable
        #: by reverse unit propagation against the events before it.
        self.proof: Optional[List[Tuple]] = None
        #: The attached theory (see the module docstring), or None.
        self.theory = None
        self.ensure_vars(num_vars)

    # -- variable / clause management ---------------------------------------

    def ensure_vars(self, count: int) -> None:
        while self.num_vars < count:
            self.num_vars += 1
            self._values.append(None)
            self._level_of.append(0)
            self._reason.append(None)
            self._activity.append(0.0)
            self._phase.append(False)
            heapq.heappush(self._heap, (0.0, self.num_vars))

    def new_var(self) -> int:
        self.ensure_vars(self.num_vars + 1)
        return self.num_vars

    def value(self, literal: Literal) -> Optional[bool]:
        value = self._values[abs(literal)]
        if value is None:
            return None
        return value if literal > 0 else not value

    def add_clause(self, literals: Iterable[Literal]) -> None:
        """Add a permanent clause; safe to call between ``solve()`` calls."""
        clause = []
        seen = set()
        for literal in literals:
            self.ensure_vars(abs(literal))
            if -literal in seen:
                return  # tautology
            if literal not in seen:
                seen.add(literal)
                clause.append(literal)
        if self._decision_level() != 0:
            self._backtrack(0)
        if not clause:
            self._unsat = True
            return
        # Drop literals already false at level 0; satisfy check.
        clause = [l for l in clause if not (self.value(l) is False and self._level_of[abs(l)] == 0)]
        if any(self.value(l) is True and self._level_of[abs(l)] == 0 for l in clause):
            return
        if not clause:
            self._unsat = True
            return
        if len(clause) == 1:
            if not self._enqueue(clause[0], None):
                self._unsat = True
            elif self._propagate() is not None:
                self._unsat = True
            return
        self._attach(clause)

    def _attach(self, clause: List[Literal], lbd: Optional[int] = None) -> int:
        index = len(self._clauses)
        self._clauses.append(clause)
        self._watches.setdefault(clause[0], []).append(index)
        self._watches.setdefault(clause[1], []).append(index)
        if lbd is not None:
            self._learned.append(index)
            self._lbd[index] = lbd
        return index

    # -- trail management ----------------------------------------------------

    def _decision_level(self) -> int:
        return len(self._trail_limits)

    def _enqueue(self, literal: Literal, reason: Optional[List[Literal]]) -> bool:
        current = self.value(literal)
        if current is not None:
            return current
        var = abs(literal)
        self._values[var] = literal > 0
        self._level_of[var] = self._decision_level()
        self._reason[var] = reason
        self._trail.append(literal)
        return True

    def _backtrack(self, level: int) -> None:
        if self._decision_level() <= level:
            return
        limit = self._trail_limits[level]
        heap = self._heap
        activity = self._activity
        for literal in reversed(self._trail[limit:]):
            var = abs(literal)
            self._phase[var] = self._values[var]
            self._values[var] = None
            self._reason[var] = None
            heapq.heappush(heap, (-activity[var], var))
        del self._trail[limit:]
        del self._trail_limits[level:]
        self._propagate_head = min(self._propagate_head, len(self._trail))
        if self.theory is not None:
            self.theory.theory_backtrack(level)

    # -- propagation ----------------------------------------------------------

    def _propagate(self) -> Optional[List[Literal]]:
        """Unit propagation; returns a conflicting clause or None.

        The literal-value checks are inlined (``values[var] == (lit > 0)``
        instead of :meth:`value` calls) — this loop is the SAT core's
        hottest path by an order of magnitude.
        """
        clauses = self._clauses
        values = self._values
        watches = self._watches
        trail = self._trail
        propagated = 0
        try:
            while self._propagate_head < len(trail):
                literal = trail[self._propagate_head]
                self._propagate_head += 1
                falsified = -literal
                watch_list = watches.get(falsified)
                if not watch_list:
                    continue
                kept: List[int] = []
                i = 0
                n = len(watch_list)
                while i < n:
                    index = watch_list[i]
                    i += 1
                    clause = clauses[index]
                    if clause is None:
                        continue  # deleted: drop from this watch list
                    # Normalize: watched literals are clause[0], clause[1].
                    if clause[0] == falsified:
                        clause[0], clause[1] = clause[1], clause[0]
                    first = clause[0]
                    var0 = first if first > 0 else -first
                    val0 = values[var0]
                    if val0 is not None and val0 == (first > 0):
                        kept.append(index)  # satisfied by its other watch
                        continue
                    # Look for a replacement watch.
                    moved = False
                    for k in range(2, len(clause)):
                        other = clause[k]
                        val = values[other if other > 0 else -other]
                        if val is None or val == (other > 0):
                            clause[1], clause[k] = other, clause[1]
                            entry = watches.get(other)
                            if entry is None:
                                watches[other] = [index]
                            else:
                                entry.append(index)
                            moved = True
                            break
                    if moved:
                        continue
                    kept.append(index)
                    if val0 is not None:
                        # first is false: conflict.  Restore the
                        # remaining watches and report.
                        kept.extend(watch_list[i:])
                        watches[falsified] = kept
                        return clause
                    # Unit: enqueue first with this clause as reason.
                    propagated += 1
                    values[var0] = first > 0
                    self._level_of[var0] = len(self._trail_limits)
                    self._reason[var0] = clause
                    trail.append(first)
                watches[falsified] = kept
            return None
        finally:
            self.profile.propagations += propagated

    # -- conflict analysis ----------------------------------------------------

    def _bump(self, var: int) -> None:
        activity = self._activity[var] + self._activity_inc
        self._activity[var] = activity
        if activity > 1e100:
            self._rescale_activities()
        else:
            heapq.heappush(self._heap, (-activity, var))

    def _rescale_activities(self) -> None:
        for v in range(1, self.num_vars + 1):
            self._activity[v] *= 1e-100
        self._activity_inc *= 1e-100
        # Every heap entry is now stale; rebuild from current activities.
        self._heap = [(-self._activity[v], v) for v in range(1, self.num_vars + 1)]
        heapq.heapify(self._heap)

    def _analyze(self, conflict: List[Literal]) -> Tuple[List[Literal], int]:
        """First-UIP learning; returns (learned clause, backtrack level)."""
        level = self._decision_level()
        learned: List[Literal] = []
        seen = set()
        counter = 0
        literal: Optional[Literal] = None
        reason = conflict
        index = len(self._trail) - 1

        while True:
            for other in reason:
                # Skip the literal this reason clause implied (the trail
                # literal we are resolving on, i.e. -literal).
                if literal is not None and other == -literal:
                    continue
                var = abs(other)
                if var in seen or self._level_of[var] == 0:
                    continue
                seen.add(var)
                self._bump(var)
                if self._level_of[var] == level:
                    counter += 1
                else:
                    learned.append(other)
            # Find the next trail literal to resolve on.
            while abs(self._trail[index]) not in seen:
                index -= 1
            literal = -self._trail[index]
            var = abs(literal)
            seen.discard(var)
            counter -= 1
            index -= 1
            if counter == 0:
                break
            reason = self._reason[var] or []
        learned.insert(0, literal)
        if len(learned) == 1:
            return learned, 0
        back_level = max(self._level_of[abs(l)] for l in learned[1:])
        return learned, back_level

    def _clause_lbd(self, clause: Sequence[Literal]) -> int:
        """Literal block distance: distinct decision levels in the clause."""
        return len({self._level_of[abs(l)] for l in clause})

    # -- clause database reduction ---------------------------------------------

    def _locked(self, clause: List[Literal]) -> bool:
        """Is the clause currently the reason of an implied literal?

        The implied literal of a reason clause always sits at a watched
        position (index 0 or 1), so two identity checks suffice.
        """
        if self._reason[abs(clause[0])] is clause:
            return True
        return len(clause) > 1 and self._reason[abs(clause[1])] is clause

    def _reduce_db(self) -> None:
        """Drop the worst half of the learned clauses, by LBD.

        Glue clauses (LBD <= 2), binary clauses and clauses currently
        acting as reasons are kept.  Watch lists are cleaned lazily
        during propagation.
        """
        alive = [i for i in self._learned if self._clauses[i] is not None]
        candidates = [
            i
            for i in alive
            if self._lbd[i] > 2
            and len(self._clauses[i]) > 2
            and not self._locked(self._clauses[i])
        ]
        if not candidates:
            self._learned = alive
            return
        # Highest LBD (ties: longer clause) goes first.
        candidates.sort(key=lambda i: (self._lbd[i], len(self._clauses[i])))
        doomed = candidates[len(candidates) // 2:]
        for index in doomed:
            self._clauses[index] = None
            del self._lbd[index]
        self.profile.deleted_clauses += len(doomed)
        dead = set(doomed)
        self._learned = [i for i in alive if i not in dead]

    def _theory_conflict(self, lemma: List[Literal]) -> List[Literal]:
        """Keep a theory lemma as a permanent clause; returns it as the
        conflict to analyze, with the search backtracked to the lemma's
        highest level so that 1-UIP analysis finds a literal there."""
        if not lemma:
            raise Unsatisfiable
        level_of = self._level_of
        clause = sorted(lemma, key=lambda l: -level_of[abs(l)])
        if len(clause) >= 2:
            # Watch the two highest-level literals: backjumping then
            # unassigns them first, keeping the watch invariant.
            self._attach(clause)
        self._backtrack(level_of[abs(clause[0])])
        return clause

    # -- main loop --------------------------------------------------------------

    def _pick_branch(self) -> Optional[Literal]:
        heap = self._heap
        values = self._values
        activity = self._activity
        while heap:
            neg_activity, var = heapq.heappop(heap)
            if values[var] is None and -neg_activity == activity[var]:
                return var if self._phase[var] else -var
        return None

    def solve(self, assumptions: Sequence[Literal] = ()) -> bool:
        """Solve the current clause set; returns True iff satisfiable.

        ``assumptions`` are temporary decisions; the next call resets the
        solver state to level 0.
        """
        if self._unsat:
            return False
        self._backtrack(0)
        if self._propagate() is not None:
            self._unsat = True
            return False
        theory = self.theory
        conflicts_since_restart = 0
        restart_index = 1
        restart_limit = self._restart_base * luby(restart_index)
        try:
            while True:
                conflict = self._propagate()
                if conflict is None and theory is not None:
                    lemma = theory.theory_check(self._trail, len(self._trail_limits))
                    if lemma is not None:
                        conflict = self._theory_conflict(lemma)
                if conflict is not None:
                    if self._decision_level() == 0:
                        raise Unsatisfiable
                    if self._decision_level() <= len(assumptions):
                        # Conflict under assumptions only.
                        return False
                    learned, back_level = self._analyze(conflict)
                    if self.proof is not None:
                        self.proof.append(("learn", tuple(learned)))
                    back_level = max(back_level, len(assumptions))
                    self._backtrack(back_level)
                    conflicts_since_restart += 1
                    self._conflicts_total += 1
                    self.profile.conflicts += 1
                    self._activity_inc /= self._activity_decay
                    if len(learned) == 1 and back_level == 0:
                        if not self._enqueue(learned[0], None):
                            raise Unsatisfiable
                    else:
                        clause = list(learned)
                        if len(clause) >= 2:
                            # Second watch must be a highest-level literal.
                            levels = [self._level_of[abs(l)] for l in clause]
                            k = max(range(1, len(clause)), key=lambda j: levels[j])
                            clause[1], clause[k] = clause[k], clause[1]
                            index = self._attach(clause, lbd=self._clause_lbd(clause))
                            self.profile.learned_clauses += 1
                            self._enqueue(clause[0], self._clauses[index])
                        else:
                            self._enqueue(clause[0], None)
                    if (
                        conflicts_since_restart >= restart_limit
                        and self._decision_level() > len(assumptions)
                    ):
                        conflicts_since_restart = 0
                        restart_index += 1
                        restart_limit = self._restart_base * luby(restart_index)
                        self._restarts_total += 1
                        self.profile.restarts += 1
                        self._backtrack(len(assumptions))
                        if self._conflicts_total >= self._reduce_limit:
                            self._reduce_db()
                            self._reduce_limit += self._reduce_inc
                    continue

                # Apply pending assumptions as decisions.
                level = self._decision_level()
                if level < len(assumptions):
                    literal = assumptions[level]
                    if self.value(literal) is False:
                        return False
                    self._trail_limits.append(len(self._trail))
                    if self.value(literal) is None:
                        self._enqueue(literal, None)
                    continue

                branch = self._pick_branch()
                if branch is None:
                    return True
                self.profile.decisions += 1
                self._trail_limits.append(len(self._trail))
                self._enqueue(branch, None)
        except Unsatisfiable:
            self._unsat = True
            return False

    def model(self) -> Dict[int, bool]:
        """The satisfying assignment after a successful ``solve()``."""
        return {var: bool(self._values[var]) for var in range(1, self.num_vars + 1) if self._values[var] is not None}
