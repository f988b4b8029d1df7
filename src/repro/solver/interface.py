"""High-level validity checking over ShadowDP expressions.

This is the interface the type checker and verifier actually use: they
ask whether ``premises ⊨ goal`` for boolean ShadowDP expressions.  The
check is performed by refutation: ``premises ∧ ¬goal`` is encoded and
handed to the DPLL(T) core; validity holds iff the query is unsatisfiable.

Queries are memoized in a :class:`~repro.solver.context.QueryCache`
keyed on the *normalized* query (simplified goal, deduplicated and
canonically ordered premises), so alpha-trivial variants — permuted
premise lists, ``x+0`` vs ``x`` — share one entry.  Each checker owns a
private cache by default; pass a shared one to pool answers across
checkers (the pipeline does this for whole batch runs).  A refuted
query's countermodel is captured from the same solve that refuted it,
so ``is_valid`` followed by ``find_model`` costs one solver call, not
two.
"""

from __future__ import annotations

from typing import AbstractSet, Dict, Iterable, Optional, Set, Tuple

from repro.lang import ast
from repro.solver import formula as F
from repro.solver.context import (
    CacheEntry,
    Model,
    QueryCache,
    entry_from_result,
    normalize_query,
)
from repro.solver.encode import Encoder
from repro.solver.smt import SatResult, SMTSolver


class ValidityChecker:
    """Checks entailments between ShadowDP boolean expressions.

    The checker is stateless apart from its configuration and cache:
    typing a single program asks many identical questions (e.g. the loop
    fixpoint re-checks the body), and batch runs repeat whole premise
    sets across obligations.

    ``answers`` is an optional persistent answer source (the check
    stage passes a :class:`repro.verify.store.CheckRows`): a query the
    cache misses is looked up there before it is solved, and every
    fresh answer is recorded there.
    """

    def __init__(
        self,
        bool_vars: Optional[Set[str]] = None,
        cache: Optional[QueryCache] = None,
        witness: bool = False,
        answers=None,
    ) -> None:
        self.bool_vars = set(bool_vars or ())
        self.cache = cache if cache is not None else QueryCache()
        self.answers = answers
        self.queries = 0
        self.cache_hits = 0
        self.solve_calls = 0
        #: Emit proof certificates for valid answers (see repro.witness).
        self.witness = witness
        #: The certificate behind the most recent valid answer, or None.
        self.last_certificate = None
        #: With witnesses on: the certificate behind every valid answer
        #: this checker relied on, by normalized query.
        self.certificates: Dict[Tuple, object] = {}

    # -- core entailment -------------------------------------------------------

    def entailment(
        self,
        goal: ast.Expr,
        premises: Iterable[ast.Expr] = (),
        bool_vars: Optional[AbstractSet[str]] = None,
    ) -> Tuple[bool, Optional[Model]]:
        """``(valid, countermodel)`` for ``premises ⊨ goal`` in one solve.

        Sound but incomplete in the presence of nonlinear subterms (they
        are abstracted as opaque constants): a True answer is always
        trustworthy, a False answer may be a spurious abstraction effect.
        This matches how the pipeline uses the answer — a failed check
        makes the type checker reject (conservative direction).  The
        countermodel is None when the goal is valid or the solver gave
        up (round limit).

        ``bool_vars`` names the boolean variables of this one query; the
        checker's :attr:`bool_vars` when None.  A witnessed checker
        re-solves a cached valid answer that has no certificate (see
        :meth:`QueryCache.acquire`).
        """
        bool_vars = self.bool_vars if bool_vars is None else frozenset(bool_vars)
        self.queries += 1
        key = normalize_query(goal, premises, bool_vars)
        # Single flight (see QueryCache.acquire): a concurrent identical
        # query waits for this solve instead of duplicating it.
        entry = self.cache.acquire(key, certified=self.witness)
        if entry is not None:
            self.cache_hits += 1
        else:
            try:
                entry = self._answer(key)
            except BaseException:
                self.cache.cancel(key)
                raise
            self.cache.store(key, entry)
        self.last_certificate = entry.certificate
        if self.witness and entry.certificate is not None:
            self.certificates[key] = entry.certificate
        return entry.valid, entry.model

    def is_valid(
        self,
        goal: ast.Expr,
        premises: Iterable[ast.Expr] = (),
        bool_vars: Optional[AbstractSet[str]] = None,
    ) -> bool:
        """True iff ``premises ⊨ goal`` in linear real arithmetic."""
        valid, _ = self.entailment(goal, premises, bool_vars)
        return valid

    def find_model(
        self, goal: ast.Expr, premises: Iterable[ast.Expr] = ()
    ) -> Optional[Model]:
        """A counterexample to ``premises ⊨ goal``, or None if valid.

        Returns ``(arithmetic model, boolean model)`` making all premises
        true and the goal false.  After an ``is_valid`` miss on the same
        query this is a pure cache hit — the model was captured by the
        refuting solve.
        """
        valid, model = self.entailment(goal, premises)
        if valid:
            return None
        if model is None:
            raise RuntimeError("solver gave up (round limit)")
        return model

    # -- internals -------------------------------------------------------------

    def _answer(self, key: Tuple) -> CacheEntry:
        """The stored answer to ``key`` if ``answers`` has one, else a
        fresh solve, recorded in ``answers``.

        The solve is of ``key`` itself — the simplified goal and the
        sorted premises — not of the caller's wording, so every query
        with one key gets one certificate whatever its premise order.
        """
        if self.answers is not None:
            entry = self.answers.lookup(key)
            if entry is not None:
                return entry
        result, solver = self._solve(*key)
        self.solve_calls += 1
        entry = entry_from_result(result)
        if self.witness and entry.valid:
            from repro.witness.emit import certificate_from_solver

            entry.certificate = certificate_from_solver(solver)
        if self.answers is not None:
            self.answers.record(key, entry)
        return entry

    def _solve(
        self, goal: ast.Expr, premises: Tuple[ast.Expr, ...], bool_vars: AbstractSet[str]
    ) -> Tuple[SatResult, SMTSolver]:
        encoder = Encoder(bool_vars=bool_vars, memo=self.cache.encodings)
        solver = SMTSolver()
        if self.witness:
            solver.enable_proof()
        for premise in premises:
            solver.add(encoder.boolean(premise))
        solver.add(F.mk_not(encoder.boolean(goal)))
        return solver.check(), solver


def is_valid(goal: ast.Expr, premises: Iterable[ast.Expr] = (), bool_vars: Optional[Set[str]] = None) -> bool:
    """One-shot validity query (see :meth:`ValidityChecker.is_valid`)."""
    return ValidityChecker(bool_vars=bool_vars).is_valid(goal, premises)


def find_model(goal: ast.Expr, premises: Iterable[ast.Expr] = (), bool_vars: Optional[Set[str]] = None):
    """One-shot counterexample query (see :meth:`ValidityChecker.find_model`)."""
    return ValidityChecker(bool_vars=bool_vars).find_model(goal, premises)
