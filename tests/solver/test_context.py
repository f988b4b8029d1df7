"""Tests for the incremental solver context and the shared query cache."""


import pytest

from repro.lang.parser import parse_expr
from repro.solver import formula as F
from repro.solver.context import QueryCache, SolverContext, normalize_query
from repro.solver.interface import ValidityChecker
from repro.solver.linear import LinExpr
from repro.solver.smt import SMTSolver


X = LinExpr.variable("x")


def leq(a, b):
    return F.mk_atom("<=", a, b)


class TestSMTPushPop:
    def test_pop_retracts_scoped_assertions(self):
        solver = SMTSolver()
        solver.add(leq(X, LinExpr.constant(5)))
        assert solver.check().is_sat
        solver.push()
        solver.add(leq(LinExpr.constant(10), X))
        assert solver.check().is_unsat
        solver.pop()
        result = solver.check()
        assert result.is_sat
        assert result.arith_model["x"] <= 5

    def test_nested_scopes(self):
        solver = SMTSolver()
        solver.add(leq(X, LinExpr.constant(5)))
        solver.push()
        solver.add(leq(LinExpr.constant(3), X))
        assert solver.check().is_sat
        solver.push()
        solver.add(F.mk_atom("<", X, LinExpr.constant(3)))
        assert solver.check().is_unsat
        solver.pop()
        assert solver.check().is_sat
        solver.pop()
        assert solver.check().is_sat

    def test_base_assertions_after_check_are_permanent(self):
        solver = SMTSolver()
        solver.add(leq(X, LinExpr.constant(5)))
        assert solver.check().is_sat
        solver.add(leq(LinExpr.constant(6), X))  # incremental add after check
        assert solver.check().is_unsat
        assert solver.check().is_unsat  # sticky: base-level contradiction

    def test_pop_without_push_raises(self):
        with pytest.raises(RuntimeError):
            SMTSolver().pop()

    def test_solve_calls_counted(self):
        solver = SMTSolver()
        solver.add(leq(X, LinExpr.constant(5)))
        solver.check()
        solver.check()
        assert solver.solve_calls == 2

    def test_equality_splits_not_duplicated_across_checks(self):
        solver = SMTSolver()
        solver.add(F.mk_atom("==", X, LinExpr.constant(1)))
        solver.check()
        clauses_after_first = len(solver._encoder.cnf.clauses)
        solver.check()
        assert len(solver._encoder.cnf.clauses) == clauses_after_first


class TestSolverContext:
    def test_entailment_under_base_premises(self):
        ctx = SolverContext()
        ctx.assert_expr(parse_expr("x <= 0"))
        valid, model = ctx.check_entailment(parse_expr("x <= 1"))
        assert valid and model is None

    def test_refutation_returns_model_from_same_solve(self):
        ctx = SolverContext()
        ctx.assert_expr(parse_expr("x >= 5"))
        valid, model = ctx.check_entailment(parse_expr("x == 0"))
        assert not valid
        arith, _ = model
        assert arith["x"] >= 5
        assert ctx.stats.solve_calls == 1

    def test_queries_do_not_leak_between_scopes(self):
        ctx = SolverContext()
        ctx.assert_expr(parse_expr("x <= 10"))
        valid, _ = ctx.check_entailment(parse_expr("x <= 0"), [parse_expr("x <= 0")])
        assert valid
        # The previous query's extra premise must not constrain this one.
        valid, model = ctx.check_entailment(parse_expr("x <= 0"))
        assert not valid
        arith, _ = model
        assert 0 < arith["x"] <= 10

    def test_push_pop_balance_in_stats(self):
        ctx = SolverContext()
        ctx.check_entailment(parse_expr("x <= x"))
        ctx.check_entailment(parse_expr("x <= x + 1"))
        assert ctx.stats.pushes == ctx.stats.pops == 2

    def test_shared_cache_across_contexts(self):
        cache = QueryCache()
        first = SolverContext(cache=cache)
        first.assert_expr(parse_expr("x <= 0"))
        second = SolverContext(cache=cache)
        second.assert_expr(parse_expr("x <= 0"))
        assert first.check_entailment(parse_expr("x <= 1"))[0]
        assert second.check_entailment(parse_expr("x <= 1"))[0]
        assert second.stats.cache_hits == 1
        assert second.stats.solve_calls == 0


class TestQueryCacheNormalization:
    def test_premise_order_is_canonical(self):
        a, b = parse_expr("x > 0"), parse_expr("y > 0")
        goal = parse_expr("x + y > 0")
        assert normalize_query(goal, [a, b]) == normalize_query(goal, [b, a])

    def test_duplicate_and_trivial_premises_dropped(self):
        a = parse_expr("x > 0")
        goal = parse_expr("x >= 0")
        assert normalize_query(goal, [a, a, parse_expr("true")]) == normalize_query(goal, [a])

    def test_simplified_variants_share_a_key(self):
        # x + 0 simplifies to x, so the two queries must collide.
        assert normalize_query(parse_expr("x + 0 <= 1"), []) == normalize_query(
            parse_expr("x <= 1"), []
        )

    def test_distinct_queries_do_not_collide(self):
        assert normalize_query(parse_expr("x <= 1"), []) != normalize_query(
            parse_expr("x <= 2"), []
        )

    def test_hit_and_miss_accounting(self):
        cache = QueryCache()
        checker = ValidityChecker(cache=cache)
        goal = parse_expr("x < y")
        premises = [parse_expr("x + 1 <= y")]
        assert checker.is_valid(goal, premises)
        assert checker.is_valid(goal, list(reversed(premises)))
        assert checker.queries == 2
        assert checker.cache_hits == 1
        assert cache.hits == 1 and cache.misses == 1

    def test_find_model_reuses_refuting_solve(self):
        checker = ValidityChecker()
        goal = parse_expr("x <= 1")
        assert not checker.is_valid(goal)
        model = checker.find_model(goal)
        assert model is not None
        arith, _ = model
        assert arith["x"] > 1
        assert checker.solve_calls == 1  # single solve for both questions

    def test_checkers_share_answers_with_contexts(self):
        cache = QueryCache()
        checker = ValidityChecker(cache=cache)
        assert checker.is_valid(parse_expr("x <= 1"), [parse_expr("x <= 0")])
        ctx = SolverContext(cache=cache)
        ctx.assert_expr(parse_expr("x <= 0"))
        valid, _ = ctx.check_entailment(parse_expr("x <= 1"))
        assert valid
        assert ctx.stats.cache_hits == 1


class TestQueryCacheLRU:
    """The cache is a bounded LRU: eviction order, recency refresh, stats."""

    @staticmethod
    def _entry(valid=True):
        from repro.solver.context import CacheEntry

        return CacheEntry(valid=valid, status="unsat" if valid else "sat")

    def test_eviction_at_capacity(self):
        cache = QueryCache(max_entries=3)
        for key in ("a", "b", "c", "d"):
            cache.store(key, self._entry())
        assert len(cache) == 3
        assert cache.lookup("a") is None  # evicted: oldest
        assert cache.lookup("d") is not None
        assert cache.evictions == 1

    def test_lookup_refreshes_recency(self):
        cache = QueryCache(max_entries=2)
        cache.store("a", self._entry())
        cache.store("b", self._entry())
        assert cache.lookup("a") is not None  # refresh a
        cache.store("c", self._entry())       # evicts b, not a
        assert cache.lookup("a") is not None
        assert cache.lookup("b") is None

    def test_store_refreshes_recency(self):
        cache = QueryCache(max_entries=2)
        cache.store("a", self._entry())
        cache.store("b", self._entry())
        cache.store("a", self._entry(valid=False))  # overwrite refreshes
        cache.store("c", self._entry())             # evicts b
        entry = cache.lookup("a")
        assert entry is not None and entry.valid is False
        assert cache.lookup("b") is None

    def test_stats_dict(self):
        cache = QueryCache(max_entries=2)
        cache.store("a", self._entry())
        cache.lookup("a")
        cache.lookup("missing")
        cache.store("b", self._entry())
        cache.store("c", self._entry())
        stats = cache.stats()
        assert stats == {
            "entries": 2,
            "max_entries": 2,
            "hits": 1,
            "misses": 1,
            "evictions": 1,
            "pending": 0,
            "encodings": 0,
        }

    def test_default_capacity(self):
        assert QueryCache().max_entries == 4096

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError):
            QueryCache(max_entries=0)

    def test_clear_resets_counters(self):
        cache = QueryCache(max_entries=1)
        cache.store("a", self._entry())
        cache.store("b", self._entry())
        cache.lookup("b")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats()["hits"] == 0
        assert cache.stats()["evictions"] == 0


class TestCertifiedLookups:
    """A witnessed consumer never takes a valid answer without a
    certificate from the cache; it solves again with proof."""

    GOAL = parse_expr("x <= 1")
    PREMISES = [parse_expr("x <= 0")]

    def test_certified_acquire_misses_an_uncertified_valid_entry(self):
        from repro.solver.context import CacheEntry

        cache = QueryCache()
        cache.store("k", CacheEntry(valid=True, status="unsat"))
        assert cache.acquire("k") is not None
        assert cache.acquire("k", certified=True) is None  # owns the flight
        assert cache.stats()["pending"] == 1
        cache.store("k", CacheEntry(valid=True, status="unsat", certificate="proof"))
        assert cache.acquire("k", certified=True).certificate == "proof"

    def test_refutations_hit_certified_consumers(self):
        from repro.solver.context import CacheEntry

        cache = QueryCache()
        cache.store("k", CacheEntry(valid=False, status="sat", model=({}, {})))
        assert cache.acquire("k", certified=True) is not None

    def test_witnessed_checker_resolves_a_plain_answer_with_proof(self):
        cache = QueryCache()
        assert ValidityChecker(cache=cache).is_valid(self.GOAL, self.PREMISES)
        witnessed = ValidityChecker(cache=cache, witness=True)
        assert witnessed.is_valid(self.GOAL, self.PREMISES)
        assert witnessed.solve_calls == 1
        assert witnessed.last_certificate is not None
        # The certified entry now serves everyone.
        again = ValidityChecker(cache=cache, witness=True)
        assert again.is_valid(self.GOAL, self.PREMISES)
        assert again.cache_hits == 1
        assert again.last_certificate is witnessed.last_certificate
        plain = ValidityChecker(cache=cache)
        assert plain.is_valid(self.GOAL, self.PREMISES)
        assert plain.cache_hits == 1

    def test_witnessed_context_resolves_a_plain_answer_with_proof(self):
        cache = QueryCache()
        assert ValidityChecker(cache=cache).is_valid(self.GOAL, self.PREMISES)
        ctx = SolverContext(cache=cache, witness=True)
        ctx.assert_expr(self.PREMISES[0])
        valid, _ = ctx.check_entailment(self.GOAL)
        assert valid
        assert ctx.stats.solve_calls == 1 and ctx.stats.cache_hits == 0
        assert ctx.last_certificate is not None

    def test_refutation_hits_a_witnessed_checker(self):
        cache = QueryCache()
        goal = parse_expr("x <= -1")
        assert not ValidityChecker(cache=cache).is_valid(goal, self.PREMISES)
        witnessed = ValidityChecker(cache=cache, witness=True)
        assert not witnessed.is_valid(goal, self.PREMISES)
        assert witnessed.cache_hits == 1 and witnessed.solve_calls == 0
