"""Theory-layer backtracking tests.

Two families, mirroring the two halves of the fast inner loop:

* the simplex bound trail — ``push_state``/``pop_state`` must restore
  the exact pre-push bound state (and leave the tableau equivalent), so
  bound states can follow the SAT core's decision levels;
* the CDCL core — Luby restarts and LBD clause-database reduction are
  pure heuristics and must never change SAT/UNSAT answers, checked
  against brute force on a seeded random 3-SAT corpus with the
  restart/reduction knobs turned aggressively low.
"""

import itertools
import random
from fractions import Fraction

import pytest

from repro.solver.delta import DeltaRat
from repro.solver.linear import LinExpr
from repro.solver.sat import CDCLSolver, luby
from repro.solver.simplex import Infeasible, Simplex

X = LinExpr.variable("x")
Y = LinExpr.variable("y")
Z = LinExpr.variable("z")


def d(real, delta=0):
    return DeltaRat(Fraction(real), Fraction(delta))


class TestSimplexTrail:
    def test_pop_restores_exact_bounds(self):
        s = Simplex()
        s.define("s", X + Y)
        s.assert_lower("x", d(0), "xl")
        s.assert_upper("s", d(10), "su")
        before = s.bounds()

        s.push_state()
        s.assert_lower("x", d(2), "xl2")       # tightens
        s.assert_upper("x", d(5), "xu2")       # fresh
        s.assert_upper("s", d(7), "su2")       # tightens
        s.assert_upper("s", d(8), "noop")      # no-op (weaker)
        s.check()
        assert s.bounds() != before
        s.pop_state()

        assert s.bounds() == before

    def test_nested_push_pop(self):
        s = Simplex()
        s.add_variable("x")
        s.assert_lower("x", d(0), "l0")
        level0 = s.bounds()
        s.push_state()
        s.assert_lower("x", d(1), "l1")
        level1 = s.bounds()
        s.push_state()
        s.assert_lower("x", d(2), "l2")
        s.assert_upper("x", d(9), "u2")
        s.pop_state()
        assert s.bounds() == level1
        s.pop_state()
        assert s.bounds() == level0

    def test_pop_after_infeasible_assert(self):
        s = Simplex()
        s.add_variable("x")
        s.assert_lower("x", d(3), "l")
        before = s.bounds()
        s.push_state()
        with pytest.raises(Infeasible):
            s.assert_upper("x", d(1), "u")
        s.pop_state()
        assert s.bounds() == before
        # Still usable afterwards.
        s.assert_upper("x", d(4), "u2")
        s.check()
        assert d(3) <= s.model()["x"] <= d(4)

    def test_pop_after_pivoting_check_keeps_system_equivalent(self):
        # Pivots change the tableau representation but not the solution
        # set; after pop the same queries must give the same verdicts a
        # fresh solver gives.
        s = Simplex()
        s.define("p", X + Y)
        s.define("q", X - Y)
        base = s.bounds()

        s.push_state()
        s.assert_upper("p", d(4), "a")
        s.assert_upper("q", d(2), "b")
        s.assert_lower("x", d(1), "c")
        s.assert_lower("y", d(0), "d")
        s.check()
        m = s.concrete_model()
        assert m["x"] + m["y"] <= 4 and m["x"] - m["y"] <= 2
        s.pop_state()
        assert s.bounds() == base

        # Re-running a *different* scenario on the pivoted tableau
        # agrees with a fresh instance.
        for instance in (s, self._fresh_pq()):
            instance.push_state() if instance is s else None
            instance.assert_upper("p", d(1), "su")
            instance.assert_lower("x", d(1), "xl")
            with pytest.raises(Infeasible) as err:
                instance.assert_lower("y", d(1), "yl")
                instance.check()
            assert "su" in err.value.conflict

    @staticmethod
    def _fresh_pq():
        fresh = Simplex()
        fresh.define("p", X + Y)
        fresh.define("q", X - Y)
        return fresh

    def test_row_values_stay_consistent_after_pop(self):
        # Whatever pivoting happened, basic variables must still equal
        # their defining linear forms under the current assignment.
        s = Simplex()
        s.define("p", X + Y)
        s.define("q", X - Y + Z)
        s.push_state()
        s.assert_lower("p", d(3), "a")
        s.assert_upper("q", d(-1), "b")
        s.assert_lower("z", d(0), "c")
        s.check()
        s.pop_state()
        m = s.model()
        assert m["p"] == m["x"] + m["y"]
        assert m["q"] == m["x"] - m["y"] + m["z"]

    def test_trail_pop_without_push_raises(self):
        s = Simplex()
        with pytest.raises(RuntimeError):
            s.pop_state()


# ---------------------------------------------------------------------------
# CDCL restarts / clause deletion on a seeded 3-SAT corpus
# ---------------------------------------------------------------------------


def brute_force_sat(num_vars, clauses):
    for bits in itertools.product([False, True], repeat=num_vars):
        if all(any(bits[abs(l) - 1] == (l > 0) for l in clause) for clause in clauses):
            return True
    return False


def random_3sat(rng, num_vars, num_clauses):
    clauses = []
    for _ in range(num_clauses):
        vars_ = rng.sample(range(1, num_vars + 1), 3)
        clauses.append([v if rng.random() < 0.5 else -v for v in vars_])
    return clauses


def aggressive_solver(num_vars):
    """Restart every few conflicts, reduce the clause DB constantly."""
    return CDCLSolver(
        num_vars,
        restart_base=2,
        reduce_base=5,
        reduce_inc=5,
    )


class TestLuby:
    def test_prefix(self):
        assert [luby(i) for i in range(1, 16)] == [
            1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8,
        ]


class TestRandomCorpus:
    def test_answers_match_brute_force(self):
        rng = random.Random(20260730)
        for trial in range(60):
            num_vars = rng.randint(4, 10)
            # Around the 3-SAT phase transition so both answers occur.
            num_clauses = rng.randint(num_vars, int(num_vars * 4.8))
            clauses = random_3sat(rng, num_vars, num_clauses)
            expected = brute_force_sat(num_vars, clauses)
            solver = aggressive_solver(num_vars)
            for clause in clauses:
                solver.add_clause(clause)
            assert solver.solve() == expected, f"trial {trial}: {clauses}"
            if expected:
                model = solver.model()
                for clause in clauses:
                    assert any(model[abs(l)] == (l > 0) for l in clause)

    def test_aggressive_equals_default_on_larger_instances(self):
        rng = random.Random(7_2026)
        for trial in range(12):
            num_vars = 40
            clauses = random_3sat(rng, num_vars, 170)
            default = CDCLSolver(num_vars)
            aggressive = aggressive_solver(num_vars)
            for clause in clauses:
                default.add_clause(clause)
                aggressive.add_clause(clause)
            assert default.solve() == aggressive.solve(), f"trial {trial}"

    def test_reduction_actually_fires(self):
        rng = random.Random(99)
        solver = aggressive_solver(30)
        for clause in random_3sat(rng, 30, 128):
            solver.add_clause(clause)
        solver.solve()
        profile = solver.profile
        assert profile.conflicts > 0
        assert profile.restarts > 0

    def test_incremental_answers_survive_reduction(self):
        # Add clauses between solves with tiny reduction thresholds; the
        # answers must track the monotonically shrinking solution set.
        rng = random.Random(5)
        num_vars = 12
        solver = aggressive_solver(num_vars)
        clauses = []
        for _ in range(40):
            clause = random_3sat(rng, num_vars, 1)[0]
            clauses.append(clause)
            solver.add_clause(clause)
            assert solver.solve() == brute_force_sat(num_vars, clauses)
