"""Unit tests for the command rules of the type checker (Fig. 4)."""

import pytest

from repro.algorithms import all_specs, get
from repro.automation.inference import (
    _query_hat_terms,
    branch_conditions,
    candidate_alignments,
    candidate_selectors,
)
from repro.core import preconditions
from repro.core.checker import TypeChecker, check_function, uses_shadow_selector
from repro.core.environment import env_from_function
from repro.core.errors import ShadowDPTypeError
from repro.core.simplify import simplify
from repro.lang import ast
from repro.lang.parser import parse_expr, parse_function
from repro.lang.pretty import pretty_expr
from repro.solver.context import QueryCache
from repro.solver.interface import ValidityChecker


def check(src):
    return check_function(parse_function(src))


def commands_of(checked):
    return list(ast.command_iter(checked.body))


class TestAssignment:
    def test_distance_propagates(self):
        checked = check(
            """
            function F(x: num<1,0>) returns y: num<0,0>
            { y := x - x; return y; }
            """
        )
        assert checked.final_env.lookup("y").aligned == ast.ZERO

    def test_nonzero_return_distance_rejected(self):
        with pytest.raises(ShadowDPTypeError) as err:
            check(
                """
                function F(x: num<1,0>) returns y: num<0,0>
                { y := x; return y; }
                """
            )
        assert err.value.reason == "return-distance"

    def test_kind_change_rejected(self):
        with pytest.raises(ShadowDPTypeError):
            check(
                """
                function F(x: num) returns y: num
                { y := 1; y := x < 1; return 0; }
                """
            )

    def test_hat_assignment_in_source_rejected(self):
        fn = parse_function(
            "function F(x: num) returns y: num { y := 0; return y; }"
        )
        body = ast.seq(ast.Assign("x^o", ast.ZERO), fn.body)
        bad = ast.FunctionDef(fn.name, fn.params, fn.ret_name, fn.ret_type, fn.precondition, body)
        with pytest.raises(ShadowDPTypeError) as err:
            check_function(bad)
        assert err.value.reason == "hat-assignment"

    def test_well_formedness_promotion(self):
        # eta's distance (the annotation `x`) mentions x; assigning x must
        # freeze eta^o := x *before* the assignment (Section 4.3.1).
        checked = check(
            """
            function F(eps: num, x: num) returns r: num<0,0>
            {
                eta := Lap(1 / eps), aligned, x;
                x := 2;
                r := 0;
                return r;
            }
            """
        )
        assert ast.is_star(checked.final_env.lookup("eta").aligned)
        flat = checked.body.commands
        freeze_at = next(
            k for k, c in enumerate(flat)
            if isinstance(c, ast.Assign) and c.name == "eta^o"
        )
        assign_at = next(
            k for k, c in enumerate(flat)
            if isinstance(c, ast.Assign) and c.name == "x"
        )
        assert flat[freeze_at].expr == ast.Var("x")
        assert freeze_at < assign_at

    def test_freeze_dependents_emits_hat_store(self):
        checked = check(
            """
            function F(w: num<1,0>) returns r: num<0,0>
            {
                x := 1;
                y := w + x;
                x := 2;
                r := y - y;
                return r;
            }
            """
        )
        # y's aligned distance was 1 (from w) — x-free, so no promotion:
        assert checked.final_env.lookup("y").aligned == ast.ONE

    def test_hat_only_distances_stay_tracked(self):
        # x's distance after the second assignment is q^o[0] + q^o[1]:
        # hat variables are not the program variable x, so no promotion
        # is needed and the distance stays a tracked expression.
        checked = check(
            """
            function F(q: list num<*,*>) returns r: num<0,0>
            precondition forall k :: q^o[k] == 0 && q^s[k] == 0;
            {
                x := q[0];
                x := x + q[1];
                r := 0;
                return r;
            }
            """
        )
        expected = parse_expr("q^o[0] + q^o[1]")
        assert checked.final_env.lookup("x").aligned == expected


class TestListAssignment:
    def test_bool_cons(self):
        check(
            """
            function F(x: num) returns out: list bool
            { out := x < 1 :: out; return out; }
            """
        )

    def test_cons_wrong_distance_rejected(self):
        with pytest.raises(ShadowDPTypeError) as err:
            check(
                """
                function F(x: num<1,0>) returns out: list num<0,->
                { out := x :: out; return out; }
                """
            )
        assert err.value.reason == "cons-distance"

    def test_cons_must_extend_self(self):
        with pytest.raises(ShadowDPTypeError) as err:
            check(
                """
                function F(x: num) returns out: list num<0,->
                { other := 0; out := x :: other; return out; }
                """
            )
        assert err.value.reason in ("list-update-shape", "list-kind-mismatch")


class TestSampling:
    def test_sample_gets_annotation_distance(self):
        checked = check(
            """
            function F(eps: num) returns y: num<0,0>
            {
                eta := Lap(2 / eps), aligned, 1;
                y := eta - eta;
                return y;
            }
            """
        )
        assert checked.final_env.lookup("eta").aligned == ast.ONE
        assert checked.final_env.lookup("eta").random

    def test_private_scale_rejected(self):
        with pytest.raises(ShadowDPTypeError) as err:
            check(
                """
                function F(x: num<1,0>) returns y: num<0,0>
                { eta := Lap(x), aligned, 0; y := 0; return y; }
                """
            )
        assert err.value.reason == "private-scale"

    def test_non_injective_alignment_rejected(self):
        # eta + (eta > 0 ? -2*eta : 0) maps eta and -eta to ... not injective.
        with pytest.raises(ShadowDPTypeError) as err:
            check(
                """
                function F(eps: num) returns y: num<0,0>
                { eta := Lap(1 / eps), aligned, eta > 0 ? -2 * eta : 0;
                  y := 0; return y; }
                """
            )
        assert err.value.reason == "injectivity"

    def test_translation_alignment_asks_no_solver(self):
        # η ↦ η + 2 is a translation, injective without a query.
        checked = check(
            """
            function F(eps: num) returns y: num<0,0>
            { eta := Lap(2 / eps), aligned, 2; y := 0; return y; }
            """
        )
        assert checked.solver_queries == 0
        assert checked.solve_calls == 0

    def test_selector_rewrites_aligned_distances(self):
        checked = check(
            """
            function F(eps: num, x: num<1,2>) returns y: num<0,0>
            {
                eta := Lap(2 / eps), shadow, 0;
                y := x - x + eta - eta;
                return y;
            }
            """
        )
        # After a shadow selector, x's aligned distance is its shadow one.
        assert checked.final_env.lookup("x").aligned == ast.Real(2)

    def test_shadow_selector_under_diverged_branch_rejected(self):
        with pytest.raises(ShadowDPTypeError) as err:
            check(
                """
                function F(eps: num, x: num<1,1>) returns y: num<0,0>
                {
                    eta1 := Lap(2 / eps), shadow, 0;
                    if (x + eta1 > 0) {
                        eta2 := Lap(2 / eps), shadow, 0;
                    }
                    y := 0;
                    return y;
                }
                """
            )
        assert err.value.reason == "sample-under-high-pc"


class TestBranching:
    def test_boolean_assigned_before_branch_is_known_to_the_solver(self):
        # `c` is boolean only from its assignment on; the branch's pc
        # query must encode it as a boolean, not fail in the encoder.
        with pytest.raises(ShadowDPTypeError) as err:
            check(
                """
                function F(eps: num, x: num<0,1>, z: num<0,0>) returns y: num<0,0>
                {
                    eta := Lap(2 / eps), shadow, 0;
                    c := z > 0;
                    if (c && x > 1) { y := 0; } else { y := 0; }
                    return y;
                }
                """
            )
        assert err.value.reason == "fresh-under-high-pc"

    def test_join_promotes_and_instruments(self):
        checked = check(
            """
            function F(c: num, w: num<1,0>) returns r: num<0,0>
            {
                x := 0;
                if (c > 0) { x := w - w + 1; } else { x := w; }
                r := x - x;
                return r;
            }
            """
        )
        assert ast.is_star(checked.final_env.lookup("x").aligned)
        stores = [
            c for c in commands_of(checked)
            if isinstance(c, ast.Assign) and c.name == "x^o"
        ]
        assert len(stores) >= 2  # one per branch

    def test_branch_asserts_inserted(self):
        checked = check(
            """
            function F(c: num<1,0>, w: num<1,0>) returns r: num<0,0>
            {
                x := 0;
                if (c > w) { x := 1; } else { x := 2; }
                r := 0;
                return r;
            }
            """
        )
        asserts = [c for c in commands_of(checked) if isinstance(c, ast.Assert)]
        assert len(asserts) == 2
        # then-branch assert: c + 1 > w + 1
        assert asserts[0].expr == parse_expr("c + 1 > w + 1")

    def test_trivial_asserts_elided(self):
        checked = check(
            """
            function F(c: num) returns r: num<0,0>
            {
                x := 0;
                if (c > 0) { x := 1; } else { x := 2; }
                r := 0;
                return r;
            }
            """
        )
        asserts = [c for c in commands_of(checked) if isinstance(c, ast.Assert)]
        assert not asserts  # all distances zero → aligned guard == guard


class TestAlignedOnlyMode:
    def test_detection(self):
        fn = parse_function(
            """
            function F(eps: num) returns y: num<0,0>
            { eta := Lap(1 / eps), aligned, 0; y := 0; return y; }
            """
        )
        assert not uses_shadow_selector(fn.body)
        assert check_function(fn).aligned_only

    def test_lightdp_mode_rejects_shadow(self):
        from repro.algorithms import get

        fn = get("noisy_max").function()
        with pytest.raises(ShadowDPTypeError) as err:
            TypeChecker(fn, lightdp_mode=True).check()
        assert err.value.reason == "lightdp-shadow"

    def test_lightdp_mode_accepts_aligned_only(self):
        from repro.algorithms import get

        fn = get("svt").function()
        checked = TypeChecker(fn, lightdp_mode=True).check()
        assert checked.aligned_only


class TestTargetOnlyCommands:
    def test_assert_in_source_rejected(self):
        fn = parse_function("function F(x: num) returns y: num { y := 0; return y; }")
        body = ast.seq(ast.Assert(ast.TRUE), fn.body)
        bad = ast.FunctionDef(fn.name, fn.params, fn.ret_name, fn.ret_type, fn.precondition, body)
        with pytest.raises(ShadowDPTypeError) as err:
            check_function(bad)
        assert err.value.reason == "target-only-command"


def _solver_injectivity_query(sample, psi):
    """The goal and premises rule (T-Laplace) puts to the solver for
    ``sample`` when it does not take the translation shortcut."""
    eta = ast.Var(sample.name)
    eta1, eta2 = ast.Var(f"{sample.name}%1"), ast.Var(f"{sample.name}%2")
    aligned_sample = ast.BinOp("+", eta, sample.align)
    goal = simplify(
        ast.BinOp(
            "||",
            ast.BinOp(
                "!=",
                ast.substitute(aligned_sample, {eta: eta1}),
                ast.substitute(aligned_sample, {eta: eta2}),
            ),
            ast.BinOp("==", eta1, eta2),
        )
    )
    return goal, preconditions.instantiate(psi, [goal])


class TestTranslationShortcut:
    """(T-Laplace) skips the solver when substituting η leaves the
    alignment unchanged.  Differentially: wherever the checker skips it,
    the solver proves the query it would have been asked."""

    @staticmethod
    def _samples():
        """Every registry sample, and every (selector, alignment)
        candidate of the noisy_max and svt annotation searches."""
        for spec in all_specs():
            function = spec.function()
            for stmt in ast.command_iter(function.body):
                if isinstance(stmt, ast.Sample):
                    yield function, stmt
        for name in ("noisy_max", "svt"):
            function = get(name).function()
            conditions = branch_conditions(function.body)
            alignments = candidate_alignments(conditions, _query_hat_terms(function))
            for stmt in ast.command_iter(function.body):
                if not isinstance(stmt, ast.Sample):
                    continue
                for selector in candidate_selectors(conditions):
                    for align in alignments:
                        yield function, ast.Sample(stmt.name, stmt.scale, selector, align)

    def test_shortcut_never_changes_a_verdict(self):
        cache = QueryCache()
        reference = ValidityChecker()
        skipped = asked = 0
        for function, sample in self._samples():
            checker = TypeChecker(function, cache=cache)
            env = env_from_function(function)
            try:
                checker._check_injectivity(sample, env)
            except ShadowDPTypeError:
                pass
            if checker.validity.queries:
                asked += 1
                continue
            skipped += 1
            goal, premises = _solver_injectivity_query(sample, function.precondition)
            assert goal == ast.TRUE or reference.is_valid(
                goal, premises, env.bool_vars()
            ), pretty_expr(sample.align)
        assert skipped and asked
