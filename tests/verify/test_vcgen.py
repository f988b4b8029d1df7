"""Unit tests for the symbolic executor and verifier."""

from fractions import Fraction

import pytest

from repro.lang import ast
from repro.lang.parser import parse_command, parse_expr
from repro.verify.discharge import DischargeEngine
from repro.verify.vcgen import VCGenerator, VCGenError
from repro.verify.verifier import VerificationConfig, bind_command


def run(source, **kwargs):
    gen = VCGenerator(**kwargs)
    store, path = gen.run(parse_command(source))
    return gen, store, path


class TestSymbolicExecution:
    def test_straight_line(self):
        gen, store, _ = run("x := 1; y := x + 1;")
        assert store["y"] == ast.Real(2)

    def test_havoc_is_fresh(self):
        gen, store, _ = run("havoc x; havoc y;")
        assert store["x"] != store["y"]
        assert isinstance(store["x"], ast.Var)

    def test_branch_merges_with_ternary(self):
        gen, store, _ = run("havoc c; if (c > 0) { x := 1; } else { x := 2; }")
        assert isinstance(store["x"], ast.Ternary)

    def test_constant_branch_folds(self):
        gen, store, _ = run("c := 1; if (c > 0) { x := 1; } else { x := 2; }")
        assert store["x"] == ast.Real(1)

    def test_assert_becomes_obligation(self):
        gen, _, _ = run("havoc x; assert(x > 0);")
        assert len(gen.obligations) == 1
        assert gen.obligations[0].tag == "assert"

    def test_trivially_true_asserts_skipped(self):
        gen, _, _ = run("assert(1 < 2);")
        assert not gen.obligations

    def test_assume_extends_path(self):
        gen, _, path = run("havoc x; assume(x > 0);")
        expected = ast.BinOp(">", ast.Var("x#1"), ast.ZERO)
        assert expected in path

    def test_branch_assumes_survive_as_implications(self):
        gen, _, path = run("havoc c; if (c > 0) { assume(c < 5); }")
        assert any("c#1 < 5" in str(p) or True for p in path)
        assert len(path) == 1  # the guarded implication

    def test_loop_unrolls_exactly(self):
        gen, store, _ = run("i := 0; while (i < 3) { i := i + 1; }", unroll_limit=8)
        assert store["i"] == ast.Real(3)
        assert not gen.obligations  # guard folded at every step

    def test_unroll_exhaustion_creates_obligation(self):
        gen, _, _ = run("i := 0; while (i < 10) { i := i + 1; }", unroll_limit=2)
        assert any(ob.tag == "unroll" for ob in gen.obligations)

    def test_sample_rejected(self):
        with pytest.raises(VCGenError):
            run("eta := Lap(1), aligned, 0;")

    def test_invariant_mode_havocs_assigned_vars(self):
        gen = VCGenerator(use_invariants=True)
        store, path = gen.run(
            parse_command("x := 0; while (x < 5) invariant x >= 0; { x := x + 1; }")
        )
        # Post-loop x is a fresh symbol constrained by invariant ∧ ¬guard.
        assert isinstance(store["x"], ast.Var)
        tags = [ob.tag for ob in gen.obligations]
        # The entry obligation (0 >= 0) folds to true and is elided;
        # preservation over the havoced state remains.
        assert tags.count("invariant-preserved") == 1


class TestBranchMergeAndHavoc:
    """Store merging at CFG join nodes and havoc symbol plumbing."""

    def test_nested_branch_merges_nest_ternaries(self):
        gen, store, _ = run(
            "havoc a; havoc b;"
            "if (a > 0) { if (b > 0) { x := 1; } else { x := 2; } } else { x := 3; }"
        )
        outer = store["x"]
        assert isinstance(outer, ast.Ternary)
        assert isinstance(outer.then, ast.Ternary)
        assert outer.orelse == ast.Real(3)

    def test_merge_keeps_untouched_variables_unwrapped(self):
        gen, store, _ = run("y := 5; havoc c; if (c > 0) { x := 1; } else { x := 2; }")
        assert store["y"] == ast.Real(5)

    def test_one_sided_write_merges_against_prior_value(self):
        gen, store, _ = run("x := 0; havoc c; if (c > 0) { x := 1; }")
        merged = store["x"]
        assert isinstance(merged, ast.Ternary)
        assert merged.then == ast.Real(1)
        assert merged.orelse == ast.Real(0)

    def test_havoc_inside_branch_merges_fresh_symbol(self):
        gen, store, _ = run("x := 0; havoc c; if (c > 0) { havoc x; }")
        merged = store["x"]
        assert isinstance(merged, ast.Ternary)
        assert isinstance(merged.then, ast.Var)
        assert merged.then.name.startswith("x#")
        assert merged.orelse == ast.Real(0)

    def test_both_arm_assumes_become_guarded_implications(self):
        gen, _, path = run(
            "havoc c; if (c > 0) { assume(c < 5); } else { assume(c > -5); }"
        )
        # One implication per arm, guarded by the (negated) condition.
        assert len(path) == 2
        assert all(isinstance(p, ast.BinOp) and p.op == "||" for p in path)

    def test_havoc_numbering_is_sequential_across_arms(self):
        gen, store, _ = run("havoc c; if (c > 0) { havoc a; } else { havoc b; }")
        assert store["c"] == ast.Var("c#1")
        assert store["a"].then == ast.Var("a#2")  # then-arm executes first
        assert store["b"].orelse == ast.Var("b#3")

    def test_branch_obligations_emitted_in_arm_order(self):
        gen, _, _ = run(
            "havoc c; if (c > 0) { assert(c > 1); } else { assert(c < 1); }"
        )
        goals = [ob.goal for ob in gen.obligations]
        assert goals == [
            ast.BinOp(">", ast.Var("c#1"), ast.ONE),
            ast.BinOp("<", ast.Var("c#1"), ast.ONE),
        ]
        # Each obligation's path records its own arm of the branch.
        assert gen.obligations[0].path[-1] == ast.BinOp(">", ast.Var("c#1"), ast.ZERO)
        assert gen.obligations[1].path[-1] == ast.Not(
            ast.BinOp(">", ast.Var("c#1"), ast.ZERO)
        )

    def test_branch_inside_unrolled_loop_merges_per_iteration(self):
        gen, store, _ = run(
            "i := 0; c := 0; havoc t;"
            "while (i < 2) { if (t > i) { c := c + 1; } i := i + 1; }",
            unroll_limit=4,
        )
        assert store["i"] == ast.Real(2)
        # c depends on both iterations' branch outcomes.
        assert isinstance(store["c"], ast.Ternary)

    def test_invariant_mode_havocs_only_assigned_names(self):
        gen = VCGenerator(use_invariants=True)
        store, _ = gen.run(
            parse_command(
                "x := 0; y := 7; while (x < 5) invariant x >= 0; { x := x + 1; }"
            )
        )
        assert isinstance(store["x"], ast.Var) and store["x"].name.startswith("x#")
        assert store["y"] == ast.Real(7)

    def test_prebuilt_cfg_accepted(self):
        from repro.ir import ast_to_cfg

        cfg = ast_to_cfg(parse_command("havoc x; assert(x > 0);"))
        gen = VCGenerator()
        gen.run(cfg)
        assert len(gen.obligations) == 1


def _check(checker, obligation):
    """The failure ``discharge_stream`` reports for one obligation, or None."""
    failures = checker.discharge_stream([obligation])
    return failures[0] if failures else None


class TestObligationChecker:
    """Single obligations through :class:`DischargeEngine`."""

    def test_valid_obligation_passes(self):
        gen, _, _ = run("havoc x; assume(x > 1); assert(x > 0);")
        checker = DischargeEngine(ast.TRUE, [])
        assert _check(checker, gen.obligations[0]) is None

    def test_invalid_obligation_yields_model(self):
        gen, _, _ = run("havoc x; assert(x > 0);")
        checker = DischargeEngine(ast.TRUE, [])
        failure = _check(checker, gen.obligations[0])
        assert failure is not None
        (value,) = [v for k, v in failure.arith_model.items() if k.startswith("x")]
        assert value <= 0

    def test_precondition_instantiation(self):
        gen, _, _ = run("havoc i; assert(q^o[i] <= 1);")
        psi = parse_expr("forall k :: -1 <= q^o[k] && q^o[k] <= 1")
        checker = DischargeEngine(psi, [])
        assert _check(checker, gen.obligations[0]) is None

    def test_assumptions_used(self):
        gen, _, _ = run("x := 0; assert(x <= eps);")
        assert _check(DischargeEngine(ast.TRUE, [parse_expr("eps > 0")]), gen.obligations[0]) is None
        assert _check(DischargeEngine(ast.TRUE, []), gen.obligations[0]) is not None

    def test_nonlinear_monotonicity(self):
        # count <= N ∧ eps > 0 ∧ N >= 1 ⊨ count·(eps/N) <= eps — needs the
        # monomial lemmas.
        gen, _, _ = run(
            "havoc count; havoc cost; assume(count <= N); assume(count >= 0);"
            "cost := count * (eps / N); assert(cost <= eps);"
        )
        checker = DischargeEngine(
            ast.TRUE, [parse_expr("eps > 0"), parse_expr("N >= 1")]
        )
        assert _check(checker, gen.obligations[0]) is None


class TestBindCommand:
    def test_substitutes_and_folds(self):
        cmd = parse_command("if (size > 2) { x := size * 2; }")
        bound = bind_command(cmd, {"size": Fraction(3)})
        gen = VCGenerator()
        store, _ = gen.run(bound)
        assert store["x"] == ast.Real(6)

    def test_empty_bindings_identity(self):
        cmd = parse_command("x := size;")
        assert bind_command(cmd, {}) is cmd


class TestEndToEndConfigs:
    def test_unsafe_program_refuted_with_counterexample(self):
        from repro import Pipeline

        source = """
        function Leak(eps: num<0,0>, x: num<1,1>) returns y: num<0,0>
        {
            eta := Lap(1 / eps), aligned, 5;
            y := x + eta - (x + eta);
            return y;
        }
        """
        # Alignment 5 is injective and type checks, but costs 5·eps > eps.
        config = VerificationConfig(assumptions=(parse_expr("eps > 0"),))
        result = Pipeline().run(source, config=config)
        assert not result.outcome.verified
        assert result.outcome.failures

    def test_verified_program(self):
        from repro import Pipeline

        source = """
        function Ok(eps: num<0,0>, x: num<1,1>) returns y: num<0,0>
        {
            eta := Lap(1 / eps), aligned, -1;
            y := x + eta - (x + eta);
            return y;
        }
        """
        config = VerificationConfig(assumptions=(parse_expr("eps > 0"),))
        result = Pipeline().run(source, config=config)
        assert result.outcome.verified


class TestOidStability:
    def test_registry_oids_are_pinned(self):
        """Every obligation id of the registry (unroll for every program,
        invariant for the correct ones), against a digest taken from the
        dataclass-generated ``repr`` the ids were first defined over.
        Stored verdicts are keyed by these ids, so any change to a node's
        text orphans every store."""
        import dataclasses
        import hashlib

        from repro.algorithms import all_specs
        from repro.pipeline import spec_config
        from repro.verify.verifier import iter_obligations

        oids = []
        for spec in all_specs():
            oids += [ob.oid for ob in iter_obligations(spec.target(), spec_config(spec))]
        for spec in all_specs(include_buggy=False):
            config = dataclasses.replace(spec_config(spec), mode="invariant", bindings={})
            oids += [ob.oid for ob in iter_obligations(spec.target(), config)]
        assert len(oids) == 133
        digest = hashlib.sha256("\n".join(oids).encode()).hexdigest()
        assert digest == "626b3014b8a8ca44493d8e7579bda4a8e355ffcd5dfde8fe88501145054cd3ea"
