"""Unit tests for Houdini: loop peeling, round convergence, and the
equivalence of the discharge strategies (serial / incremental / parallel)."""

import pytest

from repro.algorithms import get
from repro.lang import ast
from repro.lang.parser import parse_expr
from repro.target.transform import COST_VAR, TargetProgram
from repro.verify.houdini import default_candidates, infer_invariants, peel_loops
from repro.verify.verifier import VerificationConfig, verify_target


def _loop(cond="i < 3", body="x"):
    return ast.While(parse_expr(cond), ast.Assign(body, parse_expr(f"{body} + 1")), ())


class TestPeelLoops:
    def test_zero_peels_is_identity(self):
        loop = _loop()
        assert peel_loops(loop, 0) is loop

    def test_one_peel_guards_first_iteration(self):
        loop = _loop()
        peeled = peel_loops(loop, 1)
        assert isinstance(peeled, ast.If)
        assert peeled.cond == loop.cond
        # The guarded body runs the loop body once, then the loop.
        assert isinstance(peeled.then, ast.Seq)
        assert peeled.then.commands[0] == loop.body
        assert peeled.then.commands[-1] is loop

    def test_two_peels_nest(self):
        peeled = peel_loops(_loop(), 2)
        assert isinstance(peeled, ast.If)
        inner = peeled.then.commands[-1]
        assert isinstance(inner, ast.If)
        assert isinstance(inner.then.commands[-1], ast.While)

    def test_peeling_recurses_into_seq_and_if(self):
        prog = ast.seq(
            ast.Assign("x", parse_expr("0")),
            ast.If(parse_expr("x < 1"), _loop(), ast.Skip()),
        )
        peeled = peel_loops(prog, 1)
        assert isinstance(peeled.commands[1].then, ast.If)

    def test_non_loop_commands_unchanged(self):
        cmd = ast.Assign("x", parse_expr("1"))
        assert peel_loops(cmd, 3) is cmd


def _bare_noisy_max() -> TargetProgram:
    target = get("noisy_max").target()

    def strip(cmd):
        if isinstance(cmd, ast.Seq):
            return ast.seq(*[strip(c) for c in cmd.commands])
        if isinstance(cmd, ast.If):
            return ast.If(cmd.cond, strip(cmd.then), strip(cmd.orelse))
        if isinstance(cmd, ast.While):
            return ast.While(cmd.cond, strip(cmd.body), ())
        return cmd

    return TargetProgram(
        target.function, strip(target.body), target.cost_bound, target.aligned_only
    )


class TestHoudiniRounds:
    def test_false_candidates_pruned_and_rounds_converge(self):
        # "i <= 0" holds on entry but is destroyed by the first
        # iteration; Houdini must drop it and keep the true facts.
        bare = _bare_noisy_max()
        config = VerificationConfig(
            mode="invariant", assumptions=get("noisy_max").assumption_exprs()
        )
        veps = ast.Var(COST_VAR)
        candidates = [
            ast.BinOp(">=", veps, ast.ZERO),
            ast.BinOp(">=", ast.Var("i"), ast.ZERO),
            ast.BinOp("<=", ast.Var("i"), ast.ZERO),
        ]
        result = infer_invariants(bare, config, candidates=candidates, peel=1)
        assert result.candidates_tried == 3
        assert 1 <= result.rounds < 64
        assert ast.BinOp("<=", ast.Var("i"), ast.ZERO) not in result.invariants
        assert ast.BinOp(">=", ast.Var("i"), ast.ZERO) in result.invariants

    def test_default_pool_verifies_noisy_max(self):
        bare = _bare_noisy_max()
        config = VerificationConfig(
            mode="invariant", assumptions=get("noisy_max").assumption_exprs()
        )
        result = infer_invariants(bare, config, peel=1)
        assert result.outcome.verified, result.outcome.describe()
        assert result.invariants
        # The whole run's accounting is exposed, not just the final pass.
        assert result.solver_stats["queries"] >= result.outcome.solver_queries

    def test_candidate_pool_is_deduplicated(self):
        pool = default_candidates(_bare_noisy_max())
        assert len(pool) == len(set(pool))


class TestDischargeStrategyEquivalence:
    """One-shot and incremental grouped discharge must return identical
    verdicts and identical failing obligations."""

    @pytest.mark.parametrize("name", ["bad_svt_no_budget", "bad_svt_no_threshold_noise"])
    def test_buggy_refutations_agree(self, name):
        spec = get(name)
        outcomes = {}
        for label, kwargs in {
            "oneshot": dict(incremental=False),
            "incremental": dict(incremental=True),
        }.items():
            config = VerificationConfig(
                mode="unroll",
                bindings=dict(spec.fixed_bindings),
                assumptions=spec.assumption_exprs(),
                unroll_limit=16,
                **kwargs,
            )
            outcomes[label] = verify_target(spec.target(), config)
        failed = {
            label: sorted(f.obligation.describe() for f in outcome.failures)
            for label, outcome in outcomes.items()
        }
        assert failed["oneshot"] == failed["incremental"]
        assert all(not outcome.verified for outcome in outcomes.values())
        for outcome in outcomes.values():
            assert all(f.arith_model is not None for f in outcome.failures)

    def test_correct_algorithm_agrees(self):
        spec = get("svt")
        for kwargs in (dict(incremental=False), dict(incremental=True)):
            config = VerificationConfig(
                mode="unroll",
                bindings=dict(spec.fixed_bindings),
                assumptions=spec.assumption_exprs(),
                unroll_limit=16,
                **kwargs,
            )
            outcome = verify_target(spec.target(), config)
            assert outcome.verified, outcome.describe()

    def test_refuted_check_is_single_solve(self):
        spec = get("bad_svt_no_budget")
        config = VerificationConfig(
            mode="unroll",
            bindings=dict(spec.fixed_bindings),
            assumptions=spec.assumption_exprs(),
            unroll_limit=16,
        )
        outcome = verify_target(spec.target(), config)
        assert not outcome.verified
        # Every failure got its model from the refuting solve: solve
        # calls never exceed queries (the pre-PR code solved twice).
        assert outcome.solve_calls <= outcome.solver_queries
