"""Tests for annotation inference (Section 6.4), the empirical estimator
and the CLI."""



from repro.algorithms import get
from repro.automation.inference import (
    branch_conditions,
    candidate_alignments,
    candidate_selectors,
    infer_annotations,
)
from repro.core import checker as checker_module
from repro.empirical import estimate_epsilon_lower_bound
from repro.lang import ast
from repro.lang.parser import parse_expr
from repro.lang.pretty import pretty_expr, pretty_selector
from repro.solver.interface import ValidityChecker
from repro.verify.verifier import VerificationConfig


def _count_type_check_solves(monkeypatch):
    """Count the solver calls the type checker makes from now on."""
    solves = []

    class CountingValidityChecker(ValidityChecker):
        def _solve(self, *args):
            solves.append(1)
            return super()._solve(*args)

    monkeypatch.setattr(checker_module, "ValidityChecker", CountingValidityChecker)
    return solves


def _pretty_annotations(result):
    return {
        name: (pretty_selector(selector), pretty_expr(align))
        for name, (selector, align) in result.annotations.items()
    }


class TestCandidatePools:
    def test_branch_conditions_of_noisy_max(self):
        conditions = branch_conditions(get("noisy_max").function().body)
        assert parse_expr("q[i] + eta > bq || i == 0") in conditions

    def test_selector_pool_contains_paper_annotation(self):
        conditions = [parse_expr("w > 0")]
        pool = candidate_selectors(conditions)
        paper = ast.SelectCond(conditions[0], ast.SELECT_SHADOW, ast.SELECT_ALIGNED)
        assert paper in pool
        assert ast.SELECT_ALIGNED in pool

    def test_alignment_pool_contains_guarded_two(self):
        conditions = [parse_expr("w > 0")]
        pool = candidate_alignments(conditions)
        assert ast.Ternary(conditions[0], ast.Real(2), ast.ZERO) in pool


class TestInference:
    def test_discovers_noisy_max_annotation(self, monkeypatch):
        """Section 6.4's claim: the heuristics rediscover Ω ? † : ° with
        Ω ? 2 : 0 for Report Noisy Max."""
        solves = _count_type_check_solves(monkeypatch)
        # size = 3 matters: at size <= 2 the aligned-only annotation
        # `-q^o[i]` is genuinely sufficient (cost size*eps/2 <= eps), so
        # only from 3 queries on is the shadow execution forced.
        spec = get("noisy_max")
        config = VerificationConfig(
            mode="unroll",
            bindings={"size": 3},
            assumptions=spec.assumption_exprs(),
            unroll_limit=5,
            collect_models=False,
        )
        result = infer_annotations(spec.function(), config)
        assert result.found, result.describe()
        selector, align = result.annotations["eta"]
        # The discovered annotation must actually use the shadow execution
        # (no aligned-only annotation verifies Report Noisy Max at size 3).
        assert ast.selector_uses_shadow(selector)
        omega = "q[i] + eta > bq || i == 0"
        assert _pretty_annotations(result) == {
            "eta": (f"{omega} ? shadow : aligned", f"{omega} ? 2 : 0")
        }
        assert (result.candidates_tried, result.type_checked) == (30, 17)
        # The candidates share one query cache, and only alignments that
        # mention eta ask the solver for injectivity.
        assert len(solves) == 8
        assert result.type_check_solves == len(solves)
        assert result.verify_solves > 0
        assert "8 type-check solves" in result.describe()

    def test_discovers_svt_annotation(self, monkeypatch):
        solves = _count_type_check_solves(monkeypatch)
        spec = get("svt")
        config = VerificationConfig(
            mode="unroll",
            bindings={"size": 3, "N": 1},
            assumptions=spec.assumption_exprs(),
            unroll_limit=5,
            collect_models=False,
        )
        result = infer_annotations(spec.function(), config, max_candidates=600)
        assert result.found, result.describe()
        assert _pretty_annotations(result) == {
            "eta1": ("aligned", "0"),
            "eta2": ("aligned", "-q^o[i]"),
        }
        assert (result.candidates_tried, result.type_checked) == (7, 7)
        assert len(solves) == 0
        assert result.type_check_solves == 0

    def test_candidate_count_stops_at_the_cap(self):
        spec = get("noisy_max")
        config = VerificationConfig(
            mode="unroll",
            bindings={"size": 3},
            assumptions=spec.assumption_exprs(),
            unroll_limit=5,
            collect_models=False,
        )
        result = infer_annotations(spec.function(), config, max_candidates=2)
        assert not result.found
        assert (result.candidates_tried, result.type_checked) == (2, 2)
        assert "2 candidates" in result.describe()

    def test_no_annotation_for_broken_program(self):
        # size = 5, N = 1: per-query alignment -q^o[i] would cost
        # 5*eps/4 > eps, and without threshold noise the Ω-guarded
        # annotations cannot align the comparison — nothing verifies.
        spec = get("bad_svt_no_threshold_noise")
        config = VerificationConfig(
            mode="unroll",
            bindings={"size": 5, "N": 1},
            assumptions=spec.assumption_exprs(),
            unroll_limit=7,
            collect_models=False,
        )
        result = infer_annotations(spec.function(), config, max_candidates=60)
        assert not result.found


class TestEmpiricalEstimator:
    def test_laplace_mechanism_consistent(self):
        from repro.semantics.distributions import laplace_sample

        def mech(rng, value, eps):
            return value + laplace_sample(rng, 1.0 / eps)

        result = estimate_epsilon_lower_bound(
            mech,
            {"value": 0.0, "eps": 1.0},
            {"value": 1.0, "eps": 1.0},
            claimed_epsilon=1.0,
            trials=4000,
            digits=0,
        )
        assert not result.violates

    def test_buggy_svt_detected(self):
        # iSVT3's true epsilon is size*eps/(4N); a violation of the
        # claimed eps requires size > 4N, and eps = 4 widens the
        # per-query likelihood gap enough for statistical detection.
        # (Queries at +0.5/-0.5 form a genuinely adjacent pair.)
        spec = get("bad_svt_no_threshold_noise")
        base = {"eps": 4.0, "size": 8.0, "T": 0.0, "N": 1.0}
        inputs1 = dict(base, q=tuple([0.5] * 8))
        inputs2 = dict(base, q=tuple([-0.5] * 8))
        result = estimate_epsilon_lower_bound(
            spec.reference, inputs1, inputs2, claimed_epsilon=4.0,
            trials=12_000, digits=0,
        )
        assert result.violates, result.describe()

    def test_correct_svt_consistent(self):
        spec = get("svt")
        base = {"eps": 1.0, "size": 3.0, "T": 0.0, "N": 1.0}
        inputs1 = dict(base, q=(1.0, 0.0, -1.0))
        inputs2 = dict(base, q=(0.0, 1.0, 0.0))
        result = estimate_epsilon_lower_bound(
            spec.reference, inputs1, inputs2, claimed_epsilon=1.0, trials=4000
        )
        assert not result.violates, result.describe()


class TestCLI:
    def _write(self, tmp_path, name="noisy_max"):
        path = tmp_path / "prog.sdp"
        path.write_text(get(name).source)
        return str(path)

    def test_check(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["check", self._write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "type checks [shadow execution; 5 solver queries, 3 solves]" in out

    def test_transform(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["transform", self._write(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "havoc eta;" in out
        assert "v_eps := 0;" in out

    def test_verify(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["verify", self._write(tmp_path), "--bind", "size=3", "--assume", "eps > 0"]
        )
        assert code == 0
        assert "VERIFIED" in capsys.readouterr().out

    def test_verify_buggy_fails(self, tmp_path, capsys):
        from repro.cli import main

        path = self._write(tmp_path, "bad_svt_no_budget")
        code = main(
            ["verify", path, "--bind", "size=3", "--bind", "N=1", "--assume", "eps > 0"]
        )
        assert code == 1
        assert "REFUTED" in capsys.readouterr().out

    def test_run(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["run", self._write(tmp_path), "--input", "eps=1", "--input", "size=3",
             "--input", "q=1,2,3", "--seed", "7"]
        )
        assert code == 0
        assert "result:" in capsys.readouterr().out

    def test_type_error_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "bad.sdp"
        path.write_text(
            """
            function F(x: num<1,0>) returns y: num<0,0>
            { y := x; return y; }
            """
        )
        assert main(["check", str(path)]) == 2
        assert "error" in capsys.readouterr().err
