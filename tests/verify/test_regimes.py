"""Integration tests: every registry algorithm in every regime.

These are the paper's headline results as assertions:

* all registry programs type check with only the paper's annotations;
* all transformed programs verify — bounded (unroll) and unbounded
  (invariant mode) — and the buggy variants are refuted;
* Report Noisy Max verifies with *no* manual invariants via Houdini;
* LightDP mode rejects Report Noisy Max but accepts the rest.
"""

import pytest

from repro.algorithms import all_specs, get
from repro.baselines import check_lightdp
from repro.core.errors import ShadowDPTypeError
from repro.verify.houdini import infer_invariants
from repro.verify.verifier import VerificationConfig, verify_target

CORRECT = [s.name for s in all_specs(include_buggy=False)]
BUGGY = [s.name for s in all_specs() if not s.expect_verified]


def unroll_config(spec, extra_bindings=None):
    bindings = dict(spec.fixed_bindings)
    bindings.update(extra_bindings or {})
    return VerificationConfig(
        mode="unroll", bindings=bindings, assumptions=spec.assumption_exprs(), unroll_limit=16
    )


class TestTypeChecking:
    @pytest.mark.parametrize("name", CORRECT + BUGGY)
    def test_type_checks(self, name):
        checked = get(name).checked()
        assert checked.body is not None

    def test_noisy_max_uses_shadow(self):
        assert not get("noisy_max").checked().aligned_only

    @pytest.mark.parametrize("name", [n for n in CORRECT if n != "noisy_max"])
    def test_others_are_aligned_only(self, name):
        assert get(name).checked().aligned_only


class TestUnrollRegime:
    @pytest.mark.parametrize("name", CORRECT)
    def test_verified(self, name):
        spec = get(name)
        outcome = verify_target(spec.target(), unroll_config(spec))
        assert outcome.verified, outcome.describe()

    @pytest.mark.parametrize("name", BUGGY)
    def test_buggy_refuted_with_counterexamples(self, name):
        spec = get(name)
        outcome = verify_target(spec.target(), unroll_config(spec))
        assert not outcome.verified
        assert all(f.arith_model is not None for f in outcome.failures)

    def test_svt_n1_row(self):
        # Table 1's "(N = 1)" rows: same program, N bound to 1.
        spec = get("svt")
        outcome = verify_target(spec.target(), unroll_config(spec, {"N": 1}))
        assert outcome.verified


class TestInvariantRegime:
    @pytest.mark.parametrize("name", CORRECT)
    def test_unbounded_verification(self, name):
        spec = get(name)
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
        outcome = verify_target(spec.target(), config)
        assert outcome.verified, outcome.describe()


class TestHoudini:
    @staticmethod
    def _infer(target):
        spec = get("noisy_max")
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
        result = infer_invariants(target, config, peel=1)
        assert result.outcome.verified, result.outcome.describe()
        return result

    def test_noisy_max_fully_automatic(self):
        # Strip the manual invariants and let Houdini find them.
        from repro.lang import ast as A
        from repro.target.transform import TargetProgram

        target = get("noisy_max").target()

        def strip(cmd):
            if isinstance(cmd, A.Seq):
                return A.seq(*[strip(c) for c in cmd.commands])
            if isinstance(cmd, A.If):
                return A.If(cmd.cond, strip(cmd.then), strip(cmd.orelse))
            if isinstance(cmd, A.While):
                return A.While(cmd.cond, strip(cmd.body), ())
            return cmd

        bare = TargetProgram(target.function, strip(target.body), target.cost_bound, target.aligned_only)
        assert self._infer(bare).invariants  # something was inferred

    def test_noisy_max_with_manual_invariants(self):
        self._infer(get("noisy_max").target())


class TestLightDPBaseline:
    def test_rejects_noisy_max(self):
        with pytest.raises(ShadowDPTypeError) as err:
            check_lightdp(get("noisy_max").function())
        assert err.value.reason == "lightdp-shadow"

    @pytest.mark.parametrize("name", [n for n in CORRECT if n != "noisy_max"])
    def test_accepts_aligned_only_algorithms(self, name):
        checked = check_lightdp(get(name).function())
        assert checked.aligned_only


class TestCounterexampleQuality:
    def test_bad_svt_counterexample_is_adjacent(self):
        """The refutation model must satisfy the sensitivity bounds —
        i.e. it is a genuine adjacent-inputs witness."""
        spec = get("bad_svt_no_threshold_noise")
        outcome = verify_target(spec.target(), unroll_config(spec))
        model = outcome.failures[0].arith_model
        hats = {k: v for k, v in model.items() if k.startswith("q^o[")}
        assert hats, "counterexample should mention hat offsets"
        for value in hats.values():
            assert -1 <= value <= 1
