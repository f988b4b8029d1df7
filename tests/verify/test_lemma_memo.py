"""The engine's lemma memo must not change the lemmas a query gets.

Every call of :meth:`DischargeEngine._lemmas` is recorded and compared
with a fresh computation without the memo: a new encoder over the same
expressions, then the sign and monotonicity lemmas it implies under the
engine's assumptions.  Over every obligation of every registry row in
both regimes, and over annotation-free Houdini on ``noisy_max``, the
memoized answer must be the same lemmas in the same order.
"""

import pytest

from repro.algorithms import get, registry
from repro.lang import ast
from repro.pipeline import spec_config
from repro.solver.encode import EncodeError, Encoder
from repro.target.transform import TargetProgram
from repro.verify import lemmas as lemma_mod
from repro.verify.discharge import DischargeEngine
from repro.verify.houdini import infer_invariants
from repro.verify.verifier import VerificationConfig, prepare_generator, target_cfg


def _fresh_lemmas(engine, exprs):
    """What ``_lemmas`` answers without its memo."""
    encoder = Encoder()
    for expr in exprs:
        try:
            encoder.boolean(expr)
        except EncodeError:
            continue
    if not encoder.monomials:
        return []
    candidates = lemma_mod.relevant_vars(exprs)
    return lemma_mod.sign_lemmas(encoder, engine.assumptions) + (
        lemma_mod.monotonicity_lemmas(encoder, candidates)
    )


@pytest.fixture
def lemma_calls(monkeypatch):
    """Every ``_lemmas`` call made during the test: engine, input, answer."""
    calls = []
    memoized = DischargeEngine._lemmas

    def record(self, exprs):
        lemmas = memoized(self, exprs)
        calls.append((self, list(exprs), lemmas))
        return lemmas

    monkeypatch.setattr(DischargeEngine, "_lemmas", record)
    return calls


def _assert_like_fresh(calls):
    for engine, exprs, lemmas in calls:
        assert lemmas == _fresh_lemmas(engine, exprs)


def _registry_rows():
    rows = [(spec.name, "unroll") for spec in registry.all_specs()]
    rows += [(spec.name, "invariant") for spec in registry.all_specs(include_buggy=False)]
    return rows


@pytest.mark.parametrize("name,mode", _registry_rows())
def test_registry_lemmas_match_a_fresh_computation(name, mode, lemma_calls):
    spec = registry.get(name)
    if mode == "unroll":
        config = spec_config(spec)
    else:
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
    target = spec.target()
    generator, checker = prepare_generator(target, config)
    for obligation in generator.stream(target_cfg(target, config)):
        checker.premises_for(obligation)
    _assert_like_fresh(lemma_calls)


def _strip_invariants(cmd):
    if isinstance(cmd, ast.Seq):
        return ast.seq(*[_strip_invariants(c) for c in cmd.commands])
    if isinstance(cmd, ast.If):
        return ast.If(cmd.cond, _strip_invariants(cmd.then), _strip_invariants(cmd.orelse))
    if isinstance(cmd, ast.While):
        return ast.While(cmd.cond, _strip_invariants(cmd.body), ())
    return cmd


def test_houdini_lemmas_match_a_fresh_computation(lemma_calls):
    spec = get("noisy_max")
    target = spec.target()
    bare = TargetProgram(
        target.function, _strip_invariants(target.body), target.cost_bound, target.aligned_only
    )
    config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
    result = infer_invariants(bare, config, peel=1)
    assert result.outcome.verified
    _assert_like_fresh(lemma_calls)
    # The memo answered most of the calls that needed lemmas.
    asked = [(engine, lemmas) for engine, _, lemmas in lemma_calls if lemmas]
    engines = {id(engine): engine for engine, _ in asked}
    assert 0 < sum(len(engine._lemma_memo) for engine in engines.values()) < len(asked) // 2
