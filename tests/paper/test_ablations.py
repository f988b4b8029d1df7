"""Ablations of the paper's design choices that no other test runs."""

import pytest

from repro.algorithms import get
from repro.verify.verifier import VerificationConfig, verify_target


@pytest.mark.parametrize("use_lemmas", [True, False])
def test_svt_needs_nonlinear_lemmas(use_lemmas):
    """Without the monomial lemmas, which stand in for the paper's hand
    rewrites of nonlinear cost updates, the general-parameter SVT proof
    fails."""
    spec = get("svt")
    config = VerificationConfig(
        mode="invariant",
        assumptions=spec.assumption_exprs(),
        use_lemmas=use_lemmas,
        collect_models=False,
    )
    assert verify_target(spec.target(), config).verified is use_lemmas


@pytest.mark.parametrize("size", [2, 4, 6])
def test_noisy_max_unroll_sweep(size):
    spec = get("noisy_max")
    config = VerificationConfig(
        mode="unroll",
        bindings={"size": size},
        assumptions=spec.assumption_exprs(),
        unroll_limit=size + 2,
        collect_models=False,
    )
    assert verify_target(spec.target(), config).verified
