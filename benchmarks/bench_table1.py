"""Table 1 benchmark: type checking and verification per algorithm.

``pytest benchmarks/bench_table1.py --benchmark-only`` times each row's
type check and both verification regimes; the final test prints the
assembled table (compare against the paper's Table 1; ``perfbench/run.py
--workload table1`` times the same rows end to end and per layer).
"""

import pytest

from repro.algorithms import TABLE1_ORDER, get
from repro.algorithms.table1 import generate_table1, render_table1
from repro.core.checker import check_function
from repro.verify.verifier import VerificationConfig, verify_target

ROWS = [(name, extra, f"{name}{'_n1' if extra else ''}") for name, extra in TABLE1_ORDER]


@pytest.mark.parametrize("name,extra,row_id", ROWS, ids=[r[2] for r in ROWS])
def test_typecheck_time(benchmark, name, extra, row_id):
    spec = get(name)
    function = spec.function()
    result = benchmark.pedantic(lambda: check_function(function), rounds=3, iterations=1)
    assert result.body is not None


@pytest.mark.parametrize("name,extra,row_id", ROWS, ids=[r[2] for r in ROWS])
def test_verification_time_invariant_regime(benchmark, name, extra, row_id):
    spec = get(name)
    target = spec.target()
    config = VerificationConfig(
        mode="invariant",
        bindings=dict(extra or {}),
        assumptions=spec.assumption_exprs(),
    )
    outcome = benchmark.pedantic(lambda: verify_target(target, config), rounds=1, iterations=1)
    assert outcome.verified, outcome.describe()


@pytest.mark.parametrize("name,extra,row_id", ROWS, ids=[r[2] for r in ROWS])
def test_verification_time_fixed_regime(benchmark, name, extra, row_id):
    spec = get(name)
    target = spec.target()
    bindings = dict(spec.fixed_bindings)
    bindings.update(extra or {})
    config = VerificationConfig(
        mode="unroll",
        bindings=bindings,
        assumptions=spec.assumption_exprs(),
        unroll_limit=16,
    )
    outcome = benchmark.pedantic(lambda: verify_target(target, config), rounds=1, iterations=1)
    assert outcome.verified, outcome.describe()


def test_print_table1(capsys):
    """Assemble and print the full table (the paper's Table 1 shape)."""
    rows = generate_table1()
    with capsys.disabled():
        print()
        print(render_table1(rows))
    assert all(row.verified for row in rows)
    # Shape claims of the paper: everything within seconds, and far below
    # the coupling-based verifier's quoted times.
    for row in rows:
        assert row.typecheck_seconds < 3.0
        assert row.fixed_seconds < 60.0
        if row.coupling_seconds and row.invariant_seconds:
            assert row.invariant_seconds < row.coupling_seconds
