"""The algorithm-specification container."""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Dict, Optional, Tuple

from repro.core.checker import CheckedProgram
from repro.lang import ast
from repro.lang.parser import parse_expr
from repro.pipeline import Pipeline, spec_config
from repro.target.transform import TargetProgram
from repro.verify.verifier import VerificationConfig

#: One memoizing pipeline shared by every registry consumer: the specs
#: are module-level singletons, so tests, benches and the CLI all reuse
#: each algorithm's parse/check/lower/optimize artifacts.
_PIPELINE = Pipeline()


@dataclass
class AlgorithmSpec:
    """Everything the pipeline, benches and tests need about one algorithm.

    Attributes
    ----------
    name / paper_ref:
        Identification; ``paper_ref`` points at the table/figure.
    source:
        Annotated ShadowDP concrete syntax.  Loop invariants for the
        Hoare regime are written inline (``invariant ...;``), mirroring
        the paper's manually-supplied CPAChecker invariants.
    assumptions:
        Parameter facts (as source expressions) assumed by verification,
        e.g. ``eps > 0``; these are facts the paper's C encoding gets
        from types (unsigned ints) or harness code.
    fixed_bindings:
        Concrete parameters for the unroll/BMC regime (the paper's
        "fix ε" column; we additionally fix loop bounds, which CPAChecker
        gets from finite-state exploration).
    expect_verified:
        False for the known-buggy variants: they type check but the
        verifier must refute them.
    reference:
        Plain-Python implementation ``f(rng, **inputs) -> output`` used
        by the empirical estimator and interpreter cross-checks.
    example_inputs:
        A callable producing a representative concrete input dict.
    adjacent_offsets:
        A callable ``(inputs, rng) -> hats`` drawing a random adjacency
        witness (hat arrays) satisfying the precondition.
    """

    name: str
    paper_ref: str
    source: str
    assumptions: Tuple[str, ...] = ()
    fixed_bindings: Dict[str, Fraction] = field(default_factory=dict)
    epsilon_multiplier: int = 1
    expect_verified: bool = True
    uses_shadow: bool = False
    reference: Optional[Callable] = None
    example_inputs: Optional[Callable[[], Dict]] = None
    adjacent_offsets: Optional[Callable[[Dict, random.Random], Dict]] = None
    notes: str = ""

    # -- staged pipeline products -------------------------------------------
    #
    # Each accessor runs the shared pipeline through the corresponding
    # stage; memoization (keyed on the source hash) makes repeated calls
    # free, replacing the old per-spec attribute caches.

    def function(self) -> ast.FunctionDef:
        return _PIPELINE.run(self.source, stop_after="parse").function

    def checked(self) -> CheckedProgram:
        return _PIPELINE.run(self.source, stop_after="check").checked

    def target(self) -> TargetProgram:
        return _PIPELINE.run(self.source, stop_after="optimize").target

    def verification_config(self, unroll_limit: int = 16) -> VerificationConfig:
        """The spec's Table-1 unroll-regime configuration."""
        return spec_config(self, unroll_limit=unroll_limit)

    def assumption_exprs(self) -> Tuple[ast.Expr, ...]:
        return tuple(parse_expr(a) for a in self.assumptions)
