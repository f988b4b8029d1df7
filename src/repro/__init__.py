"""repro — a full reproduction of *Proving Differential Privacy with
Shadow Execution* (Wang, Ding, Wang, Kifer, Zhang — PLDI 2019).

The package implements the complete ShadowDP pipeline as five named,
individually runnable stages — ``parse → check → lower → optimize →
verify`` — behind the staged :class:`~repro.pipeline.Pipeline` API:

>>> from repro import Pipeline
>>> pipe = Pipeline()                       # doctest: +SKIP
>>> run = pipe.run(SOURCE)                  # doctest: +SKIP
>>> run.verified                            # doctest: +SKIP
True
>>> run.stages["check"].solver_queries      # doctest: +SKIP
42

Each stage produces a :class:`~repro.pipeline.StageResult` (artifact,
wall-clock seconds, solver-query count); stages are memoized on the
source hash, and :meth:`~repro.pipeline.Pipeline.run_many` batches the
whole algorithm registry through one shared cache.  A one-shot run is
``Pipeline().run(source, config=...)``.

Layers (bottom-up):

* :mod:`repro.lang` — the ShadowDP language (Fig. 3): AST, parser,
  pretty printer.
* :mod:`repro.solver` — a from-scratch SMT solver for QF_LRA (CDCL SAT +
  Dutertre–de Moura simplex), replacing Z3.
* :mod:`repro.core` — the flow-sensitive type system with shadow
  execution (Fig. 4), emitting instrumented programs (the ``check``
  stage).
* :mod:`repro.target` — lowering to the non-probabilistic target
  language with the explicit privacy cost ``v_eps`` (Fig. 5) plus
  dead hat-store elimination (the ``lower`` and ``optimize`` stages).
* :mod:`repro.verify` — the safety verifier replacing CPAChecker:
  unrolling, invariant-based Hoare reasoning, Houdini inference and
  counterexample extraction (the ``verify`` stage).
* :mod:`repro.pipeline` — the staged ``Pipeline`` API wiring the stages
  together with per-stage timing, accounting and memoization.
* :mod:`repro.semantics` — executable semantics, including a relational
  validator for the soundness theorem.
* :mod:`repro.algorithms` — all nine Table-1 case studies plus buggy
  SVT variants.
* :mod:`repro.baselines`, :mod:`repro.automation`, :mod:`repro.empirical`
  — the LightDP restriction, annotation inference (Section 6.4) and a
  statistical ε estimator.
"""

from repro.core.checker import CheckedProgram, check_function
from repro.core.errors import ShadowDPError, ShadowDPTypeError
from repro.lang.parser import parse_function
from repro.pipeline import (
    STAGES,
    Pipeline,
    PipelineError,
    PipelineRun,
    StageResult,
)
from repro.target.transform import TargetProgram, to_target
from repro.verify.verifier import VerificationConfig, VerificationOutcome, verify_target

__version__ = "1.2.0"

__all__ = [
    "__version__",
    "Pipeline",
    "PipelineRun",
    "PipelineError",
    "StageResult",
    "STAGES",
    "parse_function",
    "check_function",
    "to_target",
    "verify_target",
    "VerificationConfig",
    "VerificationOutcome",
    "CheckedProgram",
    "TargetProgram",
    "ShadowDPError",
    "ShadowDPTypeError",
]
