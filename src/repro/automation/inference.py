"""Annotation-inference heuristics (paper Section 6.4).

The paper sketches how to discover the two sampling annotations
automatically:

1. **Selectors** — enumerate the branch conditions ``Ω`` of the program:
   candidates are ``°``, ``†``, ``Ω ? ° : †`` and ``Ω ? † : °``.
2. **Alignments** — simple small-integer arithmetic (``0, 1, 2``), the
   exact difference of query answers (``-q̂°[i]``), and the same guarded
   by branch conditions (``Ω ? 2 : 0``, ``Ω ? (1 - q̂°[i]) : 0``).

:func:`infer_annotations` searches the product space (cheapest
candidates first), type checks each assignment of annotations, and runs
the verifier on the survivors; the first verified assignment is
returned.  This discovers the paper's exact annotations for Report
Noisy Max and Sparse Vector with no hints.
"""

from __future__ import annotations

import dataclasses
import itertools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.errors import ShadowDPTypeError
from repro.lang import ast
from repro.lang.pretty import pretty_expr, pretty_selector
from repro.pipeline import Pipeline
from repro.verify.verifier import VerificationConfig


@dataclass
class InferenceResult:
    """The outcome of an annotation search.

    ``type_check_solves`` and ``verify_solves`` are the solver calls the
    search made in each stage, summed over every candidate, those the
    type checker rejected included.
    """

    found: bool
    annotations: Dict[str, Tuple[ast.Selector, ast.Expr]] = field(default_factory=dict)
    candidates_tried: int = 0
    type_checked: int = 0
    seconds: float = 0.0
    type_check_solves: int = 0
    verify_solves: int = 0

    def describe(self) -> str:
        work = (
            f"{self.type_check_solves} type-check solves, "
            f"{self.verify_solves} verify solves, {self.seconds:.2f}s"
        )
        if not self.found:
            return f"no annotation found ({self.candidates_tried} candidates, {work})"
        parts = [
            f"{name}: selector={pretty_selector(sel)}, align={pretty_expr(align)}"
            for name, (sel, align) in self.annotations.items()
        ]
        return (
            f"found after {self.candidates_tried} candidates "
            f"({self.type_checked} type checked, {work}): "
            + "; ".join(parts)
        )


def branch_conditions(cmd: ast.Command) -> List[ast.Expr]:
    """All ``if`` conditions in the program, in syntactic order."""
    conditions: List[ast.Expr] = []
    for node in ast.command_iter(cmd):
        if isinstance(node, ast.If) and node.cond not in conditions:
            conditions.append(node.cond)
    return conditions


def candidate_selectors(conditions: Sequence[ast.Expr]) -> List[ast.Selector]:
    """Selector pool: constants first, then branch-guarded switches."""
    pool: List[ast.Selector] = [ast.SELECT_ALIGNED, ast.SELECT_SHADOW]
    for cond in conditions:
        pool.append(ast.SelectCond(cond, ast.SELECT_SHADOW, ast.SELECT_ALIGNED))
        pool.append(ast.SelectCond(cond, ast.SELECT_ALIGNED, ast.SELECT_SHADOW))
    return pool


def candidate_alignments(
    conditions: Sequence[ast.Expr], query_terms: Sequence[ast.Expr] = ()
) -> List[ast.Expr]:
    """Alignment pool: small constants, query differences, guarded forms."""
    basics: List[ast.Expr] = [ast.ZERO, ast.ONE, ast.Real(2), ast.Real(-1)]
    for term in query_terms:
        basics.append(ast.Neg(term))
        basics.append(ast.BinOp("-", ast.ONE, term))
    pool = list(basics)
    for cond in conditions:
        for base in basics:
            if base != ast.ZERO:
                pool.append(ast.Ternary(cond, base, ast.ZERO))
    return pool


def _query_hat_terms(function: ast.FunctionDef) -> List[ast.Expr]:
    """Hat-array reads like ``q̂°[i]`` for every starred list parameter,
    indexed by each loop counter found in the body."""
    counters: List[str] = []
    for node in ast.command_iter(function.body):
        if isinstance(node, ast.Assign) and isinstance(node.expr, ast.BinOp):
            if node.expr.op == "+" and node.expr.left == ast.Var(node.name):
                if node.name not in counters:
                    counters.append(node.name)
    terms: List[ast.Expr] = []
    for param in function.params:
        typ = param.type
        if isinstance(typ, ast.ListType) and isinstance(typ.elem, ast.NumType):
            if ast.is_star(typ.elem.aligned):
                for counter in counters:
                    terms.append(ast.Index(ast.Hat(param.name, ast.ALIGNED), ast.Var(counter)))
    return terms


def _replace_annotations(
    cmd: ast.Command, table: Dict[str, Tuple[ast.Selector, ast.Expr]]
) -> ast.Command:
    if isinstance(cmd, ast.Sample) and cmd.name in table:
        selector, align = table[cmd.name]
        return ast.Sample(cmd.name, cmd.scale, selector, align)
    if isinstance(cmd, ast.Seq):
        return ast.seq(*[_replace_annotations(c, table) for c in cmd.commands])
    if isinstance(cmd, ast.If):
        return ast.If(cmd.cond, _replace_annotations(cmd.then, table), _replace_annotations(cmd.orelse, table))
    if isinstance(cmd, ast.While):
        return ast.While(cmd.cond, _replace_annotations(cmd.body, table), cmd.invariants)
    return cmd


def infer_annotations(
    function: ast.FunctionDef,
    config: Optional[VerificationConfig] = None,
    max_candidates: int = 2000,
) -> InferenceResult:
    """Search for sampling annotations making the program verify.

    The existing annotations of ``function`` are ignored; verification
    uses ``config`` (defaults to the unroll regime, so callers should
    supply concrete loop bounds in ``config.bindings``).
    """
    config = config or VerificationConfig()
    start = time.perf_counter()

    # One memoizing pipeline per search: candidates share parse-stage
    # artifacts, and re-explored annotation assignments (the selector and
    # alignment pools overlap across samples) skip straight to the cached
    # verification outcome.  A candidate is rejected at its first
    # refutation, so the rest of its obligations are never discharged.
    pipe = Pipeline(config=dataclasses.replace(config, fail_fast=True))

    samples = [c for c in ast.command_iter(function.body) if isinstance(c, ast.Sample)]
    conditions = branch_conditions(function.body)
    query_terms = _query_hat_terms(function)
    selectors = candidate_selectors(conditions)
    alignments = candidate_alignments(conditions, query_terms)

    per_sample = [
        [(sel, align) for sel in selectors for align in alignments]
        for _ in samples
    ]
    tried = 0
    checked = 0
    solves = {"check": 0, "verify": 0}
    for combo in itertools.product(*per_sample):
        tried += 1
        if tried > max_candidates:
            break
        table = {s.name: annotation for s, annotation in zip(samples, combo)}
        candidate_fn = ast.FunctionDef(
            name=function.name,
            params=function.params,
            ret_name=function.ret_name,
            ret_type=function.ret_type,
            precondition=function.precondition,
            body=_replace_annotations(function.body, table),
            cost_bound=function.cost_bound,
        )
        try:
            run = pipe.run(candidate_fn)
        except ShadowDPTypeError as err:
            solves["check"] += err.solve_calls
            continue
        checked += 1
        for stage in solves:
            stats = run.stages[stage].solver_stats  # None when memoized
            solves[stage] += stats["solve_calls"] if stats else 0
        if run.outcome.verified:
            return InferenceResult(
                found=True,
                annotations=table,
                candidates_tried=tried,
                type_checked=checked,
                seconds=time.perf_counter() - start,
                type_check_solves=solves["check"],
                verify_solves=solves["verify"],
            )
    return InferenceResult(
        found=False,
        candidates_tried=tried,
        type_checked=checked,
        seconds=time.perf_counter() - start,
        type_check_solves=solves["check"],
        verify_solves=solves["verify"],
    )
