"""Houdini-style conjunctive invariant inference.

The classic algorithm: start from a pool of candidate invariants, check
all entry/preservation obligations, drop every candidate that fails, and
repeat until the surviving set is inductive.  The survivors are then
used for a full invariant-mode verification including the program's
assertions.

Loop *peeling* (executing the first iteration outside the loop) is
available because several alignment invariants only hold from the first
iteration onward — e.g. Report Noisy Max needs ``1 ≤ b̂q° ∧ -1 ≤ b̂q† ≤ 1``,
which is false in the initial state but established by iteration one.
With one peel, the pool below suffices to verify Report Noisy Max with
*no manual invariants at all*.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.simplify import simplify
from repro.lang import ast
from repro.solver.context import QueryCache
from repro.target.transform import COST_VAR, TargetProgram
from repro.verify.discharge import EventSink, RoundFinished
from repro.verify.verifier import (
    ObligationChecker,
    VerificationConfig,
    VerificationOutcome,
    ObligationFailure,
    bind_command,
    bind_expr,
    _bind_psi,
)
from repro.verify.vcgen import Obligation, VCGenerator

_MAX_ROUNDS = 64


@dataclass
class HoudiniResult:
    """Surviving invariants plus the final verification outcome.

    ``solver_stats`` aggregates the whole run — pruning rounds *and*
    final verification — while ``outcome`` carries the final
    verification's own accounting."""

    invariants: Tuple[ast.Expr, ...]
    outcome: VerificationOutcome
    rounds: int
    candidates_tried: int
    solver_stats: Dict[str, int] = field(default_factory=dict)


def peel_loops(cmd: ast.Command, times: int) -> ast.Command:
    """Unroll the first ``times`` iterations of every loop into guards."""
    if times <= 0:
        return cmd
    if isinstance(cmd, ast.Seq):
        return ast.seq(*[peel_loops(c, times) for c in cmd.commands])
    if isinstance(cmd, ast.If):
        return ast.If(cmd.cond, peel_loops(cmd.then, times), peel_loops(cmd.orelse, times))
    if isinstance(cmd, ast.While):
        inner: ast.Command = cmd
        for _ in range(times):
            inner = ast.If(cmd.cond, ast.seq(cmd.body, inner))
        return inner
    return cmd


# ---------------------------------------------------------------------------
# Candidate generation
# ---------------------------------------------------------------------------


def default_candidates(target: TargetProgram, bindings: Dict = None) -> List[ast.Expr]:
    """A template pool fitted to ShadowDP target programs.

    Shapes: privacy-cost bounds (``v_eps <= bound``, half bound, and
    ``base + counter·increment`` forms built from the cost increments
    actually occurring in the program), hat-variable interval bounds
    (distances of sensitivity-1 queries live in small integer ranges),
    and counter bounds harvested from loop guards.
    """
    body = bind_command(target.body, bindings or {})
    bound = bind_expr(target.cost_bound, bindings or {})
    candidates: List[ast.Expr] = []
    veps = ast.Var(COST_VAR)

    candidates.append(ast.BinOp("<=", veps, bound))
    candidates.append(ast.BinOp("<=", veps, ast.BinOp("/", bound, ast.Real(2))))
    candidates.append(ast.BinOp(">=", veps, ast.ZERO))

    counters = _counters(body)
    increments = _cost_increments(body)
    for counter in sorted(counters):
        candidates.append(ast.BinOp(">=", ast.Var(counter), ast.ZERO))
        for limit in _guard_limits(body, counter):
            candidates.append(ast.BinOp("<=", ast.Var(counter), limit))
        for base in [ast.ZERO] + increments:
            for step in increments:
                candidates.append(
                    ast.BinOp(
                        "<=",
                        veps,
                        ast.BinOp("+", base, ast.BinOp("*", ast.Var(counter), step)),
                    )
                )

    for hat in sorted(_hat_names(body)):
        base, _, version = hat.rpartition("^")
        node = ast.Hat(base, version)
        for low, high in [(-1, 1), (-2, 2)]:
            candidates.append(ast.BinOp(">=", node, ast.Real(low)))
            candidates.append(ast.BinOp("<=", node, ast.Real(high)))
        candidates.append(ast.BinOp(">=", node, ast.ONE))
        candidates.append(ast.BinOp("<=", node, ast.ZERO))
        candidates.append(ast.BinOp(">=", node, ast.ZERO))

    # Deduplicate, preserving order.
    seen: Set[ast.Expr] = set()
    unique = []
    for cand in candidates:
        cand = simplify(cand)
        if cand not in seen and cand != ast.TRUE:
            seen.add(cand)
            unique.append(cand)
    return unique


def _counters(cmd: ast.Command) -> Set[str]:
    """Variables incremented by a constant inside loops (i, count, ...)."""
    found: Set[str] = set()
    for node in ast.command_iter(cmd):
        if isinstance(node, ast.Assign) and isinstance(node.expr, ast.BinOp):
            expr = node.expr
            if expr.op == "+" and expr.left == ast.Var(node.name) and isinstance(expr.right, ast.Real):
                found.add(node.name)
    return found


def _guard_limits(cmd: ast.Command, counter: str) -> List[ast.Expr]:
    """Upper limits ``counter < L`` appearing in loop guards → ``counter <= L``."""
    limits: List[ast.Expr] = []
    for node in ast.command_iter(cmd):
        if isinstance(node, ast.While):
            for part in _conjuncts(node.cond):
                if (
                    isinstance(part, ast.BinOp)
                    and part.op in ("<", "<=")
                    and part.left == ast.Var(counter)
                ):
                    limits.append(part.right)
    return limits


def _conjuncts(expr: ast.Expr) -> List[ast.Expr]:
    if isinstance(expr, ast.BinOp) and expr.op == "&&":
        return _conjuncts(expr.left) + _conjuncts(expr.right)
    return [expr]


def _cost_increments(cmd: ast.Command) -> List[ast.Expr]:
    """The terms ever added to ``v_eps`` (ternary arms flattened)."""
    increments: List[ast.Expr] = []

    def addends(expr: ast.Expr) -> None:
        if isinstance(expr, ast.Ternary):
            addends(expr.then)
            addends(expr.orelse)
            return
        if isinstance(expr, ast.BinOp) and expr.op == "+":
            addends(expr.left)
            addends(expr.right)
            return
        if expr == ast.Var(COST_VAR) or expr == ast.ZERO:
            return
        if expr not in increments:
            increments.append(expr)

    for node in ast.command_iter(cmd):
        if isinstance(node, ast.Assign) and node.name == COST_VAR:
            addends(node.expr)
    return increments


def _hat_names(cmd: ast.Command) -> Set[str]:
    names: Set[str] = set()
    for node in ast.command_iter(cmd):
        if isinstance(node, ast.Assign) and "^" in node.name and "[" not in node.name:
            names.add(node.name)
    return names


# ---------------------------------------------------------------------------
# The Houdini loop
# ---------------------------------------------------------------------------


def _is_candidate_obligation(obligation: Obligation) -> bool:
    """Entry/preservation obligations of Houdini-injected candidates.

    Program-annotated invariants are not pruned."""
    if obligation.tag not in ("invariant-entry", "invariant-preserved"):
        return False
    label = obligation.label
    return isinstance(label, tuple) and label[0] == "extra"


def infer_invariants(
    target: TargetProgram,
    config: Optional[VerificationConfig] = None,
    candidates: Optional[Sequence[ast.Expr]] = None,
    peel: int = 1,
    cache: Optional[QueryCache] = None,
    on_event: EventSink = None,
) -> HoudiniResult:
    """Run Houdini and verify the program with the surviving invariants.

    One :class:`QueryCache` spans the whole run: obligations whose goal
    and premises survive from one pruning round to the next (loop-entry
    obligations of surviving candidates in particular) are answered
    once, and the final full verification replays the last round's
    queries out of the cache instead of re-solving them.

    Pruning rounds and the final verification discharge through the
    first-class API (:mod:`repro.verify.discharge`): the backend
    ``config.incremental`` selects schedules the obligation units, and
    ``on_event`` receives the typed :class:`DischargeEvent` stream —
    unit/obligation events from every discharge plus a
    :class:`RoundFinished` per pruning round.
    """
    config = config or VerificationConfig(mode="invariant")
    pool = list(candidates) if candidates is not None else default_candidates(target, config.bindings)
    total = len(pool)

    body = peel_loops(bind_command(target.body, config.bindings), peel)
    psi = _bind_psi(target.function.precondition, config.bindings)
    assumptions = [bind_expr(a, config.bindings) for a in config.assumptions]
    cache = cache if cache is not None else QueryCache()
    checker = ObligationChecker(
        psi,
        assumptions,
        use_lemmas=config.use_lemmas,
        collect_models=False,
        cache=cache,
        incremental=config.incremental,
    )

    surviving = list(pool)
    rounds = 0
    for rounds in range(1, _MAX_ROUNDS + 1):
        generator = VCGenerator(use_invariants=True, extra_invariants=tuple(surviving))
        generator.run(body)
        bad: Set[int] = set()
        # Batched discharge makes each refuting model prune *every*
        # candidate it falsifies in one solve — the seed's per-candidate
        # skip loop is subsumed by the conjoined check's refinement.
        checker.check_all(
            [ob for ob in generator.obligations if _is_candidate_obligation(ob)],
            on_failure=lambda ob: bad.add(ob.label[1]),
            emit=on_event,
        )
        if on_event is not None:
            on_event(RoundFinished(rounds, len(bad), len(surviving) - len(bad)))
        if not bad:
            break
        surviving = [inv for k, inv in enumerate(surviving) if k not in bad]

    # Final full verification (asserts included) with the inductive set.
    # The invariant obligations were all checked in the last pruning
    # round with identical premises, so they come out of the cache; only
    # the program's own assertions still reach the solver.
    start = time.perf_counter()
    generator = VCGenerator(use_invariants=True, extra_invariants=tuple(surviving))
    generator.run(body)
    final_checker = ObligationChecker(
        psi,
        assumptions,
        use_lemmas=config.use_lemmas,
        collect_models=config.collect_models,
        cache=cache,
        incremental=config.incremental,
    )
    # Pruning rounds always run their full plan — every refutation is
    # pruning signal, not failure — but the final verification honours
    # ``fail_fast``: refuting one program assertion is enough to reject.
    failures: List[ObligationFailure] = final_checker.discharge_stream(
        generator.obligations, emit=on_event, fail_fast=config.fail_fast
    )
    stats = final_checker.solver_stats()
    run_stats = checker.solver_stats()
    run_stats.merge(stats)
    outcome = VerificationOutcome(
        verified=not failures,
        obligations_total=len(generator.obligations),
        failures=failures,
        seconds=time.perf_counter() - start,
        solver_queries=stats.queries,
        cache_hits=stats.cache_hits,
        solve_calls=stats.solve_calls,
        context_pushes=stats.pushes,
        context_pops=stats.pops,
        backend=final_checker.backend.name,
        units=final_checker.units_run,
        early_exit=final_checker.early_exited,
    )
    return HoudiniResult(
        invariants=tuple(surviving),
        outcome=outcome,
        rounds=rounds,
        candidates_tried=total,
        solver_stats=run_stats.to_dict(),
    )
