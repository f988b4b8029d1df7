"""The verification façade: discharge obligations through the SMT solver.

``verify_target`` plays the role CPAChecker plays in the paper's
pipeline (Section 6.1): it takes the transformed, non-probabilistic
program and proves that no assertion — in particular the final
``assert(v_eps <= bound)`` — can fail for any input satisfying the
adjacency precondition.  By Theorem 2 this establishes ε-differential
privacy of the source program.

The discharge machinery itself is the first-class API in
:mod:`repro.verify.discharge`: the symbolic executor streams
:class:`~repro.verify.vcgen.Obligation`\\ s with provenance, a
:class:`~repro.verify.discharge.DischargePlan` partitions the stream
into addressable units, and a
:class:`~repro.verify.discharge.DischargeEngine` discharges them in plan
order, each under one solver context, while emitting a typed
:class:`DischargeEvent` stream.  This module wires a
:class:`VerificationConfig` to that API.

Three regimes mirror the paper's Table 1 columns:

* ``mode="unroll"`` with concrete loop bounds — the "fix ε / fixed N"
  regime (also the bug-finding mode: failing obligations come back with
  concrete counterexample models);
* ``mode="invariant"`` — unbounded proofs from loop invariants (the
  paper supplies these manually when CPAChecker's abstraction fails);
* Houdini (see :mod:`repro.verify.houdini`) — inferring the invariants
  from a template pool, for annotation-free unbounded proofs.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterator, List, Optional, Tuple, Union

from repro.core.simplify import simplify
from repro.ir import ast_to_cfg, fold_constant_guards
from repro.lang import ast
from repro.solver import intern
from repro.solver.context import QueryCache
from repro.target.transform import TargetProgram
from repro.verify.discharge import DischargeEngine, EventSink, ObligationFailure
from repro.verify.store import ObligationStore, resolve_store
from repro.verify.vcgen import Obligation, VCGenerator


@dataclass
class VerificationConfig:
    """How to verify a target program.

    ``bindings`` substitutes concrete rationals for parameters (e.g.
    ``{"size": 5, "N": 1, "eps": 1}``) before execution — the paper's
    "fix ε" regime and the way loops become boundedly unrollable.
    ``assumptions`` are extra premises about the (remaining symbolic)
    parameters, e.g. ``eps > 0``.

    Discharge groups obligations into path-prefix units, each
    discharged on the caller's thread under one solver context with
    conjoined goals.  ``fail_fast`` stops scheduling work units after
    the first refutation.
    """

    mode: str = "unroll"  # "unroll" | "invariant"
    bindings: Dict[str, Fraction] = field(default_factory=dict)
    assumptions: Tuple[ast.Expr, ...] = ()
    unroll_limit: int = 64
    use_lemmas: bool = True
    collect_models: bool = True
    fail_fast: bool = False
    #: Attach the inner-loop :class:`SolverProfile` counters (pivots,
    #: propagations, conflicts, restarts, interned-node hits…) to the
    #: outcome.  Collection is always on; this flag controls reporting.
    profile: bool = False
    #: Cooperative cancellation: when this event is set, discharge stops
    #: at the next unit/chunk boundary with
    #: :class:`~repro.verify.discharge.DischargeCancelled` (per-request
    #: timeouts and drain in ``repro serve``).  Not part of the memo
    #: fingerprint — cancelling one request must not fork the cache.
    cancel_event: Optional[threading.Event] = None
    #: Persistent cross-run obligation store: a path (str), a ready
    #: :class:`~repro.verify.store.ObligationStore` instance (the
    #: server's shared store), or None (disabled — the default).
    #: Verdicts are consulted by ``(oid, premise fingerprint)`` before
    #: any solve and recorded after clean complete runs; see
    #: ``docs/cache.md``.  *Is* part of the memo fingerprint — runs with
    #: different stores must not share one memo entry.
    store: Optional[Union[str, ObligationStore]] = None
    #: Emit a machine-checkable proof certificate for every ``valid``
    #: verdict (see :mod:`repro.witness` and ``docs/witness.md``).
    #: Certificates are collected on the checker, persisted alongside
    #: store verdicts, and re-validated on warm store hits — a hit whose
    #: certificate fails the trusted kernel degrades to a counted
    #: re-solve.  Off by default: the recording hooks sit on conflict
    #: paths only, but emission still costs a snapshot per UNSAT answer.
    witness: bool = False


@dataclass
class VerificationOutcome:
    """The verdict plus accounting.

    ``solver_queries`` counts entailment questions asked;
    ``cache_hits`` how many were answered from the shared query cache;
    ``solve_calls`` the DPLL(T) solves actually executed (each refuted
    obligation costs exactly one — the countermodel comes from the
    refuting solve).  ``context_pushes``/``context_pops`` count
    solver-context scope traffic; ``units`` records the discharge units
    run, and ``early_exit`` whether ``fail_fast`` stopped discharge
    before the full plan ran.
    """

    verified: bool
    obligations_total: int
    failures: List[ObligationFailure]
    seconds: float
    solver_queries: int = 0
    cache_hits: int = 0
    solve_calls: int = 0
    context_pushes: int = 0
    context_pops: int = 0
    units: int = 0
    early_exit: bool = False
    #: Inner-loop counters (see :class:`SolverProfile`), attached when the
    #: configuration asked for profiling.
    profile: Optional[Dict[str, int]] = None
    #: The content-derived ids of every obligation the run generated, in
    #: stream order — the addressable names the service layer reports
    #: (and the determinism property compares) without re-walking the
    #: program.  None on legacy construction paths.
    oids: Optional[List[str]] = None
    #: Persistent-store traffic for this run (hits/misses/writes/invalid
    #: plus the entry count), when a store was configured.
    store: Optional[Dict[str, int]] = None
    #: How many proof certificates the run collected (fresh emissions
    #: plus validated warm hits).  None when witnesses were off.
    witnesses: Optional[int] = None

    def describe(self) -> str:
        status = "VERIFIED" if self.verified else "REFUTED"
        text = (
            f"{status}: {self.obligations_total} obligations, "
            f"{len(self.failures)} failed, {self.seconds:.3f}s"
        )
        if self.early_exit:
            text += " (early exit)"
        return text

    def solver_stats(self) -> Dict[str, int]:
        stats = {
            "queries": self.solver_queries,
            "cache_hits": self.cache_hits,
            "solve_calls": self.solve_calls,
            "pushes": self.context_pushes,
            "pops": self.context_pops,
            "units": self.units,
        }
        if self.profile is not None:
            stats["profile"] = dict(self.profile)
        if self.store is not None:
            stats["store"] = dict(self.store)
        if self.witnesses is not None:
            stats["witnesses"] = self.witnesses
        return stats


# ---------------------------------------------------------------------------
# Parameter binding
# ---------------------------------------------------------------------------


def bind_expr(expr: ast.Expr, bindings: Dict[str, Fraction]) -> ast.Expr:
    mapping = {ast.Var(name): ast.Real(value) for name, value in bindings.items()}
    return simplify(ast.substitute(expr, mapping))


def bind_command(cmd: ast.Command, bindings: Dict[str, Fraction]) -> ast.Command:
    """Substitute concrete parameter values throughout a target command."""
    if not bindings:
        return cmd
    if isinstance(cmd, (ast.Skip, ast.Havoc)):
        return cmd
    if isinstance(cmd, ast.Assign):
        return ast.Assign(cmd.name, bind_expr(cmd.expr, bindings))
    if isinstance(cmd, ast.Seq):
        return ast.seq(*[bind_command(c, bindings) for c in cmd.commands])
    if isinstance(cmd, ast.If):
        return ast.If(
            bind_expr(cmd.cond, bindings),
            bind_command(cmd.then, bindings),
            bind_command(cmd.orelse, bindings),
        )
    if isinstance(cmd, ast.While):
        return ast.While(
            bind_expr(cmd.cond, bindings),
            bind_command(cmd.body, bindings),
            tuple(bind_expr(i, bindings) for i in cmd.invariants),
        )
    if isinstance(cmd, ast.Return):
        return ast.Return(bind_expr(cmd.expr, bindings))
    if isinstance(cmd, ast.Assert):
        return ast.Assert(bind_expr(cmd.expr, bindings))
    if isinstance(cmd, ast.Assume):
        return ast.Assume(bind_expr(cmd.expr, bindings))
    raise TypeError(f"bind_command: unknown command {cmd!r}")


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def prepare_generator(
    target: TargetProgram,
    config: VerificationConfig,
    cache: Optional[QueryCache] = None,
) -> Tuple[VCGenerator, DischargeEngine]:
    """The configured symbolic executor and discharge engine for one run.

    Shared by :func:`verify_target`, :func:`iter_obligations` and the
    CLI's ``repro obligations`` listing: parameters are bound, the body
    CFG is built and constant guards are folded (statically-dead
    branches never generate obligations), and the checker carries Ψ,
    the assumptions and ``cache`` (a fresh
    :class:`QueryCache` when None).
    """
    psi = _bind_psi(target.function.precondition, config.bindings)
    assumptions = [bind_expr(a, config.bindings) for a in config.assumptions]
    assumptions = [a for a in assumptions if a != ast.TRUE]

    generator = VCGenerator(
        unroll_limit=config.unroll_limit,
        use_invariants=(config.mode == "invariant"),
    )
    checker = DischargeEngine(
        psi,
        assumptions,
        use_lemmas=config.use_lemmas,
        collect_models=config.collect_models,
        cache=cache,
        cancel_event=config.cancel_event,
        store=resolve_store(config.store),
        witness=config.witness,
    )
    return generator, checker


def target_cfg(target: TargetProgram, config: VerificationConfig):
    """The bound, guard-folded CFG the symbolic executor runs."""
    body = bind_command(target.body, config.bindings)
    cfg = ast_to_cfg(body)
    # Statically-constant guards (usually produced by parameter binding)
    # are folded before execution, so dead obligations are never
    # generated.  Constant-false loops are only removable in unroll
    # mode: invariant mode emits entry/preservation obligations even
    # for loops whose guard is never true.
    return fold_constant_guards(cfg, fold_loops=(config.mode != "invariant"))


def iter_obligations(
    target: TargetProgram, config: Optional[VerificationConfig] = None
) -> Iterator[Obligation]:
    """Stream a target's obligations, with provenance, without solving.

    Backs the ``repro obligations`` CLI subcommand and any tooling that
    wants to inspect or partition the obligation space.
    """
    config = config or VerificationConfig()
    generator, _ = prepare_generator(target, config)
    yield from generator.stream(target_cfg(target, config))


def verify_target(
    target: TargetProgram,
    config: Optional[VerificationConfig] = None,
    cache: Optional[QueryCache] = None,
    on_event: EventSink = None,
) -> VerificationOutcome:
    """Verify that every assertion of ``target`` always holds.

    ``cache`` is an optional shared :class:`QueryCache`; the pipeline
    passes one per batch so repeated obligations across programs,
    bindings and Houdini rounds are answered once.  ``on_event``
    receives the typed :class:`DischargeEvent` stream as units are
    scheduled and obligations discharged.
    """
    config = config or VerificationConfig()
    start = time.perf_counter()
    intern_hits_before, intern_misses_before = intern.counters()

    generator, checker = prepare_generator(target, config, cache)
    store_before = checker.store.snapshot() if checker.store is not None else None
    try:
        stream = generator.stream(target_cfg(target, config))
        failures = checker.discharge_stream(
            stream, emit=on_event, fail_fast=config.fail_fast
        )
        stats = checker.solver_stats()
        store_stats: Optional[Dict[str, int]] = None
        if checker.store is not None:
            # Delta, not cumulative: the server shares one store across
            # requests and each outcome reports its own traffic.
            store_stats = checker.store.delta_since(store_before)
            store_stats["entries"] = checker.store.entry_count()
            if checker.store.degraded:
                store_stats["degraded"] = True
    finally:
        if checker.store is not None and checker.store is not config.store:
            # Opened from a path for this run alone; a caller's instance
            # (the server's shared store) stays open.
            checker.store.close()

    profile_dict: Optional[Dict[str, int]] = None
    if config.profile:
        profile = checker.profile_totals()
        intern_hits, intern_misses = intern.counters()
        profile.intern_hits = intern_hits - intern_hits_before
        profile.intern_misses = intern_misses - intern_misses_before
        profile_dict = profile.to_dict()

    return VerificationOutcome(
        verified=not failures,
        obligations_total=len(generator.obligations),
        failures=failures,
        seconds=time.perf_counter() - start,
        solver_queries=stats.queries,
        cache_hits=stats.cache_hits,
        solve_calls=stats.solve_calls,
        context_pushes=stats.pushes,
        context_pops=stats.pops,
        units=checker.units_run,
        early_exit=checker.early_exited,
        profile=profile_dict,
        oids=[ob.oid for ob in generator.obligations],
        store=store_stats,
        witnesses=len(checker.certificates) if config.witness else None,
    )


def _bind_psi(psi: ast.Expr, bindings: Dict[str, Fraction]) -> ast.Expr:
    if not bindings:
        return psi
    # Quantified variables shadow bindings of the same name.
    mapping = {ast.Var(name): ast.Real(value) for name, value in bindings.items()}
    return simplify(ast.substitute(psi, mapping))
