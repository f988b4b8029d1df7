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
into addressable units, and a :class:`DischargeBackend` (serial or
one-shot) schedules them while emitting a typed
:class:`DischargeEvent` stream.  This module wires a
:class:`VerificationConfig` to that API and keeps the legacy
:class:`ObligationChecker` surface (``check`` / ``check_all``) on top
of it.

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core.simplify import simplify
from repro.ir import ast_to_cfg, fold_constant_guards
from repro.lang import ast
from repro.solver import intern
from repro.solver.context import QueryCache
from repro.target.transform import TargetProgram
from repro.verify.discharge import (
    DischargeEngine,
    DischargePlan,
    DischargeUnit,
    EarlyExit,
    EventSink,
    ObligationDischarged,
    ObligationFailure,
    ObligationRefuted,
)
from repro.verify.store import ObligationStore, resolve_store
from repro.verify.vcgen import Obligation, VCGenerator
from repro.witness import Certificate, trim_certificate

#: The pseudo-unit id store-served verdicts are reported under in the
#: event stream (they never reach a real discharge unit).
STORE_UNIT = "store"


@dataclass
class VerificationConfig:
    """How to verify a target program.

    ``bindings`` substitutes concrete rationals for parameters (e.g.
    ``{"size": 5, "N": 1, "eps": 1}``) before execution — the paper's
    "fix ε" regime and the way loops become boundedly unrollable.
    ``assumptions`` are extra premises about the (remaining symbolic)
    parameters, e.g. ``eps > 0``.

    Discharge strategy: ``incremental`` (the default) groups
    obligations into path-prefix units, each discharged under one
    solver context with conjoined goals; ``incremental=False`` asks a
    fresh solver per obligation.  Both run on the caller's thread and
    give the same verdicts.  ``fail_fast`` stops scheduling work units
    after the first refutation.
    """

    mode: str = "unroll"  # "unroll" | "invariant"
    bindings: Dict[str, Fraction] = field(default_factory=dict)
    assumptions: Tuple[ast.Expr, ...] = ()
    unroll_limit: int = 64
    extra_invariants: Tuple[ast.Expr, ...] = ()
    use_lemmas: bool = True
    collect_models: bool = True
    incremental: bool = True
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
    incremental scope traffic; ``backend``/``units`` record the
    discharge strategy and the units it ran, and ``early_exit`` whether
    ``fail_fast`` stopped it before the full plan ran.
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
    backend: str = "serial"
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
            "backend": self.backend,
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
# Obligation discharge
# ---------------------------------------------------------------------------


class ObligationChecker(DischargeEngine):
    """The configured discharge engine plus the legacy checking surface.

    ``incremental`` selects the strategy (see
    :attr:`~repro.verify.discharge.DischargeEngine.backend`):

    * **serial** (default) — obligations are grouped into path-prefix
      units; each unit's premises (assumptions + path base) are
      asserted once into a :class:`SolverContext` and every member is
      checked under one pushed scope, goals conjoined with model-guided
      refinement.
    * **oneshot** — ``incremental=False`` restores a fresh solver per
      query (still single-solve and cache-backed).

    Both strategies are sound and agree on every genuine verdict.  The
    conjoined check asserts the *union* of its chunk's premise
    extensions — all valid facts — so it can additionally prove goals
    the one-shot abstraction spuriously refutes (strictly more
    complete, never less sound); refutations always come with a
    concrete countermodel and are identical across strategies.
    """

    # -- discharge -------------------------------------------------------------

    def check(self, obligation: Obligation) -> Optional[ObligationFailure]:
        """None when the obligation is valid, a failure record otherwise."""
        return self.check_one(obligation)

    def discharge_stream(
        self,
        obligations,
        skip: Optional[Callable[[Obligation], bool]] = None,
        on_failure: Optional[Callable[[Obligation], None]] = None,
        batch: bool = True,
        emit: EventSink = None,
        fail_fast: bool = False,
    ) -> List[ObligationFailure]:
        """Discharge an obligation stream; failures in stream order.

        ``skip`` is consulted just before each obligation is checked and
        ``on_failure`` fires as refutations are found — together they let
        Houdini prune a candidate's remaining obligations mid-batch
        (``skip`` implies per-obligation discharge).  ``batch`` enables
        conjoined unit discharge.  ``emit`` receives the typed
        :class:`DischargeEvent` stream; ``fail_fast`` stops scheduling
        units after the first refutation.

        With a persistent store configured (and no Houdini-style
        callbacks, whose verdicts are about *candidates*, not the
        program), each streamed obligation is first looked up by
        ``(oid, fingerprint)``: hits are reported under the pseudo-unit
        ``"store"`` without ever reaching the plan, misses flow into
        discharge as usual, and a clean complete run writes its fresh
        verdicts back in one transaction.  The rows that answered hits
        get their ``last_used`` refreshed in one batch per run, fail-fast
        exits included.
        """
        store = self.store if (skip is None and on_failure is None) else None
        #: store-refuted obligations, keyed by original stream index.
        store_failures: Dict[int, ObligationFailure] = {}
        #: filtered position → original stream index, for re-keying.
        kept: List[int] = []
        #: oids answered from the store, for the one ``last_used`` batch.
        answered: List[str] = []
        units_seen: List[DischargeUnit] = []
        if store is not None:
            obligations = self._store_filter(
                obligations, store, store_failures, kept, answered, emit, fail_fast
            )
        units = DischargePlan.stream_units(obligations, emit=emit)
        if store is not None:
            units = _remember_units(units, units_seen)
        results: Dict[int, ObligationFailure] = {}
        accounts = self.backend.run(
            self,
            units,
            results,
            skip=skip,
            on_failure=on_failure,
            emit=emit,
            batch=batch,
            fail_fast=fail_fast,
        )
        # The end of discharge is a cancellation boundary too: a cancel
        # that arrived during the last unit's solve must not let the run
        # report success, nor write its verdicts back.
        self.check_cancelled(emit=emit)
        self.units_run += len(accounts)
        self.merge_accounts(accounts)
        if store is not None:
            store.touch(self.store_fingerprint, answered)
            self._store_writeback(store, units_seen, accounts, results)
            # Solved obligations were renumbered by the filter; restore
            # original stream indices and fold in the store verdicts so
            # failure order matches the unfiltered stream.
            results = {kept[index]: failure for index, failure in results.items()}
            results.update(store_failures)
        return [results[index] for index in sorted(results)]

    def _store_filter(
        self,
        obligations,
        store: ObligationStore,
        store_failures: Dict[int, ObligationFailure],
        kept: List[int],
        answered: List[str],
        emit: EventSink,
        fail_fast: bool,
    ):
        """Yield only store-missed obligations, reporting hits inline and
        collecting the oids they answered into ``answered``."""
        fingerprint = self.store_fingerprint
        stream = iter(obligations)
        index = -1
        while True:
            obligation = next(stream, None)
            if obligation is None:
                return
            index += 1
            verdict = store.lookup(obligation.oid, fingerprint)
            if verdict is None:
                kept.append(index)
                yield obligation
                continue
            if verdict.valid:
                if self.witness and verdict.witness is not None:
                    # Witnessed regime: a warm hit is only trusted after
                    # its stored certificate passes the trusted kernel.
                    # A reject (corruption, tampering) degrades this hit
                    # to an ordinary re-solve — counted, never trusted.
                    if not self._validated_hit(store, obligation, verdict.witness):
                        kept.append(index)
                        yield obligation
                        continue
                answered.append(obligation.oid)
                if emit is not None:
                    emit(
                        ObligationDischarged(
                            STORE_UNIT, obligation.oid, obligation.tag, cached=True
                        )
                    )
                continue
            model = None
            if verdict.arith_model is not None or verdict.bool_model is not None:
                model = (verdict.arith_model or {}, verdict.bool_model or {})
            failure = self._failure(obligation, False, model)
            store_failures[index] = failure
            answered.append(obligation.oid)
            if emit is not None:
                emit(
                    ObligationRefuted(
                        STORE_UNIT, obligation.oid, obligation.tag, failure.describe()
                    )
                )
            if fail_fast:
                # Stop the stream before the executor produces more
                # work — but only call it an early exit if any remained.
                if kept or next(stream, None) is not None:
                    self.early_exited = True
                    if emit is not None:
                        emit(EarlyExit(STORE_UNIT, "first refutation (fail-fast)"))
                return

    def _validated_hit(
        self, store: ObligationStore, obligation: Obligation, witness_text: str
    ) -> bool:
        """Re-check a stored certificate; True iff the kernel accepts it.

        Accepted certificates are re-collected on the checker (so a
        fully-warm run still exposes every proof), and the validation is
        tallied on the store's counters either way.
        """
        certificate = store.validated(witness_text)
        if certificate is None:
            return False
        self.certificates[obligation.oid] = certificate
        # Already in stored form: served as read, never re-trimmed.
        self._stored_forms[id(certificate)] = (certificate, certificate)
        return True

    def _store_writeback(
        self,
        store: ObligationStore,
        units_seen: List[DischargeUnit],
        accounts,
        results: Dict[int, ObligationFailure],
    ) -> None:
        """Persist fresh verdicts from fully-discharged units.

        Skipped entirely after an early exit (fail-fast or
        cancellation): a unit the run abandoned mid-way has members
        without verdicts, and recording them would turn "not checked"
        into "valid" on the next run.
        """
        if self.early_exited:
            return
        completed = {index for index, _ in accounts}
        rows = []
        for unit in units_seen:
            if unit.index not in completed:
                continue
            region = unit.region
            for member_index, obligation, _ in unit.members:
                failure = results.get(member_index)
                if failure is None:
                    rows.append(
                        (obligation.oid, obligation.tag, region, True, "unsat", None,
                         self.witness_text(obligation.oid))
                    )
                else:
                    model = None
                    status = "unknown"
                    if failure.arith_model is not None or failure.bool_model is not None:
                        model = (failure.arith_model or {}, failure.bool_model or {})
                        status = "sat"
                    rows.append(
                        (obligation.oid, obligation.tag, region, False, status, model,
                         None)
                    )
        store.record_many(self.store_fingerprint, rows)

    def stored_certificate(self, oid: str) -> Optional[Certificate]:
        """The certificate for ``oid`` as the store keeps it, or None.

        That is the proof core of the collected certificate (see
        :func:`~repro.witness.trim_certificate`), or the certificate
        itself when the backward check cannot re-derive its conflict —
        the kernel then rejects it on the next warm hit.  A certificate
        a warm hit read back from the store is served as read.  Each
        distinct certificate object (a chunk's members share one) is
        trimmed once per run.  The oid and premise fingerprint are baked
        into a copy; the in-memory object is never mutated.
        """
        certificate = self.certificates.get(oid)
        if certificate is None:
            return None
        entry = self._stored_forms.get(id(certificate))
        if entry is None:
            entry = (certificate, trim_certificate(certificate) or certificate)
            self._stored_forms[id(certificate)] = entry
        return replace(entry[1], oid=oid, fingerprint=self.store_fingerprint)

    def witness_text(self, oid: str) -> Optional[str]:
        """The canonical serialized form of :meth:`stored_certificate`:
        what store write-back persists and ``repro witness show --oid``
        prints."""
        certificate = self.stored_certificate(oid)
        return None if certificate is None else certificate.to_json()

    def check_all(
        self,
        obligations: Sequence[Obligation],
        skip: Optional[Callable[[Obligation], bool]] = None,
        on_failure: Optional[Callable[[Obligation], None]] = None,
        batch: bool = True,
        emit: EventSink = None,
    ) -> List[ObligationFailure]:
        """Discharge a batch of obligations; failures in input order."""
        return self.discharge_stream(
            obligations, skip=skip, on_failure=on_failure, batch=batch, emit=emit
        )


def _remember_units(units, seen: List[DischargeUnit]):
    """Tee the streamed units into ``seen`` (for store write-back)."""
    for unit in units:
        seen.append(unit)
        yield unit


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def prepare_generator(
    target: TargetProgram,
    config: VerificationConfig,
    cache: Optional[QueryCache] = None,
) -> Tuple[VCGenerator, ObligationChecker]:
    """The configured symbolic executor and checker for one run.

    Shared by :func:`verify_target`, :func:`iter_obligations` and the
    CLI's ``repro obligations`` listing: parameters are bound, the body
    CFG is built and constant guards are folded (statically-dead
    branches never generate obligations), and the checker carries Ψ,
    the assumptions, the discharge strategy and ``cache`` (a fresh
    :class:`QueryCache` when None).
    """
    psi = _bind_psi(target.function.precondition, config.bindings)
    assumptions = [bind_expr(a, config.bindings) for a in config.assumptions]
    assumptions = [a for a in assumptions if a != ast.TRUE]

    generator = VCGenerator(
        unroll_limit=config.unroll_limit,
        use_invariants=(config.mode == "invariant"),
        extra_invariants=tuple(bind_expr(i, config.bindings) for i in config.extra_invariants),
    )
    checker = ObligationChecker(
        psi,
        assumptions,
        use_lemmas=config.use_lemmas,
        collect_models=config.collect_models,
        cache=cache,
        incremental=config.incremental,
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
        backend=checker.backend.name,
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
