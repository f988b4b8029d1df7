"""First-class obligation discharge: plans, the engine, event stream.

This module is the public API the verification layer is built around:

* :class:`DischargePlan` partitions an obligation *stream* into
  :class:`DischargeUnit` work units — obligations sharing a
  path-condition prefix, which symbolic execution emits along one CFG
  region (a branch merge resets the chain and starts a new unit).
  Units are produced incrementally (:meth:`DischargePlan.stream_units`),
  so discharge of unit *k* can start while the symbolic executor is
  still generating unit *k+1*.
* :class:`DischargeEngine` does the solving for one unit: the unit's
  shared premises are asserted once into a
  :class:`~repro.solver.context.SolverContext`, goals are discharged
  conjoined with model-guided refinement, and refutations come back
  with the countermodel from the refuting solve.  Every answer goes
  through the engine's :class:`~repro.solver.context.QueryCache`.
* :class:`DischargeEvent` is the typed progress stream — unit
  started/finished, obligation discharged/refuted, early exit — that
  the pipeline uses for per-stage progress and
  early-exit-on-first-refutation, and the CLI renders under
  ``--progress``.

:meth:`DischargeEngine.discharge_stream` runs the units in plan order,
on the caller's thread, with the persistent store in front.
"""

from __future__ import annotations

import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import (
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.core import preconditions
from repro.core.simplify import simplify
from repro.lang import ast
from repro.solver import formula as F
from repro.solver.context import (
    CacheEntry,
    ContextStats,
    Model,
    QueryCache,
    SolverContext,
)
from repro.solver.encode import EncodeError, Encoder, EncodingMemo
from repro.solver.profile import SolverProfile
from repro.verify import lemmas as lemma_mod
from repro.verify.store import ObligationStore, premise_fingerprint
from repro.verify.vcgen import Obligation


class DischargeCancelled(Exception):
    """A discharge run was cancelled cooperatively before completing.

    Raised at unit, member and chunk boundaries, or when discharge ends,
    if the engine's ``cancel_event`` is set (per-request timeouts and
    server drain in ``repro serve``).  It unwinds like any exception
    raised mid-discharge: a pushed solver scope is popped
    (``SolverContext.check_entailment`` pops in a ``finally``), a
    single-flight cache acquisition in progress is released
    (``QueryCache.cancel``) so serve's other request threads never wait
    on it, and the units the plan has not reached are never started.
    """



@dataclass
class ObligationFailure:
    """A refuted obligation, with a counterexample model when available."""

    obligation: Obligation
    arith_model: Optional[Dict[str, Fraction]] = None
    bool_model: Optional[Dict[str, bool]] = None

    def describe(self) -> str:
        text = self.obligation.describe()
        if self.arith_model:
            inputs = ", ".join(
                f"{k}={v}" for k, v in sorted(self.arith_model.items()) if not k.startswith("%")
            )
            text += f"  counterexample: {inputs}"
        return text


# ---------------------------------------------------------------------------
# The typed event stream
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PlanProgress:
    """A new unit was carved off the obligation stream."""

    unit: str
    obligations: int


@dataclass(frozen=True)
class UnitStarted:
    unit: str
    obligations: int


@dataclass(frozen=True)
class ObligationDischarged:
    """One obligation proved (``cached`` when the whole answer came from
    the query cache; None when proved as part of a conjoined solve)."""

    unit: str
    oid: str
    tag: str
    cached: Optional[bool] = None


@dataclass(frozen=True)
class ObligationRefuted:
    unit: str
    oid: str
    tag: str
    counterexample: Optional[str] = None


@dataclass(frozen=True)
class UnitFinished:
    """A unit's discharge completed, with its solver accounting."""

    unit: str
    seconds: float
    stats: Dict[str, int]


@dataclass(frozen=True)
class EarlyExit:
    """Discharge stopped before exhausting the plan (``fail_fast``)."""

    unit: str
    reason: str


DischargeEvent = Union[
    PlanProgress,
    UnitStarted,
    ObligationDischarged,
    ObligationRefuted,
    UnitFinished,
    EarlyExit,
]

#: An event consumer; pass None to discharge silently.
EventSink = Optional[Callable[[DischargeEvent], None]]


def event_kind(event: DischargeEvent) -> str:
    """A stable kebab-case name for an event ("unit-started", ...)."""
    name = type(event).__name__
    out = [name[0].lower()]
    for ch in name[1:]:
        if ch.isupper():
            out.append("-")
            out.append(ch.lower())
        else:
            out.append(ch)
    return "".join(out)


# ---------------------------------------------------------------------------
# The plan: addressable work units over the obligation stream
# ---------------------------------------------------------------------------


@dataclass
class DischargeUnit:
    """Obligations sharing a path prefix — one work unit.

    ``base`` is the common path prefix (asserted once into the unit's
    solver context); each member carries its obligation's global stream
    index and its path *suffix* beyond the base.  ``uid`` is
    deterministic — the unit's plan index plus the CFG region of its
    first obligation — and names the unit in the event stream.
    """

    index: int
    base: Tuple[ast.Expr, ...]
    members: List[Tuple[int, Obligation, Tuple[ast.Expr, ...]]]

    @property
    def region(self) -> str:
        provenance = self.members[0][1].provenance if self.members else None
        if provenance is None:
            return "?"
        return f"{provenance.region}/b{provenance.block}"

    @property
    def uid(self) -> str:
        return f"u{self.index:03d}@{self.region}"

    def oids(self) -> List[str]:
        return [obligation.oid for _, obligation, _ in self.members]


class DischargePlan:
    """A partition of an obligation stream into discharge units.

    The partition rule is greedy path-prefix chaining: symbolic
    execution emits obligations along straight-line segments with
    monotonically growing path conditions; each such chain becomes one
    unit whose base is its first obligation's path.  A branch merge
    resets the chain (its paths are not extensions of the previous
    base), which starts a fresh unit — so units align with CFG regions.
    """

    def __init__(self, units: List[DischargeUnit]) -> None:
        self.units = units

    @property
    def obligations(self) -> List[Obligation]:
        return [ob for unit in self.units for _, ob, _ in unit.members]

    @classmethod
    def from_obligations(cls, obligations: Iterable[Obligation]) -> "DischargePlan":
        return cls(list(cls.stream_units(obligations)))

    @staticmethod
    def stream_units(
        obligations: Iterable[Obligation], emit: EventSink = None
    ) -> Iterator[DischargeUnit]:
        """Carve units off the stream incrementally.

        Yields each unit as soon as the next obligation proves it
        complete (or the stream ends), so consumers can discharge one
        unit while the symbolic executor is still producing the next.
        """
        current: Optional[DischargeUnit] = None
        count = 0
        for index, obligation in enumerate(obligations):
            if current is not None:
                base = current.base
                if obligation.path[: len(base)] == base:
                    current.members.append(
                        (index, obligation, obligation.path[len(base):])
                    )
                    continue
                if emit is not None:
                    emit(PlanProgress(current.uid, len(current.members)))
                yield current
            current = DischargeUnit(count, obligation.path, [(index, obligation, ())])
            count += 1
        if current is not None:
            if emit is not None:
                emit(PlanProgress(current.uid, len(current.members)))
            yield current

    def to_dict(self) -> Dict[str, object]:
        return {
            "units": [
                {
                    "uid": unit.uid,
                    "region": unit.region,
                    "base_depth": len(unit.base),
                    "obligations": unit.oids(),
                }
                for unit in self.units
            ],
            "obligations": [ob.to_dict() for ob in self.obligations],
        }


# ---------------------------------------------------------------------------
# The engine: solving one unit
# ---------------------------------------------------------------------------


#: The pseudo-unit id store-served verdicts are reported under in the
#: event stream (they never reach a real discharge unit).
STORE_UNIT = "store"


class DischargeEngine:
    """Premise assembly plus discharge against the SMT solver, with the
    persistent store in front.

    One engine is configured per verification run (Ψ, parameter
    assumptions, lemma policy, query cache, store).
    :meth:`discharge_stream` groups obligations into path-prefix units;
    :meth:`discharge_unit` asserts a unit's premises (assumptions + path
    base) once into a :class:`SolverContext` and checks every member
    under one pushed scope, goals conjoined with model-guided
    refinement, and returns its accounting, which the stream folds into
    :attr:`stats` and :attr:`profile` in unit order.  The conjoined
    check asserts the *union* of its chunk's premise extensions — all
    valid facts — so it can prove goals that a per-obligation query
    spuriously refutes (more complete, never less sound); refutations
    always come with a concrete countermodel.
    """

    #: Conjoined-discharge width: batches wider than this are chunked.
    #: Bounds the case-split breadth of one solve — a refuting model
    #: still prunes across its whole chunk, while each solve stays
    #: comparable in size to a handful of individual queries.
    batch_limit: int = 8

    def __init__(
        self,
        psi: ast.Expr,
        assumptions: Sequence[ast.Expr],
        use_lemmas: bool = True,
        collect_models: bool = True,
        cache: Optional[QueryCache] = None,
        cancel_event: Optional[threading.Event] = None,
        store: Optional[ObligationStore] = None,
        witness: bool = False,
    ) -> None:
        self.psi = psi
        self.assumptions = [simplify(a) for a in assumptions]
        self.use_lemmas = use_lemmas
        self.collect_models = collect_models
        self.cache = cache if cache is not None else QueryCache()
        #: Persistent cross-run verdict cache (None = disabled).
        self.store = store
        self._store_fingerprint: Optional[str] = None
        #: When set, discharge stops at the next unit/chunk boundary by
        #: raising :class:`DischargeCancelled` (after emitting one
        #: ``early-exit`` event).  This is the cooperative cancellation
        #: hook behind per-request timeouts and server drain.
        self.cancel_event = cancel_event
        #: Emit proof certificates for ``valid`` verdicts (repro.witness).
        self.witness = witness
        #: Certificates captured this run, keyed by obligation id.  A
        #: conjoined chunk shares one certificate object across all of
        #: its members (the proof covers the conjunction); a warm hit
        #: contributes the certificate the kernel accepted.
        self.certificates: Dict[str, object] = {}
        #: Counters merged from every solver context this engine ran.
        self.stats = ContextStats()
        #: Work units discharged so far.
        self.units_run = 0
        #: True when a fail-fast discharge stopped before the full plan.
        self.early_exited = False
        #: Inner-loop counters merged from every solver context this
        #: engine ran.
        self.profile = SolverProfile()
        #: :meth:`_lemmas` answers, keyed by the discovered monomial and
        #: opaque items and the candidate variables.
        self._lemma_memo: Dict[Tuple, Tuple[ast.Expr, ...]] = {}

    @property
    def store_fingerprint(self) -> str:
        """The premise/config fingerprint store entries are keyed under."""
        if self._store_fingerprint is None:
            self._store_fingerprint = premise_fingerprint(
                self.psi, self.assumptions, self.use_lemmas
            )
        return self._store_fingerprint

    # -- cooperative cancellation ----------------------------------------------

    def check_cancelled(self, unit: Optional[DischargeUnit] = None,
                        emit: EventSink = None) -> None:
        """Raise :class:`DischargeCancelled` if the cancel event is set.

        Called at every unit, member and chunk boundary, and once more
        when discharge ends, so a cancelled run stops within one solve
        of the request and never reports success.  The first check to
        observe the cancellation emits a single ``early-exit`` event;
        every check marks the engine as early-exited so the outcome
        reports an honest partial verdict.
        """
        if self.cancel_event is None or not self.cancel_event.is_set():
            return
        first = not self.early_exited
        self.early_exited = True
        if first and emit is not None:
            emit(EarlyExit(unit.uid if unit is not None else "plan", "cancelled"))
        where = unit.uid if unit is not None else "plan"
        raise DischargeCancelled(f"discharge cancelled at {where}")

    # -- premise assembly ------------------------------------------------------

    def extra_premises_for(self, obligation: Obligation) -> List[ast.Expr]:
        """The per-obligation premises beyond assumptions + path:
        Ψ instances for the query's index terms, plus nonlinear lemmas."""
        queries = list(obligation.path) + [obligation.goal] + self.assumptions
        psi_premises = preconditions.instantiate(self.psi, queries)
        extra = list(psi_premises)
        if self.use_lemmas:
            premises = list(self.assumptions) + psi_premises + list(obligation.path)
            extra += self._lemmas(premises + [obligation.goal])
        return extra

    def premises_for(self, obligation: Obligation) -> List[ast.Expr]:
        premises = list(self.assumptions) + list(obligation.path)
        premises += self.extra_premises_for(obligation)
        return premises

    def _lemmas(self, exprs: Sequence[ast.Expr]) -> List[ast.Expr]:
        # Discovery pass: find all monomial atoms the query will create.
        encoder = Encoder(memo=self.cache.encodings)
        for expr in exprs:
            try:
                encoder.boolean(expr)
            except EncodeError:
                continue
        if not encoder.monomials:
            return []
        candidates = frozenset(lemma_mod.relevant_vars(exprs))
        # Besides the fixed assumptions, these are all that the lemma
        # functions read; a hit hands back the identical lemma nodes.
        key = (tuple(encoder.monomials.items()), tuple(encoder.opaque.items()), candidates)
        lemmas = self._lemma_memo.get(key)
        if lemmas is None:
            lemmas = tuple(
                lemma_mod.sign_lemmas(encoder, self.assumptions)
                + lemma_mod.monotonicity_lemmas(encoder, candidates)
            )
            self._lemma_memo[key] = lemmas
        return list(lemmas)

    # -- stream discharge ------------------------------------------------------

    def discharge_stream(
        self,
        obligations: Iterable[Obligation],
        on_failure: Optional[Callable[[Obligation], None]] = None,
        emit: EventSink = None,
        fail_fast: bool = False,
    ) -> List[ObligationFailure]:
        """Discharge an obligation stream; failures in stream order.

        Units run one after another, in plan order, on the caller's
        thread.  ``on_failure`` fires as refutations are found — Houdini
        uses it to prune every candidate a refuting model falsifies.
        ``emit`` receives the typed :class:`DischargeEvent` stream;
        ``fail_fast`` stops scheduling units after the first refutation.

        With a persistent store configured (and no Houdini-style
        callback, whose verdicts are about *candidates*, not the
        program), the stream runs in one
        :meth:`~repro.verify.store.ObligationStore.run_scope` and each
        streamed obligation is first offered to
        :meth:`~repro.verify.store.ObligationStore.answer` by ``(oid,
        fingerprint)``: answers are reported under the pseudo-unit
        ``"store"`` without ever reaching the plan, misses flow into
        discharge as usual, and a clean complete run writes its fresh
        verdicts back in one transaction.
        """
        store = self.store if on_failure is None else None
        with store.run_scope() if store is not None else nullcontext():
            return self._discharge_stream(obligations, store, on_failure, emit, fail_fast)

    def _discharge_stream(self, obligations, store, on_failure, emit, fail_fast):
        #: store-refuted obligations, keyed by original stream index.
        store_failures: Dict[int, ObligationFailure] = {}
        #: filtered position → original stream index, for re-keying.
        kept: List[int] = []
        if store is not None:
            obligations = self._store_filter(
                obligations, store, store_failures, kept, emit, fail_fast
            )
        units = DischargePlan.stream_units(obligations, emit=emit)
        results: Dict[int, ObligationFailure] = {}
        discharged: List[DischargeUnit] = []
        for unit in units:
            stats, profile = self.discharge_unit(unit, results, on_failure, emit)
            self.stats.merge(stats)
            self.profile.merge(profile)
            discharged.append(unit)
            if fail_fast and results:
                # Only an early exit if work actually remained.
                if next(units, None) is not None:
                    self.early_exited = True
                    if emit is not None:
                        emit(EarlyExit(unit.uid, "first refutation (fail-fast)"))
                break
        # The end of discharge is a cancellation boundary too: a cancel
        # that arrived during the last unit's solve must not let the run
        # report success, nor write its verdicts back.
        self.check_cancelled(emit=emit)
        self.units_run += len(discharged)
        if store is None:
            return [results[index] for index in sorted(results)]
        # After an early exit a unit the run abandoned mid-way has
        # members without verdicts: recording them would turn "not
        # checked" into "valid" on the next run.
        if not self.early_exited:
            store.record_answers(self.store_fingerprint, [
                (obligation.oid, obligation.tag, unit.region,
                 self._stored_answer(obligation, results.get(index)))
                for unit in discharged
                for index, obligation, _ in unit.members
            ])
        # Solved obligations were renumbered by the filter; restore
        # original stream indices and fold in the store verdicts so
        # failure order matches the unfiltered stream.
        results = {kept[index]: failure for index, failure in results.items()}
        results.update(store_failures)
        return [results[index] for index in sorted(results)]

    def _store_filter(self, obligations, store, store_failures, kept, emit, fail_fast):
        """Yield only the obligations the store cannot answer, reporting
        its answers inline."""
        fingerprint = self.store_fingerprint
        stream = iter(obligations)
        for index, obligation in enumerate(stream):
            entry = store.answer(obligation.oid, fingerprint, self.witness)
            if entry is None:
                kept.append(index)
                yield obligation
            elif entry.valid:
                if entry.certificate is not None:
                    self.certificates[obligation.oid] = entry.certificate
                if emit is not None:
                    emit(ObligationDischarged(
                        STORE_UNIT, obligation.oid, obligation.tag, cached=True
                    ))
            else:
                failure = self._failure(obligation, False, entry.model)
                store_failures[index] = failure
                if emit is not None:
                    emit(ObligationRefuted(
                        STORE_UNIT, obligation.oid, obligation.tag, failure.describe()
                    ))
                if fail_fast:
                    # Stop the stream before the executor produces more
                    # work — but only call it an early exit if any remained.
                    if kept or next(stream, None) is not None:
                        self.early_exited = True
                        if emit is not None:
                            emit(EarlyExit(STORE_UNIT, "first refutation (fail-fast)"))
                    return

    def _stored_answer(
        self, obligation: Obligation, failure: Optional[ObligationFailure]
    ) -> CacheEntry:
        """A discharged obligation's verdict as the answer the store keeps."""
        if failure is None:
            return CacheEntry(True, "unsat", certificate=self.certificates.get(obligation.oid))
        if failure.arith_model is None and failure.bool_model is None:
            return CacheEntry(False, "unknown")
        return CacheEntry(False, "sat", (failure.arith_model or {}, failure.bool_model or {}))

    # -- unit discharge --------------------------------------------------------

    def discharge_unit(
        self,
        unit: DischargeUnit,
        results: Dict[int, ObligationFailure],
        on_failure: Optional[Callable[[Obligation], None]] = None,
        emit: EventSink = None,
    ) -> Tuple[ContextStats, SolverProfile]:
        """Discharge one unit under one pushed solver context.

        The unit's shared premises (global assumptions + path base) are
        asserted once; the members of a unit of several are then
        discharged conjoined, a lone member on its own.  Refutations
        land in ``results`` keyed by stream index.  Returns the
        context's counters for the caller's in-order merge.
        """
        self.check_cancelled(unit, emit)
        if emit is not None:
            emit(UnitStarted(unit.uid, len(unit.members)))
        start = time.perf_counter()
        context = SolverContext(cache=self.cache, witness=self.witness)
        for premise in self.assumptions:
            context.assert_expr(premise)
        for premise in unit.base:
            context.assert_expr(premise)
        if len(unit.members) > 1:
            self._discharge_batched(context, unit, results, on_failure, emit)
        else:
            self._discharge_each(context, unit, results, on_failure, emit)
        if emit is not None:
            emit(
                UnitFinished(
                    unit.uid, time.perf_counter() - start, context.stats.to_dict()
                )
            )
        return context.stats, context.profile

    def _discharge_each(self, context, unit, results, on_failure, emit) -> None:
        for index, obligation, suffix in unit.members:
            self.check_cancelled(unit, emit)
            hits_before = context.stats.cache_hits
            valid, model = context.check_entailment(
                obligation.goal,
                list(suffix) + self.extra_premises_for(obligation),
            )
            cached = context.stats.cache_hits > hits_before
            failure = self._failure(obligation, valid, model)
            if failure is not None:
                results[index] = failure
                if on_failure is not None:
                    on_failure(obligation)
            elif self.witness:
                self._record_certificate(obligation, context.last_certificate)
            self._emit_verdict(emit, unit, obligation, failure, valid, cached)

    def _discharge_batched(self, context, unit, results, on_failure, emit) -> None:
        """Conjoined discharge: prove all goals of a unit in few solves.

        Each member contributes the guarded goal ``suffix → g`` (its
        path facts beyond the unit base as the guard), so the conjoined
        query ``base ⊨ ∧ᵢ (suffixᵢ → gᵢ)`` asks exactly the individual
        questions at once.  The per-goal premise extensions (Ψ instances
        under the precondition, sound real-arithmetic lemmas) are all
        valid facts, so asserting their union preserves each verdict's
        soundness.  UNSAT certifies every goal.  A SAT model satisfies
        the base premises, hence falsifying ``suffixᵢ → gᵢ`` makes it a
        genuine counterexample for obligation *i* — those are recorded
        at zero extra solves and the remainder re-batched.  Goals the
        model leaves undecided (or that evaluation cannot reach) fall
        back to individual checks, so the refinement loop strictly
        shrinks.
        """
        remaining: List[Tuple[int, Obligation, Tuple[ast.Expr, ...], List[ast.Expr]]] = [
            (index, obligation, suffix, self.extra_premises_for(obligation))
            for index, obligation, suffix in unit.members
        ]
        while remaining:
            self.check_cancelled(unit, emit)
            chunk = remaining[: self.batch_limit]
            remaining = remaining[self.batch_limit:]
            self._discharge_chunk(context, unit, chunk, results, on_failure, emit)

    def _discharge_chunk(self, context, unit, pending, results, on_failure, emit) -> None:
        while len(pending) > 1:
            extras: List[ast.Expr] = []
            seen = set()
            for _, _, _, extension in pending:
                for premise in extension:
                    if premise not in seen:
                        seen.add(premise)
                        extras.append(premise)
            conjunction: Optional[ast.Expr] = None
            for _, obligation, suffix, _ in pending:
                guarded = _guarded_goal(obligation.goal, suffix)
                conjunction = (
                    guarded if conjunction is None else ast.BinOp("&&", conjunction, guarded)
                )
            valid, model = context.check_entailment(conjunction, extras)
            if valid:
                for _, obligation, _, _ in pending:
                    if self.witness:
                        # The conjoined proof certifies every member.
                        self._record_certificate(obligation, context.last_certificate)
                    self._emit_verdict(emit, unit, obligation, None, True, None)
                return
            if model is None:
                break  # solver gave up on the batch; decide individually
            falsified = [
                (index, obligation)
                for index, obligation, suffix, _ in pending
                if _model_falsifies(
                    _guarded_goal(obligation.goal, suffix), model, self.cache.encodings
                )
            ]
            if not falsified:
                break  # model decides nothing we can evaluate
            for index, obligation in falsified:
                failure = self._failure(obligation, False, model)
                results[index] = failure
                if on_failure is not None:
                    on_failure(obligation)
                self._emit_verdict(emit, unit, obligation, failure, False, None)
            decided = {index for index, _ in falsified}
            pending = [item for item in pending if item[0] not in decided]
        for index, obligation, suffix, extension in pending:
            valid, model = context.check_entailment(
                obligation.goal, list(suffix) + extension
            )
            failure = self._failure(obligation, valid, model)
            if failure is not None:
                results[index] = failure
                if on_failure is not None:
                    on_failure(obligation)
            elif self.witness:
                self._record_certificate(obligation, context.last_certificate)
            self._emit_verdict(emit, unit, obligation, failure, valid, None)

    # -- shared helpers --------------------------------------------------------

    def _record_certificate(self, obligation: Obligation, certificate) -> None:
        """Remember the certificate behind a ``valid`` verdict.

        ``certificate`` may be ``None`` (the answer came from a source
        with no attached proof — e.g. a cache entry populated before
        witnesses were enabled); those verdicts simply go unwitnessed.
        """
        if certificate is not None:
            self.certificates[obligation.oid] = certificate

    def _failure(
        self, obligation: Obligation, valid: bool, model
    ) -> Optional[ObligationFailure]:
        if valid:
            return None
        if not self.collect_models or model is None:
            return ObligationFailure(obligation)
        arith, booleans = model
        return ObligationFailure(obligation, arith, booleans)

    def _emit_verdict(self, emit, unit, obligation, failure, valid, cached) -> None:
        if emit is None:
            return
        if valid:
            emit(ObligationDischarged(unit.uid, obligation.oid, obligation.tag, cached))
        else:
            counterexample = failure.describe() if failure is not None else None
            emit(
                ObligationRefuted(
                    unit.uid, obligation.oid, obligation.tag, counterexample
                )
            )

    # -- accounting ------------------------------------------------------------

    def solver_stats(self) -> ContextStats:
        """Aggregate counters over every unit discharged so far."""
        return replace(self.stats)

    def profile_totals(self) -> SolverProfile:
        """Inner-loop counters over every unit discharged so far."""
        return replace(self.profile)


# ---------------------------------------------------------------------------
# Expression helpers
# ---------------------------------------------------------------------------


def _guarded_goal(goal: ast.Expr, suffix: Tuple[ast.Expr, ...]) -> ast.Expr:
    """``suffix → goal`` as an expression (``goal`` when no suffix)."""
    if not suffix:
        return goal
    guard = suffix[0]
    for fact in suffix[1:]:
        guard = ast.BinOp("&&", guard, fact)
    return ast.BinOp("||", ast.Not(guard), goal)


def _model_falsifies(goal: ast.Expr, model: Model, memo: EncodingMemo) -> bool:
    """Does the (total, rational) model make ``goal`` false?

    Conservative: any variable the model misses or any construct the
    encoder cannot reach counts as "undecided", never as falsified.
    """
    arith, booleans = model
    try:
        return not F.evaluate(Encoder(memo=memo).boolean(goal), arith, booleans)
    except (KeyError, EncodeError, ArithmeticError):
        return False
