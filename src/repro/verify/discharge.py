"""First-class obligation discharge: plans, backends, event stream.

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
  with the countermodel from the refuting solve.
* **Backends** schedule units on the caller's thread, in plan order:
  :class:`SerialBackend` discharges each unit under one solver context
  (the incremental strategy) and :class:`OneShotBackend` uses a fresh
  solver per query.  The engine's ``incremental`` flag picks one; both
  answer through the engine's
  :class:`~repro.solver.context.QueryCache`.
* :class:`DischargeEvent` is the typed progress stream — unit
  started/finished, obligation discharged/refuted, early exit — that
  the pipeline uses for per-stage progress and
  early-exit-on-first-refutation, and the CLI renders under
  ``--progress``.

Everything here works over a duck-typed *engine* (see
:class:`DischargeEngine`; :class:`repro.verify.verifier.ObligationChecker`
is the configured engine plus the legacy ``check``/``check_all``
surface).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
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
    ContextStats,
    Model,
    QueryCache,
    SolverContext,
)
from repro.solver.encode import EncodeError, Encoder, EncodingMemo
from repro.solver.interface import ValidityChecker
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


@dataclass(frozen=True)
class RoundFinished:
    """One Houdini pruning round finished."""

    round: int
    pruned: int
    surviving: int


DischargeEvent = Union[
    PlanProgress,
    UnitStarted,
    ObligationDischarged,
    ObligationRefuted,
    UnitFinished,
    EarlyExit,
    RoundFinished,
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


class DischargeEngine:
    """Premise assembly plus per-unit discharge against the SMT solver.

    One engine is configured per verification run (Ψ, parameter
    assumptions, lemma policy, query cache, strategy).  Its
    :attr:`backend` — :class:`SerialBackend` when ``incremental``, else
    :class:`OneShotBackend` — calls :meth:`discharge_unit` or
    :meth:`check_one` for each unit, and the engine folds the returned
    accounting in unit order.
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
        incremental: bool = True,
        cancel_event: Optional[threading.Event] = None,
        store: Optional[ObligationStore] = None,
        witness: bool = False,
    ) -> None:
        self.psi = psi
        self.assumptions = [simplify(a) for a in assumptions]
        self.use_lemmas = use_lemmas
        self.collect_models = collect_models
        self.cache = cache if cache is not None else QueryCache()
        self.incremental = incremental
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
        #: its members (the proof covers the conjunction).
        self.certificates: Dict[str, object] = {}
        #: id of each distinct certificate object -> (that object, the
        #: form the store keeps of it); see ``stored_certificate``.
        self._stored_forms: Dict[int, Tuple[object, object]] = {}
        self.validity = ValidityChecker(cache=self.cache, witness=witness)
        self.stats = ContextStats()
        #: Work units discharged so far (all strategies).
        self.units_run = 0
        #: True when a fail-fast discharge stopped before the full plan.
        self.early_exited = False
        #: Inner-loop counters merged from every solver context this
        #: engine ran (the one-shot path accumulates directly into
        #: ``self.validity.profile``).
        self.profile = SolverProfile()

    @property
    def store_fingerprint(self) -> str:
        """The premise/config fingerprint store entries are keyed under."""
        if self._store_fingerprint is None:
            self._store_fingerprint = premise_fingerprint(
                self.psi, self.assumptions, self.use_lemmas
            )
        return self._store_fingerprint

    @property
    def backend(self) -> "DischargeBackend":
        """The scheduler ``incremental`` selects."""
        return SerialBackend() if self.incremental else OneShotBackend()

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
        candidates = lemma_mod.relevant_vars(exprs)
        out = lemma_mod.sign_lemmas(encoder, self.assumptions)
        out += lemma_mod.monotonicity_lemmas(encoder, candidates)
        return out

    # -- one-shot discharge ----------------------------------------------------

    def check_one(self, obligation: Obligation) -> Optional[ObligationFailure]:
        """None when the obligation is valid, a failure record otherwise.

        A refuted check returns its counterexample from the same solve
        that refuted it — no second query.
        """
        valid, model = self.validity.entailment(
            obligation.goal, self.premises_for(obligation)
        )
        if valid and self.witness:
            self._record_certificate(obligation, self.validity.last_certificate)
        return self._failure(obligation, valid, model)

    # -- incremental unit discharge --------------------------------------------

    def discharge_unit(
        self,
        unit: DischargeUnit,
        results: Dict[int, ObligationFailure],
        skip: Optional[Callable[[Obligation], bool]] = None,
        on_failure: Optional[Callable[[Obligation], None]] = None,
        emit: EventSink = None,
        batch: bool = True,
    ) -> Tuple[ContextStats, SolverProfile]:
        """Discharge one unit under one pushed solver context.

        The unit's shared premises (global assumptions + path base) are
        asserted once; members are then discharged conjoined (``batch``)
        or individually.  Returns the context's counters for the
        caller's in-order merge.
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
        if batch and skip is None and len(unit.members) > 1:
            self._discharge_batched(context, unit, results, on_failure, emit)
        else:
            self._discharge_each(context, unit, results, skip, on_failure, emit)
        if emit is not None:
            emit(
                UnitFinished(
                    unit.uid, time.perf_counter() - start, context.stats.to_dict()
                )
            )
        return context.stats, context.profile

    def _discharge_each(self, context, unit, results, skip, on_failure, emit) -> None:
        for index, obligation, suffix in unit.members:
            self.check_cancelled(unit, emit)
            if skip is not None and skip(obligation):
                continue
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

    def merge_accounts(
        self, accounts: Iterable[Tuple[int, Tuple[ContextStats, SolverProfile]]]
    ) -> None:
        """Fold per-unit counters into the engine, in unit order."""
        for _, (unit_stats, unit_profile) in accounts:
            self.stats.merge(unit_stats)
            self.profile.merge(unit_profile)

    def solver_stats(self) -> ContextStats:
        """Aggregate counters: one-shot queries plus all context work."""
        stats = ContextStats(
            queries=self.validity.queries,
            cache_hits=self.validity.cache_hits,
            solve_calls=self.validity.solve_calls,
        )
        stats.merge(self.stats)
        return stats

    def profile_totals(self) -> SolverProfile:
        """Inner-loop counters over the whole discharge (all strategies)."""
        totals = SolverProfile()
        totals.merge(self.validity.profile)
        totals.merge(self.profile)
        return totals


# ---------------------------------------------------------------------------
# Backends
# ---------------------------------------------------------------------------


class DischargeBackend:
    """The backend protocol: schedule a stream of units over an engine.

    ``run`` consumes ``units`` (possibly lazily, while the symbolic
    executor is still producing obligations) on the caller's thread,
    records refutations into ``results`` keyed by global obligation
    index, and returns the per-unit ``(index, (stats, profile))``
    accounts in plan order.  ``fail_fast`` stops scheduling new units
    once a refutation lands.
    """

    name = "abstract"

    def run(
        self,
        engine: DischargeEngine,
        units: Iterable[DischargeUnit],
        results: Dict[int, ObligationFailure],
        skip=None,
        on_failure=None,
        emit: EventSink = None,
        batch: bool = True,
        fail_fast: bool = False,
    ) -> List[Tuple[int, Tuple[ContextStats, SolverProfile]]]:
        raise NotImplementedError


class SerialBackend(DischargeBackend):
    """Discharge units one after another, in plan order, each under
    one solver context (the incremental strategy)."""

    name = "serial"

    def run(self, engine, units, results, skip=None, on_failure=None,
            emit=None, batch=True, fail_fast=False):
        accounts = []
        units = iter(units)
        for unit in units:
            account = engine.discharge_unit(unit, results, skip, on_failure, emit, batch)
            accounts.append((unit.index, account))
            if fail_fast and results:
                # Only an early exit if work actually remained.
                if next(units, None) is not None:
                    engine.early_exited = True
                    if emit is not None:
                        emit(EarlyExit(unit.uid, "first refutation (fail-fast)"))
                break
        return accounts


class OneShotBackend(DischargeBackend):
    """A fresh solver per query, per obligation, in stream order.

    The ``incremental=False`` strategy: no context push/pop reuse, no
    conjoined goals — still single-solve per refutation and cache
    backed.  Unit structure is ignored beyond preserving order.
    """

    name = "oneshot"

    def run(self, engine, units, results, skip=None, on_failure=None,
            emit=None, batch=True, fail_fast=False):
        accounts = []
        units = iter(units)
        for unit in units:
            # Solver accounting lives on engine.validity; the account
            # entry records the unit for the merge and the unit count.
            accounts.append((unit.index, (ContextStats(), SolverProfile())))
            for position, (index, obligation, _) in enumerate(unit.members):
                engine.check_cancelled(unit, emit)
                if skip is not None and skip(obligation):
                    continue
                hits_before = engine.validity.cache_hits
                failure = engine.check_one(obligation)
                cached = engine.validity.cache_hits > hits_before
                if failure is not None:
                    results[index] = failure
                    if on_failure is not None:
                        on_failure(obligation)
                engine._emit_verdict(
                    emit, unit, obligation, failure, failure is None, cached
                )
                if fail_fast and results:
                    # Only an early exit if work actually remained.
                    remaining = position + 1 < len(unit.members) or (
                        next(units, None) is not None
                    )
                    if remaining:
                        engine.early_exited = True
                        if emit is not None:
                            emit(EarlyExit(unit.uid, "first refutation (fail-fast)"))
                    return accounts
        return accounts


# ---------------------------------------------------------------------------
# Expression helpers shared by the strategies
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
