"""First-class obligation discharge: plans, backends, event stream.

This module is the public API the verification layer is built around:

* :class:`DischargePlan` partitions an obligation *stream* into
  independent :class:`DischargeUnit` work units — obligations sharing a
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
* **Backends** schedule units: :class:`SerialBackend` in plan order,
  :class:`ThreadedBackend` on a worker pool, :class:`OneShotBackend`
  with a fresh solver per query (the non-incremental strategy), and
  :class:`CachedBackend` wrapping any of them with a shared
  :class:`~repro.solver.context.QueryCache`.  All backends merge
  per-unit results and counters **deterministically, keyed by unit
  id** — verdicts, obligation ids and solve counts are identical for
  any backend and job count (the shared cache is single-flight, so a
  query concurrently in flight is solved exactly once).
* :class:`DischargeEvent` is the typed progress stream — unit
  started/finished, obligation discharged/refuted, early exit — that
  the pipeline uses for per-stage progress and
  early-exit-on-first-refutation, and the CLI renders under
  ``--progress``.

Everything here is backend-agnostic over a duck-typed *engine* (see
:class:`DischargeEngine`; :class:`repro.verify.verifier.ObligationChecker`
is the configured engine plus the legacy ``check``/``check_all``
surface).
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import threading
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
)
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass
from fractions import Fraction
from threading import Lock
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

from repro import faults as faults_mod
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
    oracle_digest,
)
from repro.solver.encode import EncodeError, Encoder, EncodingMemo
from repro.solver.interface import ValidityChecker
from repro.solver.profile import SolverProfile
from repro.verify import lemmas as lemma_mod
from repro.verify.store import ObligationStore, premise_fingerprint
from repro.verify.vcgen import Obligation

#: Environment variable consulted when a configuration does not pin a
#: backend: it overrides the default discharge parallelism (the CI
#: ``verify-jobs-smoke`` leg runs the whole suite under ``2``).
JOBS_ENV_VAR = "REPRO_VERIFY_JOBS"

#: Environment variable naming the default backend when a configuration
#: pins neither a backend nor a job count: the CI
#: ``process-backend-smoke`` leg sets it to ``process`` to run the whole
#: suite through worker processes.
BACKEND_ENV_VAR = "REPRO_VERIFY_BACKEND"

#: Per-unit worker solve deadline (seconds) for the process backend
#: when a configuration does not pin a backend instance.  A unit whose
#: worker misses the deadline is resubmitted once, then re-solved
#: through the serial engine.  Unset = no deadline.
DEADLINE_ENV_VAR = "REPRO_UNIT_DEADLINE"


class DischargeCancelled(Exception):
    """A discharge run was cancelled cooperatively before completing.

    Raised at unit/chunk boundaries, or when discharge ends, if the
    engine's ``cancel_event`` is set (per-request timeouts and server
    drain in ``repro serve``), and used by backends to unwind cleanly:
    pushed solver scopes are popped (``SolverContext.check_entailment``
    pops in a ``finally``), in-flight single-flight cache acquisitions
    are released (``QueryCache.cancel``), and queued-but-unstarted work
    is dropped — no waiter deadlocks, no leaked scopes.
    """


class DischargeWorkerError(RuntimeError):
    """A discharge worker failed with a non-recoverable exception.

    Raised by the threaded and process backends when a worker's
    exception is neither cancellation nor a supervised fault (worker
    death, deadline, injected failure — those recover serially).  Names
    the unit and its obligation oids so the failure is attributable
    without digging through a pool traceback.
    """

    def __init__(self, unit: "DischargeUnit", cause: BaseException) -> None:
        self.unit = unit.uid
        self.oids = unit.oids()
        super().__init__(
            f"discharge worker failed on unit {self.unit}"
            f" (obligations: {', '.join(self.oids)}):"
            f" {type(cause).__name__}: {cause}"
        )


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


class _LockedSink:
    """Serializes event emission from concurrent unit workers."""

    def __init__(self, sink: Callable[[DischargeEvent], None]) -> None:
        self._sink = sink
        self._lock = Lock()

    def __call__(self, event: DischargeEvent) -> None:
        with self._lock:
            self._sink(event)


# ---------------------------------------------------------------------------
# The plan: addressable work units over the obligation stream
# ---------------------------------------------------------------------------


@dataclass
class DischargeUnit:
    """Obligations sharing a path prefix — one independent work unit.

    ``base`` is the common path prefix (asserted once into the unit's
    solver context); each member carries its obligation's global stream
    index and its path *suffix* beyond the base.  ``uid`` is
    deterministic — the unit's plan index plus the CFG region of its
    first obligation — and is the key every backend merges results by.
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
    base), which starts a fresh unit — so units align with CFG regions,
    and the unit count is independent of backend and job count.
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
    assumptions, lemma policy, shared query cache); backends call
    :meth:`discharge_unit` (incremental strategies) or
    :meth:`check_one` (the one-shot strategy) and merge the returned
    accounting deterministically.
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
        jobs: int = 1,
        backend: Optional[Union[str, "DischargeBackend"]] = None,
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
        self.jobs = max(1, jobs)
        self.backend_choice = backend
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
        #: Per-worker raw solve totals from the last process-backend
        #: run (pid-keyed; schedule-dependent, unlike the merged view).
        self.worker_report: Optional[Dict[str, Dict[str, int]]] = None
        #: Supervision report from the last process-backend run: pool
        #: restarts, retries and serially re-solved units.  ``None``
        #: when the run saw no incidents, so fault-free outcomes are
        #: byte-identical to builds without supervision.
        self.recovery: Optional[Dict[str, object]] = None

    @property
    def store_fingerprint(self) -> str:
        """The premise/config fingerprint store entries are keyed under."""
        if self._store_fingerprint is None:
            self._store_fingerprint = premise_fingerprint(
                self.psi, self.assumptions, self.use_lemmas
            )
        return self._store_fingerprint

    # -- cache plumbing --------------------------------------------------------

    def attach_cache(self, cache: QueryCache) -> None:
        """Swap in a shared query cache (see :class:`CachedBackend`)."""
        self.cache = cache
        self.validity.cache = cache

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
        oracle: Optional[Dict[str, CacheEntry]] = None,
    ) -> Tuple[ContextStats, SolverProfile]:
        """Discharge one unit under one pushed solver context.

        The unit's shared premises (global assumptions + path base) are
        asserted once; members are then discharged conjoined (``batch``)
        or individually.  Returns the context's counters for the
        caller's deterministic merge — nothing is accumulated on shared
        state from worker threads.  ``oracle`` pre-answers queries a
        worker process already solved (the process backend's replay).
        """
        self.check_cancelled(unit, emit)
        if emit is not None:
            emit(UnitStarted(unit.uid, len(unit.members)))
        start = time.perf_counter()
        context = SolverContext(cache=self.cache, oracle=oracle, witness=self.witness)
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
        Dict assignment is atomic, so threaded workers can record
        concurrently without a lock.
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
        """Fold per-unit counters into the engine, ordered by unit index.

        The ordered merge makes the engine's aggregate counters a pure
        function of the per-unit counters, independent of which worker
        thread finished first.
        """
        for _, (unit_stats, unit_profile) in sorted(accounts, key=lambda item: item[0]):
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
    executor is still producing obligations), records refutations into
    ``results`` keyed by global obligation index, and returns the
    per-unit ``(index, (stats, profile))`` accounts for the engine's
    deterministic merge.  ``fail_fast`` stops scheduling new units once
    a refutation lands.
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
    """Discharge units one after another, in plan order."""

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


class ThreadedBackend(DischargeBackend):
    """Discharge independent units on a worker-thread pool.

    Results and counters are merged keyed by unit id, and the shared
    query cache is single-flight, so verdicts, obligation ids, solve
    counts and the merged statistics are identical to the serial
    backend for every job count.  (The solver is pure Python: on a
    stock GIL build workers interleave rather than run concurrently, so
    ``jobs`` bounds *structural* concurrency; wall-clock gains need a
    free-threaded build or multiple cores doing I/O.)
    """

    name = "threaded"

    def __init__(self, jobs: int = 2) -> None:
        self.jobs = max(1, jobs)

    def run(self, engine, units, results, skip=None, on_failure=None,
            emit=None, batch=True, fail_fast=False):
        if emit is not None and not isinstance(emit, _LockedSink):
            emit = _LockedSink(emit)
        # Set by the first unit that raises: a worker may dequeue the next
        # unit before the main thread gets to cancel it, so each unit
        # checks the event before it starts.
        stop = threading.Event()

        def guarded(unit):
            if stop.is_set():
                return None  # never collected: an earlier unit's error is raised first
            try:
                return engine.discharge_unit(unit, results, skip, on_failure, emit, batch)
            except BaseException:
                stop.set()
                raise

        futures: List[Tuple[int, object]] = []
        with ThreadPoolExecutor(max_workers=self.jobs) as pool:
            try:
                for unit in units:
                    # Cancellation and fail-fast are checked before
                    # submitting, so early_exited means this unit (at
                    # least) was genuinely never scheduled.
                    engine.check_cancelled(unit, emit)
                    if fail_fast and results:
                        engine.early_exited = True
                        if emit is not None:
                            emit(
                                EarlyExit(
                                    unit.uid,
                                    "first refutation (fail-fast); unit not scheduled",
                                )
                            )
                        break
                    future = pool.submit(guarded, unit)
                    futures.append((unit, future))
                accounts = []
                for unit, future in futures:
                    try:
                        accounts.append((unit.index, future.result()))
                    except (DischargeCancelled, DischargeWorkerError):
                        raise
                    except Exception as err:
                        raise DischargeWorkerError(unit, err) from err
            except BaseException:
                # A worker raised (DischargeCancelled, solver error) or
                # the main thread was interrupted mid-collection
                # (KeyboardInterrupt).  Queued-but-unstarted units are
                # dropped here; without this, the executor's shutdown
                # would run the *whole* remaining plan before the
                # exception could propagate.  Running units finish their
                # current solve and unwind via their own handlers
                # (scopes popped, single-flight acquisitions released).
                for _, future in futures:
                    future.cancel()
                engine.early_exited = True
                raise
        return accounts


# -- process-backend worker plumbing ----------------------------------------
#
# Everything a worker needs must cross the pickle boundary: obligations,
# premises and cache entries are frozen dataclasses over interned
# expression nodes (all picklable), and the engine itself is rebuilt in
# each worker from a small spec at pool start.


@dataclass(frozen=True)
class _EngineSpec:
    """The picklable subset of engine configuration a worker rebuilds."""

    psi: ast.Expr
    assumptions: Tuple[ast.Expr, ...]
    use_lemmas: bool
    collect_models: bool
    batch_limit: int
    #: The parent's fault-plan spec, re-installed in each worker so
    #: worker-side directives (worker-kill, solve-fail, solve-delay)
    #: fire under both fork and spawn start methods.
    faults: Optional[str] = None
    #: Whether workers emit proof certificates (they ride back to the
    #: parent's authoritative replay inside the oracle's cache entries).
    witness: bool = False


class _RecordingCache:
    """A :class:`QueryCache` shim that records every consulted answer.

    Workers solve speculatively against their own per-process cache;
    the recorded ``digest → entry`` map is the unit's *answer oracle*,
    shipped back to the parent so its authoritative replay can skip the
    redundant solves (see :class:`ProcessPoolBackend`).
    """

    def __init__(self, inner: QueryCache) -> None:
        self.inner = inner
        self.entries: Dict[str, CacheEntry] = {}
        self.encodings = inner.encodings

    def acquire(self, key) -> Optional[CacheEntry]:
        entry = self.inner.acquire(key)
        if entry is not None:
            self.entries[oracle_digest(key)] = entry
        return entry

    def store(self, key, entry: CacheEntry) -> None:
        self.entries[oracle_digest(key)] = entry
        self.inner.store(key, entry)

    def cancel(self, key) -> None:
        self.inner.cancel(key)


_WORKER_ENGINE: Optional[DischargeEngine] = None


def _process_worker_init(spec: _EngineSpec) -> None:
    global _WORKER_ENGINE
    # Under the fork start method the worker inherits the parent's
    # signal state — including any asyncio wakeup fd, whose underlying
    # pipe is SHARED with the parent's event loop.  Detach it and
    # restore default handlers, or a signal delivered to a worker (e.g.
    # the executor terminating siblings of a crashed worker) would echo
    # into the parent loop as if the parent had been signalled.
    try:
        signal.set_wakeup_fd(-1)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    faults_mod.install(spec.faults)
    engine = DischargeEngine(
        spec.psi,
        list(spec.assumptions),
        use_lemmas=spec.use_lemmas,
        collect_models=spec.collect_models,
        witness=spec.witness,
    )
    engine.batch_limit = spec.batch_limit
    _WORKER_ENGINE = engine


def _process_worker_discharge(
    unit: DischargeUnit, batch: bool
) -> Tuple[int, int, ContextStats, SolverProfile, Dict[str, CacheEntry]]:
    """Solve one unit in a worker; return its stats and answer oracle."""
    engine = _WORKER_ENGINE
    if engine is None:  # pragma: no cover - initializer always ran
        raise RuntimeError("process worker used before initialization")
    plan = faults_mod.active()
    if plan is not None:
        delay = plan.worker_delay(unit.index)
        if delay:
            time.sleep(delay)
        failure = plan.worker_fail(unit.index)
        if failure == "fatal":
            raise RuntimeError(f"injected fatal worker error at unit {unit.index}")
        if failure is not None:
            raise faults_mod.InjectedFailure(
                f"injected solve failure at unit {unit.index}"
            )
        if plan.kill_worker(unit.index):
            os._exit(43)
    recorder = _RecordingCache(engine.cache)
    engine.attach_cache(recorder)  # type: ignore[arg-type]
    try:
        stats, profile = engine.discharge_unit(unit, {}, batch=batch)
    finally:
        engine.attach_cache(recorder.inner)
    return unit.index, os.getpid(), stats, profile, recorder.entries


def _process_context() -> multiprocessing.context.BaseContext:
    """Fork where available (cheap: interned tables come along); the
    platform default elsewhere."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-fork platforms
        return multiprocessing.get_context()


class ProcessPoolBackend(DischargeBackend):
    """Discharge units on worker *processes* — real multicore solving.

    Each worker owns a full Encoder/SMTSolver/QueryCache stack and
    solves whole units speculatively, recording every answer it
    consulted.  The parent then **replays** each unit, in plan order,
    through the ordinary serial discharge path against the shared query
    cache — with the worker's answer map as a solve *oracle*: a shared
    cache miss whose answer the oracle holds is accounted exactly like
    a serial solve and never touches the parent's DPLL(T) core.  The
    replay therefore reproduces the serial backend's exact hit/miss/
    solve sequence: verdicts, obligation ids, failure lists, the event
    stream and the merged counters are byte-identical to
    :class:`SerialBackend` for every job count, while the expensive
    solving runs concurrently in the workers.  (An oracle miss — a
    replay query no worker happened to solve — simply falls through to
    a real parent-side solve, trading a little speed for none of the
    determinism.)

    Fail-fast inherits the same determinism: replays run in plan
    order, so the run stops at exactly the unit the serial backend
    stops at, with the same failures and counters.  Only the stream
    *generation* extent can run ahead of serial there — workers solve
    speculatively, so obligations may be produced (never discharged)
    past the refuting unit.

    Raw per-worker solve totals (schedule-dependent, unlike the merged
    view) are published on ``engine.worker_report``.

    **Supervision.**  The replay-is-the-source-of-truth design makes
    recovery free of special cases: a replay whose worker died (or
    missed its solve deadline, or raised an injected failure) simply
    runs with ``oracle=None`` — which *is* a genuine serial solve
    against the shared cache — so verdicts, failure lists, oids, the
    event stream and the merged counters stay byte-identical to
    :class:`SerialBackend` even when every worker is killed.  A broken
    pool is respawned up to ``max_restarts`` times; past that budget
    the run degrades to fully-serial discharge for the remaining units.
    Incidents are published on ``engine.recovery`` (``None`` for clean
    runs, so fault-free outcomes are unchanged).

    Houdini-style pruning (``skip``) consults a live closure per
    obligation, which cannot cross the process boundary — those runs
    delegate to :class:`SerialBackend`.
    """

    name = "process"

    def __init__(self, jobs: int = 2, deadline: Optional[float] = None,
                 max_restarts: int = 2) -> None:
        self.jobs = max(1, jobs)
        #: Per-unit worker solve deadline in seconds (None = no limit).
        self.deadline = deadline
        #: How many broken pools to respawn before degrading to serial.
        self.max_restarts = max(0, max_restarts)

    def run(self, engine, units, results, skip=None, on_failure=None,
            emit=None, batch=True, fail_fast=False):
        if skip is not None:
            return SerialBackend().run(
                engine, units, results, skip=skip, on_failure=on_failure,
                emit=emit, batch=batch, fail_fast=fail_fast,
            )
        plan = faults_mod.active()
        spec = _EngineSpec(
            engine.psi,
            tuple(engine.assumptions),
            engine.use_lemmas,
            engine.collect_models,
            engine.batch_limit,
            faults=plan.spec if plan is not None else None,
            witness=engine.witness,
        )
        accounts: List[Tuple[int, Tuple[ContextStats, SolverProfile]]] = []
        per_worker: Dict[str, Dict[str, int]] = {}
        #: (unit, future-or-None, pool generation); a None future means
        #: the pool was gone at submit time and the unit is serial-only.
        pending: "deque[Tuple[DischargeUnit, object, int]]" = deque()
        failed_uid: Optional[str] = None
        state = {"pool": None, "generation": 0, "restarts": 0}

        def recovery() -> Dict[str, object]:
            if engine.recovery is None:
                engine.recovery = {
                    "pool_restarts": 0,
                    "retries": 0,
                    "recovered_units": [],
                    "incidents": [],
                }
            return engine.recovery

        def note(unit: DischargeUnit, cause: str) -> None:
            recovery()["incidents"].append(f"{unit.uid}: {cause}")

        def spawn() -> None:
            state["pool"] = ProcessPoolExecutor(
                max_workers=self.jobs,
                mp_context=_process_context(),
                initializer=_process_worker_init,
                initargs=(spec,),
            )

        def retire(generation: int) -> None:
            """A pool broke: respawn within budget, else degrade to
            serial-only for everything still outstanding.  Generation
            guards make the many broken futures of one crash retire
            (and count) the pool exactly once."""
            if generation != state["generation"]:
                return
            state["generation"] += 1
            pool, state["pool"] = state["pool"], None
            if pool is not None:
                pool.shutdown(wait=False, cancel_futures=True)
            if state["restarts"] < self.max_restarts:
                state["restarts"] += 1
                recovery()["pool_restarts"] += 1
                spawn()

        def submit(unit: DischargeUnit) -> Tuple[object, int]:
            for _ in range(2):
                pool = state["pool"]
                if pool is None:
                    break
                try:
                    future = pool.submit(_process_worker_discharge, unit, batch)
                    return future, state["generation"]
                except (BrokenExecutor, RuntimeError):
                    # The pool broke between a result and this submit
                    # (RuntimeError = submit raced its shutdown).
                    retire(state["generation"])
            return None, state["generation"]

        def fetch(unit: DischargeUnit, future, generation: int,
                  retried: bool = False):
            """The worker's result tuple, or None after a supervised
            failure — the caller then re-solves the unit serially."""
            if future is None:
                return None
            try:
                return future.result(timeout=self.deadline)
            except FutureTimeoutError:
                future.cancel()
                note(unit, "deadline exceeded" + (" (retry)" if retried else ""))
                if retried:
                    return None
                recovery()["retries"] += 1
                return fetch(unit, *submit(unit), retried=True)
            except faults_mod.InjectedFailure as err:
                note(unit, f"worker failure: {err}" + (" (retry)" if retried else ""))
                if retried:
                    return None
                recovery()["retries"] += 1
                return fetch(unit, *submit(unit), retried=True)
            except BrokenExecutor:
                note(unit, "worker crashed")
                retire(generation)
                return None
            except (DischargeCancelled, DischargeWorkerError):
                raise
            except Exception as err:
                raise DischargeWorkerError(unit, err) from err

        def replay_one() -> None:
            nonlocal failed_uid
            unit, future, generation = pending.popleft()
            got = fetch(unit, future, generation)
            oracle = None
            if got is not None:
                _, pid, w_stats, w_profile, oracle = got
                bucket = per_worker.setdefault(
                    f"pid{pid}",
                    {"units": 0, "queries": 0, "cache_hits": 0, "solve_calls": 0},
                )
                bucket["units"] += 1
                bucket["queries"] += w_stats.queries
                bucket["cache_hits"] += w_stats.cache_hits
                bucket["solve_calls"] += w_stats.solve_calls
            else:
                recovery()["recovered_units"].append(unit.uid)
            # With an oracle, the replay skips the redundant solves;
            # with oracle=None (supervised failure) it *is* a genuine
            # serial solve — identical counters either way.
            stats, profile = engine.discharge_unit(
                unit, results, None, on_failure, emit, batch, oracle=oracle
            )
            if got is not None:
                # The replay's counters are the canonical (serial-
                # identical) account; the worker's inner-loop profile is
                # where the pivots actually happened, so fold it in for
                # honest --profile totals.
                profile.merge(w_profile)
            accounts.append((unit.index, (stats, profile)))
            if fail_fast and results and failed_uid is None:
                failed_uid = unit.uid

        units = iter(units)
        spawn()
        try:
            # Replays run strictly in plan order, so the first unit
            # whose replay records a refutation is the same unit the
            # serial backend would have stopped at — fail-fast is as
            # deterministic as everything else, however the workers
            # were actually scheduled (or supervised).
            while failed_uid is None:
                unit = next(units, None)
                if unit is None:
                    break
                engine.check_cancelled(unit, emit)
                pending.append((unit, *submit(unit)))
                # Opportunistic in-order replay keeps the parent's
                # shared cache warm while the stream is still
                # producing (and surfaces fail-fast refutations as
                # early as the serial backend would).
                while (pending and failed_uid is None
                       and (pending[0][1] is None or pending[0][1].done())):
                    replay_one()
            while pending and failed_uid is None:
                replay_one()
            if failed_uid is not None and (pending or next(units, None) is not None):
                # Mirror SerialBackend: only an early exit if work
                # actually remained past the refuted unit.  Units
                # already speculatively solved in the workers are
                # simply discarded unreplayed.
                engine.early_exited = True
                if emit is not None:
                    emit(EarlyExit(failed_uid, "first refutation (fail-fast)"))
            for _, future, _ in pending:
                if future is not None:
                    future.cancel()
            pending.clear()
        except BaseException:
            # Mirror ThreadedBackend: a worker raised or the main
            # thread was interrupted mid-collection.  Queued-but-
            # unstarted units are dropped here — without this, pool
            # shutdown would run the whole remaining plan before
            # the exception could propagate.
            for _, future, _ in pending:
                if future is not None:
                    future.cancel()
            engine.early_exited = True
            raise
        finally:
            pool, state["pool"] = state["pool"], None
            if pool is not None:
                pool.shutdown(wait=True, cancel_futures=True)
        engine.worker_report = {pid: dict(row) for pid, row in sorted(per_worker.items())}
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
            # entry records the unit for the deterministic merge/count.
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


class CachedBackend(DischargeBackend):
    """Wrap another backend with a shared (single-flight) query cache.

    The pipeline holds one :class:`QueryCache` per batch; wrapping the
    chosen backend installs it on the engine, so identical queries
    across programs, bindings and Houdini rounds are solved once.
    """

    def __init__(self, inner: DischargeBackend, cache: Optional[QueryCache] = None) -> None:
        self.inner = inner
        self.cache = cache if cache is not None else QueryCache()

    @property
    def name(self) -> str:
        return f"cached+{self.inner.name}"

    def run(self, engine, units, results, **kwargs):
        engine.attach_cache(self.cache)
        return self.inner.run(engine, units, results, **kwargs)


def resolve_backend(
    incremental: bool = True,
    jobs: int = 1,
    choice: Optional[Union[str, DischargeBackend]] = None,
    cache: Optional[QueryCache] = None,
) -> DischargeBackend:
    """The backend a configuration denotes.

    ``choice`` wins when given (a name or a ready backend instance);
    otherwise the legacy knobs decide: ``incremental=False`` → one-shot,
    ``jobs > 1`` → threaded, else serial.  When no choice is pinned the
    ``REPRO_VERIFY_JOBS`` environment variable can raise the default
    parallelism and ``REPRO_VERIFY_BACKEND`` can name a different
    default backend (that is how the CI jobs-smoke and
    process-backend-smoke legs run the whole test suite through the
    threaded and process backends).  ``cache`` wraps the result in a
    :class:`CachedBackend`.
    """
    backend: DischargeBackend
    if isinstance(choice, DischargeBackend):
        backend = choice
    else:
        name = choice
        if name is None:
            unpinned = incremental and jobs == 1
            env = os.environ.get(JOBS_ENV_VAR)
            if env and unpinned:
                try:
                    jobs = max(1, int(env))
                except ValueError:
                    pass
            name = "oneshot" if not incremental else ("threaded" if jobs > 1 else "serial")
            env_backend = os.environ.get(BACKEND_ENV_VAR)
            if env_backend and unpinned:
                name = env_backend
        if name == "serial":
            backend = SerialBackend()
        elif name == "threaded":
            backend = ThreadedBackend(jobs=max(2, jobs) if jobs > 1 else jobs)
        elif name == "process":
            backend = ProcessPoolBackend(
                jobs=max(2, jobs) if jobs > 1 else jobs,
                deadline=_env_deadline(),
            )
        elif name == "oneshot":
            backend = OneShotBackend()
        else:
            raise ValueError(
                f"unknown discharge backend {name!r};"
                " expected serial, threaded, process or oneshot"
            )
    if cache is not None:
        backend = CachedBackend(backend, cache)
    return backend


def _env_deadline() -> Optional[float]:
    """The ``REPRO_UNIT_DEADLINE`` per-unit deadline, when set and sane."""
    env = os.environ.get(DEADLINE_ENV_VAR)
    if not env:
        return None
    try:
        value = float(env)
    except ValueError:
        return None
    return value if value > 0 else None


def effective_jobs(backend: DischargeBackend) -> int:
    """The worker count a backend actually discharges with.

    Unwraps :class:`CachedBackend`; serial and one-shot backends run on
    the caller's thread (1).
    """
    inner = getattr(backend, "inner", backend)
    return getattr(inner, "jobs", 1)


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
