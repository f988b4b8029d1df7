"""The staged verification pipeline.

The ShadowDP pipeline is a fixed sequence of six named stages::

    parse ──▶ check ──▶ lower_ir ──▶ lower ──▶ optimize ──▶ verify

* ``parse``    — concrete syntax → :class:`~repro.lang.ast.FunctionDef`
* ``check``    — the flow-sensitive shadow type system →
  :class:`~repro.core.checker.CheckedProgram` (instrumented body)
* ``lower_ir`` — the instrumented body lowered onto the shared
  basic-block CFG → :class:`~repro.ir.ProgramIR`; every later
  transformation is a pass over this graph
* ``lower``    — Fig. 5 transformation to the non-probabilistic target
  language (CFG rewrite passes) →
  :class:`~repro.target.transform.TargetProgram`
* ``optimize`` — dead hat-store elimination (CFG liveness pass) →
  ``TargetProgram``
* ``verify``   — obligation generation (block-by-block symbolic
  execution) + SMT discharge →
  :class:`~repro.verify.verifier.VerificationOutcome`

:class:`Pipeline` runs the stages individually or end-to-end, records a
:class:`StageResult` per stage (artifact, wall-clock seconds, solver
queries), and memoizes every stage on the SHA-256 of the source text
(plus the verification-config fingerprint for ``verify``), so repeated
runs — different bindings over one program, batch sweeps, annotation
search — skip all unchanged prefix work.  :meth:`Pipeline.run_many`
batches a whole algorithm registry through one shared cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Tuple, Union

from repro.core.checker import CheckedProgram, check_function
from repro.ir import PassManager, ProgramIR, ast_to_cfg, fold_constant_guards
from repro.lang import ast
from repro.lang.parser import parse_function
from repro.lang.pretty import pretty_function
from repro.solver.context import QueryCache
from repro.target.transform import TargetProgram, to_target
from repro.verify.discharge import EventSink
from repro.verify.store import CheckAnswers, resolve_store
from repro.verify.verifier import (
    VerificationConfig,
    VerificationOutcome,
    verify_target,
)

#: The stage names, in execution order.
STAGES: Tuple[str, ...] = ("parse", "check", "lower_ir", "lower", "optimize", "verify")

#: A pipeline input: concrete syntax, or an already-parsed function.
Program = Union[str, ast.FunctionDef]


class PipelineError(ValueError):
    """Raised for unknown stage names or malformed pipeline inputs."""


@dataclass
class StageResult:
    """One stage's outcome: the artifact plus accounting.

    ``seconds`` is the wall-clock cost of *producing* the artifact (0.0
    when it came out of the memo cache); ``solver_queries`` counts the
    SMT queries the stage issued (only ``check`` and ``verify`` consult
    the solver) and ``solver_cache_hits`` how many of those were answered
    from the shared query cache.  ``solver_stats`` carries the full
    incremental-solver counter set (solve calls, context pushes/pops,
    discharge strategy and units) for ``verify``; for ``check`` it holds
    ``queries``, ``cache_hits`` and ``solve_calls``, plus
    ``certificates`` when witnesses were on and ``store`` (this stage's
    store traffic) when its answers came from a store.
    """

    stage: str
    artifact: Any
    seconds: float
    solver_queries: int = 0
    cached: bool = False
    solver_cache_hits: int = 0
    solver_stats: Optional[Dict[str, int]] = None
    ir_stats: Optional[Dict[str, Any]] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "stage": self.stage,
            "seconds": round(self.seconds, 6),
            "solver_queries": self.solver_queries,
            "solver_cache_hits": self.solver_cache_hits,
            "cached": self.cached,
        }
        if self.solver_stats is not None:
            data["solver_stats"] = dict(self.solver_stats)
        if self.ir_stats is not None:
            data["ir"] = dict(self.ir_stats)
        return data


def _ir_stats_of(artifact: Any) -> Optional[Dict[str, Any]]:
    """CFG statistics for artifacts that are (or carry) a ProgramIR."""
    if isinstance(artifact, ProgramIR):
        return artifact.stats()
    ir = getattr(artifact, "ir", None)
    if isinstance(ir, ProgramIR):
        return ir.stats()
    return None


@dataclass
class PipelineRun:
    """Everything one program's trip through the pipeline produced."""

    source: str
    source_hash: str
    stages: Dict[str, StageResult] = field(default_factory=dict)

    # -- artifact accessors --------------------------------------------------

    def artifact(self, stage: str) -> Any:
        result = self.stages.get(stage)
        return result.artifact if result is not None else None

    @property
    def function(self) -> Optional[ast.FunctionDef]:
        return self.artifact("parse")

    @property
    def checked(self) -> Optional[CheckedProgram]:
        return self.artifact("check")

    @property
    def ir(self) -> Optional[ProgramIR]:
        """The checked body's CFG-based IR (the ``lower_ir`` artifact)."""
        return self.artifact("lower_ir")

    @property
    def target(self) -> Optional[TargetProgram]:
        """The optimized target when available, else the raw lowering."""
        optimized = self.artifact("optimize")
        return optimized if optimized is not None else self.artifact("lower")

    @property
    def outcome(self) -> Optional[VerificationOutcome]:
        return self.artifact("verify")

    @property
    def verified(self) -> Optional[bool]:
        outcome = self.outcome
        return None if outcome is None else outcome.verified

    @property
    def name(self) -> str:
        function = self.function
        return function.name if function is not None else "<unparsed>"

    # -- accounting ----------------------------------------------------------

    @property
    def seconds(self) -> float:
        return sum(r.seconds for r in self.stages.values())

    @property
    def solver_queries(self) -> int:
        return sum(r.solver_queries for r in self.stages.values())

    @property
    def solver_cache_hits(self) -> int:
        return sum(r.solver_cache_hits for r in self.stages.values())

    def describe(self) -> str:
        parts = []
        for name in STAGES:
            result = self.stages.get(name)
            if result is None:
                continue
            suffix = " (cached)" if result.cached else f" {result.seconds:.3f}s"
            parts.append(f"{name}{suffix}")
        verdict = ""
        if self.outcome is not None:
            verdict = " — " + self.outcome.describe()
        return f"{self.name}: " + " → ".join(parts) + verdict

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "source_sha256": self.source_hash,
            "stages": [self.stages[s].to_dict() for s in STAGES if s in self.stages],
            "seconds": round(self.seconds, 6),
            "solver_queries": self.solver_queries,
            "solver_cache_hits": self.solver_cache_hits,
        }
        outcome = self.outcome
        if outcome is not None:
            data["verified"] = outcome.verified
            data["obligations_total"] = outcome.obligations_total
            data["failures"] = [f.describe() for f in outcome.failures]
        return data


def source_hash(source: str) -> str:
    """The memoization key of a program: SHA-256 of its source text."""
    return hashlib.sha256(source.encode("utf-8")).hexdigest()


def _config_fingerprint(config: VerificationConfig) -> str:
    """A stable cache key component for a verification configuration.

    The solver strategy (``incremental``) is part of the key even
    though it cannot change the verdict: a rerun requested with a
    different strategy is usually after the *statistics* (cache hits,
    solve calls), which a memoized artifact from the other strategy
    would silently misreport.
    """
    return repr(
        (
            config.mode,
            sorted(config.bindings.items()),
            config.assumptions,
            config.unroll_limit,
            config.extra_invariants,
            config.use_lemmas,
            config.collect_models,
            config.incremental,
            config.fail_fast,
            config.profile,
            # The persistent store changes what a run *does* (lookups,
            # write-backs, reported StoreStats), so runs against
            # different stores must not share a memo entry.
            getattr(config.store, "path", config.store),
            # Witnessed runs report certificate counts and validate
            # warm hits — different observable behaviour, own entry.
            config.witness,
        )
    )


class Pipeline:
    """A configured, memoizing instance of the five-stage pipeline.

    Parameters
    ----------
    config:
        Default :class:`VerificationConfig` for the ``verify`` stage;
        per-call configs override it.
    memoize:
        When True (default) stage artifacts are cached keyed on the
        source hash, so re-running any prefix of the pipeline on an
        unchanged program is free.  ``parse``/``check``/``lower_ir``/
        ``lower``/``optimize`` are config-independent; ``verify`` additionally
        keys on the config fingerprint, so sweeping bindings over one
        program re-verifies but never re-checks.

    Cache hits and misses are tallied per stage in :attr:`cache_hits` /
    :attr:`cache_misses`.

    Below the stage memo sits a second, finer cache: one shared
    :class:`QueryCache` (:attr:`query_cache`) threaded through every
    ``check`` and ``verify`` stage this pipeline runs, so identical
    solver queries recur for free across programs, annotation
    candidates, bindings, batch sweeps (:meth:`run_many`) and serve
    requests.  A witnessed stage never takes a certificate-less valid
    answer from the cache, it solves that query again with proof (see
    :meth:`QueryCache.acquire`).

    **The store.**  With ``config.store`` set, :meth:`run` opens the
    store once for both stages and marks every row the run was answered
    from in one commit.  With ``config.witness`` on as well, the
    ``check`` stage answers type-check queries from the store's
    check-stage rows, each valid one only after the trusted kernel
    accepts its certificate, and writes fresh answers back (see
    :class:`~repro.verify.store.CheckAnswers`).  An unwitnessed check
    stage neither reads nor writes the store.

    **Thread safety.**  A memoizing pipeline may be shared by concurrent
    callers (``repro serve`` runs one per daemon, with requests on a
    worker pool): the stage memo is locked and **single-flight** —
    concurrent identical stage productions run *once*; the other callers
    block and receive the memoized result as a hit, exactly as if they
    had arrived after it serially.  Combined with the single-flight
    :class:`QueryCache`, verdicts and counters of a concurrent request
    mix are the same as a serial replay of those requests.
    """

    def __init__(
        self,
        config: Optional[VerificationConfig] = None,
        memoize: bool = True,
        query_cache: Optional[QueryCache] = None,
    ) -> None:
        self.config = config or VerificationConfig()
        self.memoize = memoize
        self.query_cache = query_cache if query_cache is not None else QueryCache()
        self._cache: Dict[Tuple[str, str, str], StageResult] = {}
        self._lock = threading.Lock()
        #: Stage productions currently in flight → event waiters block on.
        self._flights: Dict[Tuple[str, str, str], threading.Event] = {}
        self.cache_hits: Dict[str, int] = {name: 0 for name in STAGES}
        self.cache_misses: Dict[str, int] = {name: 0 for name in STAGES}

    # -- cache plumbing ------------------------------------------------------

    def clear_cache(self) -> None:
        with self._lock:
            self._cache.clear()
            flights = list(self._flights.values())
            self._flights.clear()
        # Waiters wake, find no entry, and the first of them takes over
        # each flight.
        for flight in flights:
            flight.set()

    def memo_stats(self) -> Dict[str, Any]:
        """A snapshot of the stage-memo counters (for ``repro serve`` status)."""
        with self._lock:
            return {
                "entries": len(self._cache),
                "in_flight": len(self._flights),
                "hits": dict(self.cache_hits),
                "misses": dict(self.cache_misses),
            }

    def _memo(self, stage: str, key: str, extra: str, produce) -> StageResult:
        cache_key = (stage, key, extra)
        if not self.memoize:
            with self._lock:
                self.cache_misses[stage] += 1
            return self._produce(stage, produce)
        while True:
            with self._lock:
                hit = self._cache.get(cache_key)
                if hit is not None:
                    self.cache_hits[stage] += 1
                    # A hit issues no solver queries and takes no time:
                    # both are the marginal cost of *this* run, not of
                    # the cached artifact.  CFG shape, by contrast, is a
                    # property of the artifact.
                    return StageResult(
                        stage, hit.artifact, 0.0, 0, cached=True, ir_stats=hit.ir_stats
                    )
                flight = self._flights.get(cache_key)
                if flight is None:
                    # We own this key's single flight: produce below.
                    self._flights[cache_key] = threading.Event()
                    self.cache_misses[stage] += 1
                    break
            # Another caller is already producing this exact stage
            # artifact; wait for it and take the memoized result.
            flight.wait()
        try:
            result = self._produce(stage, produce)
        except BaseException:
            # Release the flight without a result (cancelled or failed
            # production): waiters wake and the first retakes the key.
            self._release_flight(cache_key)
            raise
        with self._lock:
            self._cache[cache_key] = result
        self._release_flight(cache_key)
        return result

    def _release_flight(self, cache_key: Tuple[str, str, str]) -> None:
        with self._lock:
            flight = self._flights.pop(cache_key, None)
        if flight is not None:
            flight.set()

    @staticmethod
    def _produce(stage: str, produce) -> StageResult:
        start = time.perf_counter()
        produced = produce()
        artifact, queries = produced[0], produced[1]
        stats = produced[2] if len(produced) > 2 else None
        return StageResult(
            stage,
            artifact,
            time.perf_counter() - start,
            queries,
            solver_cache_hits=(stats or {}).get("cache_hits", 0),
            solver_stats=stats,
            ir_stats=_ir_stats_of(artifact),
        )

    # -- stage bodies --------------------------------------------------------

    def _parse(self, key: str, source: str) -> StageResult:
        return self._memo("parse", key, "", lambda: (parse_function(source), 0))

    def _check(
        self, key: str, function: ast.FunctionDef, config: VerificationConfig
    ) -> StageResult:
        witness = config.witness
        # ``run`` has resolved the store to an instance by now.
        store = config.store if witness else None

        def produce():
            answers = CheckAnswers(store) if store is not None else None
            before = store.snapshot() if store is not None else None
            try:
                checked = check_function(
                    function, cache=self.query_cache, witness=witness, answers=answers
                )
            finally:
                if answers is not None:
                    answers.flush()
            stats = {
                "queries": checked.solver_queries,
                "cache_hits": checked.solver_cache_hits,
                "solve_calls": checked.solve_calls,
            }
            if witness:
                stats["certificates"] = len(checked.certificates)
            if store is not None:
                stats["store"] = store.delta_since(before)
            return checked, checked.solver_queries, stats

        # A witnessed check reports certificates and may read a store:
        # its own memo entry per store.
        extra = repr((witness, getattr(store, "path", None))) if witness else ""
        return self._memo("check", key, extra, produce)

    #: The named CFG passes ``lower_ir`` runs after building the graph;
    #: recorded on the artifact's pass trail (``ir_stats["passes"]``).
    IR_PASSES: Tuple[Tuple[str, Any], ...] = (
        ("fold-constant-guards", fold_constant_guards),
    )

    def _lower_ir(self, key: str, checked: CheckedProgram) -> StageResult:
        def produce():
            ir = ProgramIR(checked.function, ast_to_cfg(checked.body))
            ir = PassManager(self.IR_PASSES).run(ir)
            return ir, 0

        return self._memo("lower_ir", key, "", produce)

    def _lower(self, key: str, checked: CheckedProgram, ir: ProgramIR) -> StageResult:
        return self._memo(
            "lower", key, "", lambda: (to_target(checked, optimize=False, ir=ir), 0)
        )

    def _optimize(self, key: str, target: TargetProgram) -> StageResult:
        return self._memo("optimize", key, "", lambda: (target.optimized(), 0))

    def _verify(
        self,
        key: str,
        target: TargetProgram,
        config: VerificationConfig,
        on_event: EventSink = None,
    ) -> StageResult:
        def produce():
            outcome = verify_target(
                target, config, cache=self.query_cache, on_event=on_event
            )
            return outcome, outcome.solver_queries, outcome.solver_stats()

        return self._memo("verify", key, _config_fingerprint(config), produce)

    # -- public API ----------------------------------------------------------

    def run(
        self,
        program: Program,
        config: Optional[VerificationConfig] = None,
        stop_after: str = "verify",
        profile: Optional[bool] = None,
        on_event: EventSink = None,
    ) -> PipelineRun:
        """Run the pipeline through ``stop_after`` (inclusive).

        ``program`` is either ShadowDP concrete syntax or an
        already-parsed :class:`~repro.lang.ast.FunctionDef` (useful for
        programmatically constructed candidates, e.g. annotation
        inference); in the latter case the ``parse`` stage is recorded
        as instantaneous and memoization keys on the pretty-printed
        form, which round-trips through the parser.

        ``profile=True`` attaches the inner-loop solver counters
        (pivots, propagations, conflicts, restarts, interned-node hits…)
        to the ``verify`` stage's ``solver_stats`` under a ``"profile"``
        key (see :class:`repro.solver.profile.SolverProfile`).

        ``on_event`` receives the ``verify`` stage's typed
        :class:`~repro.verify.discharge.DischargeEvent` stream as units
        are scheduled and obligations discharged (no events fire when
        the stage comes out of the memo cache).  Combine with
        ``config.fail_fast`` to stop discharging at the first
        refutation.
        """
        if stop_after not in STAGES:
            raise PipelineError(
                f"unknown stage {stop_after!r}; expected one of {', '.join(STAGES)}"
            )
        config = config or self.config
        if profile is not None and profile != config.profile:
            config = dataclasses.replace(config, profile=profile)
        store = resolve_store(config.store)
        # Opened here from a path for this run alone; a caller's
        # instance (the server's shared store) stays open.
        owned = store is not None and store is not config.store
        if owned:
            config = dataclasses.replace(config, store=store)
        try:
            with store.batched_touches() if store is not None else nullcontext():
                return self._run(program, config, stop_after, on_event)
        finally:
            if owned:
                store.close()

    def _run(
        self,
        program: Program,
        config: VerificationConfig,
        stop_after: str,
        on_event: EventSink,
    ) -> PipelineRun:
        if isinstance(program, ast.FunctionDef):
            source = pretty_function(program)
            key = source_hash(source)
            run = PipelineRun(source=source, source_hash=key)
            run.stages["parse"] = self._memo(
                "parse", key, "", lambda: (program, 0)
            )
        elif isinstance(program, str):
            source = program
            key = source_hash(source)
            run = PipelineRun(source=source, source_hash=key)
            run.stages["parse"] = self._parse(key, source)
        else:
            raise PipelineError(
                f"pipeline input must be source text or a FunctionDef, got {type(program).__name__}"
            )
        if stop_after == "parse":
            return run

        run.stages["check"] = self._check(key, run.stages["parse"].artifact, config)
        if stop_after == "check":
            return run

        run.stages["lower_ir"] = self._lower_ir(key, run.stages["check"].artifact)
        if stop_after == "lower_ir":
            return run

        run.stages["lower"] = self._lower(
            key, run.stages["check"].artifact, run.stages["lower_ir"].artifact
        )
        if stop_after == "lower":
            return run

        run.stages["optimize"] = self._optimize(key, run.stages["lower"].artifact)
        if stop_after == "optimize":
            return run

        run.stages["verify"] = self._verify(
            key, run.stages["optimize"].artifact, config, on_event
        )
        return run

    def run_stage(self, program: Program, stage: str, config: Optional[VerificationConfig] = None) -> StageResult:
        """Run one named stage (and, via the cache, its prerequisites)."""
        return self.run(program, config=config, stop_after=stage).stages[stage]

    def run_many(
        self,
        programs: Iterable[Any],
        config: Optional[VerificationConfig] = None,
        stop_after: str = "verify",
        on_event: EventSink = None,
        stop_on_failure: bool = False,
    ) -> List[PipelineRun]:
        """Batch a collection of programs through one shared cache.

        Items may be source strings, ``FunctionDef``s, or algorithm
        specs (anything with a ``.source`` attribute, e.g.
        :class:`repro.algorithms.spec.AlgorithmSpec`).  For specs with
        no explicit ``config`` argument, a per-spec unroll-mode
        configuration is derived from ``fixed_bindings`` and
        ``assumptions`` — the registry's Table-1 regime.

        ``on_event`` streams every program's discharge events;
        ``stop_on_failure`` ends the batch at the first refuted program
        (pair it with ``config.fail_fast`` to also stop that program's
        own discharge at its first refutation).
        """
        runs: List[PipelineRun] = []
        for item in programs:
            item_config = config
            program: Program
            if isinstance(item, (str, ast.FunctionDef)):
                program = item
            elif hasattr(item, "source"):
                program = item.source
                if item_config is None:
                    item_config = spec_config(item)
            else:
                raise PipelineError(
                    f"run_many items must be sources, FunctionDefs or specs, got {type(item).__name__}"
                )
            run = self.run(
                program, config=item_config, stop_after=stop_after, on_event=on_event
            )
            runs.append(run)
            if stop_on_failure and run.verified is False:
                break
        return runs


def spec_config(spec: Any, unroll_limit: int = 16) -> VerificationConfig:
    """The unroll-regime configuration an algorithm spec describes.

    Mirrors Table 1's "fix ε" rows: concrete loop bounds from
    ``fixed_bindings`` plus the spec's parameter assumptions.
    """
    return VerificationConfig(
        mode="unroll",
        bindings=dict(getattr(spec, "fixed_bindings", {}) or {}),
        assumptions=tuple(spec.assumption_exprs()) if hasattr(spec, "assumption_exprs") else (),
        unroll_limit=unroll_limit,
    )
