"""Incremental solver contexts and the shared query cache.

Two pieces sit between the high-level validity interface and the raw
DPLL(T) core:

:class:`QueryCache`
    A thread-safe map from *normalized* entailment queries to their
    answers (and countermodels).  Normalization —
    simplification, premise deduplication and canonical ordering — makes
    alpha-trivial variants of a query (permuted premises, ``x+0`` vs
    ``x``) hit the same entry, which the raw-AST-keyed caches of earlier
    releases missed.  One cache instance is threaded through a whole
    :class:`repro.pipeline.Pipeline`, so type checks, batch sweeps and
    Houdini rounds share answers across programs and configurations.

:class:`SolverContext`
    A persistent :class:`~repro.solver.encode.Encoder` +
    :class:`~repro.solver.smt.SMTSolver` pair with push/pop assumption
    scopes.  Premises shared by many queries (a VC path prefix, the
    global assumptions) are asserted once at the base; each query then
    costs one pushed scope, one solve and one pop — Tseitin structure
    and learned theory lemmas carry over between queries.  A refuted
    query's countermodel comes out of the *same* solve that refuted it
    (no second solve).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.core.simplify import simplify
from repro.lang import ast
from repro.solver import formula as F
from repro.solver.encode import Encoder, EncodingMemo
from repro.solver.profile import SolverProfile
from repro.solver.smt import SatResult, SMTSolver

#: A counterexample: (arithmetic model, boolean model).
Model = Tuple[Dict[str, Fraction], Dict[str, bool]]


# ---------------------------------------------------------------------------
# Query normalization
# ---------------------------------------------------------------------------


def normalize_query(
    goal: ast.Expr,
    premises: Iterable[ast.Expr],
    bool_vars: Iterable[str] = (),
) -> Tuple:
    """A canonical cache key for ``premises ⊨ goal``.

    Premises are simplified, trivially-true ones dropped, duplicates
    removed, and the remainder sorted by their repr — so premise order,
    repetition and already-simplified duplicates cannot cause a miss.
    """
    kept: List[ast.Expr] = []
    seen: Set[ast.Expr] = set()
    for premise in premises:
        premise = simplify(premise)
        if premise == ast.TRUE or premise in seen:
            continue
        seen.add(premise)
        kept.append(premise)
    kept.sort(key=repr)
    return (simplify(goal), tuple(kept), frozenset(bool_vars))


def query_oid(key: Tuple) -> str:
    """A stable id for a normalized query: sha256 of its canonical text.

    The text is the ``repr`` of the simplified goal, the ordered premises
    and the sorted boolean variables — everything the answer depends on
    — so the id is the same across runs, processes and hash seeds.  The
    check stage keys its persistent store rows by it.
    """
    goal, premises, bool_vars = key
    text = repr((goal, premises, tuple(sorted(bool_vars))))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass
class CacheEntry:
    """A memoized entailment answer.

    ``status`` is the solver verdict on ``premises ∧ ¬goal`` ("unsat" =
    valid, "sat" = refuted with ``model``, "unknown" = gave up).
    ``certificate`` is the proof witness behind a valid answer when the
    solve ran with witnesses on; None for refuted/unknown answers and
    for witness-off solves.
    """

    valid: bool
    status: str
    model: Optional[Model] = None
    certificate: Optional[object] = None


class QueryCache:
    """A thread-safe, **single-flight**, **LRU** cache of normalized
    validity queries.

    ``hits``/``misses`` count lookups globally; callers that want
    per-consumer accounting (e.g. :class:`ValidityChecker`) keep their
    own tallies from the lookup results.

    The cache is bounded: once ``max_entries`` is reached the least
    recently *used* entry (lookups and stores both refresh recency) is
    evicted, so long Houdini runs and registry sweeps cannot grow it
    without limit.  ``evictions`` counts the entries dropped; the full
    counter set is available from :meth:`stats`.

    **Single-flight:** :meth:`acquire` hands the same key to exactly one
    solver at a time — a second thread asking while the first is mid
    solve *waits* for the stored answer instead of solving redundantly.
    ``repro serve`` runs concurrent requests on threads that share one
    cache, so across a request mix the number of solves equals the
    number of distinct normalized queries, regardless of scheduling.  In
    the uncontended case ``acquire``/``store`` count exactly like
    ``lookup``/``store``.

    ``encodings`` is the :class:`~repro.solver.encode.EncodingMemo` every
    encoder built for this cache shares (same ``max_entries`` bound), so
    a premise or atom is encoded once per cache, not once per query.

    **Certified lookups:** an entry can be stored without a certificate
    (a witness-off consumer solved it), while a witnessed consumer needs
    one behind every valid answer.  ``acquire(key, certified=True)``
    treats a valid entry that has no certificate as a miss; the caller
    then solves with proof under the key's single flight and its
    :meth:`store` replaces the entry.  Refutations carry no certificate,
    so they hit either way.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self._entries: "OrderedDict[Tuple, CacheEntry]" = OrderedDict()
        self._lock = threading.Lock()
        #: Keys currently being solved → event waiters block on.
        self._pending: Dict[Tuple, threading.Event] = {}
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.encodings = EncodingMemo(max_entries)

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, key: Tuple) -> Optional[CacheEntry]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
            return entry

    def acquire(self, key: Tuple, certified: bool = False) -> Optional[CacheEntry]:
        """A cached answer, or the *right to solve* ``key``.

        Returns the entry on a hit.  On a miss the caller now owns the
        key's single flight and **must** call :meth:`store` (or
        :meth:`cancel` on error) — concurrent acquirers of the same key
        block until then and receive the stored entry as a hit.  With
        ``certified`` a valid entry without a certificate is a miss.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None and not (
                    certified and entry.valid and entry.certificate is None
                ):
                    self.hits += 1
                    self._entries.move_to_end(key)
                    return entry
                pending = self._pending.get(key)
                if pending is None:
                    self._pending[key] = threading.Event()
                    self.misses += 1
                    return None
            pending.wait()

    def store(self, key: Tuple, entry: CacheEntry) -> None:
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = entry
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.evictions += 1
            pending = self._pending.pop(key, None)
        if pending is not None:
            pending.set()

    def cancel(self, key: Tuple) -> None:
        """Give up a single flight without an answer (solver raised).

        Waiters wake, find no entry, and the first of them takes over
        the flight.
        """
        with self._lock:
            pending = self._pending.pop(key, None)
        if pending is not None:
            pending.set()

    def stats(self) -> Dict[str, int]:
        """A consistent snapshot of the cache counters.

        ``pending`` is the number of single-flight solves currently in
        progress — nonzero only while queries are actually being solved,
        so a long-lived server's ``status`` endpoint can report live
        solver pressure alongside the hit/miss history.  ``encodings``
        is the size of the encoding memo (bounded by ``max_entries``).
        """
        with self._lock:
            return {
                "entries": len(self._entries),
                "max_entries": self.max_entries,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "pending": len(self._pending),
                "encodings": len(self.encodings),
            }

    def clear(self) -> None:
        with self._lock:
            for pending in self._pending.values():
                pending.set()
            self._pending.clear()
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0
        self.encodings.clear()


# ---------------------------------------------------------------------------
# The incremental context
# ---------------------------------------------------------------------------


@dataclass
class ContextStats:
    """Counters a :class:`SolverContext` accumulates."""

    queries: int = 0
    cache_hits: int = 0
    solve_calls: int = 0
    pushes: int = 0
    pops: int = 0

    def merge(self, other: "ContextStats") -> None:
        self.queries += other.queries
        self.cache_hits += other.cache_hits
        self.solve_calls += other.solve_calls
        self.pushes += other.pushes
        self.pops += other.pops

    def to_dict(self) -> Dict[str, int]:
        return {
            "queries": self.queries,
            "cache_hits": self.cache_hits,
            "solve_calls": self.solve_calls,
            "pushes": self.pushes,
            "pops": self.pops,
        }


class SolverContext:
    """Push/pop assumption scopes over one persistent encoder + solver.

    Usage pattern (the verifier's obligation groups)::

        ctx = SolverContext(cache=shared_cache)
        for premise in shared_premises:
            ctx.assert_expr(premise)          # base scope, asserted once
        for goal, extras in queries:
            valid, model = ctx.check_entailment(goal, extras)

    Each :meth:`check_entailment` runs in its own pushed scope, so the
    base premises are encoded exactly once and theory lemmas learned for
    one goal speed up the next.
    """

    def __init__(
        self,
        bool_vars: Optional[Set[str]] = None,
        cache: Optional[QueryCache] = None,
        max_rounds: int = 100_000,
        witness: bool = False,
    ) -> None:
        self.bool_vars = set(bool_vars or ())
        self.encoder = Encoder(
            bool_vars=self.bool_vars,
            memo=cache.encodings if cache is not None else None,
        )
        self.solver = SMTSolver(max_rounds=max_rounds)
        #: Emit proof certificates for valid answers (see repro.witness).
        self.witness = witness
        #: The certificate behind the most recent valid answer (solve or
        #: cache hit), or None.
        self.last_certificate: Optional[object] = None
        if witness:
            self.solver.enable_proof()
        self.cache = cache
        self.stats = ContextStats()
        #: premises per scope; index 0 is the base scope.
        self._premises: List[List[ast.Expr]] = [[]]

    @property
    def profile(self) -> SolverProfile:
        """The inner-loop counters of the underlying solver."""
        return self.solver.profile

    # -- assertions ------------------------------------------------------------

    def assert_expr(self, expr: ast.Expr) -> None:
        """Assert a boolean premise in the current scope."""
        self._premises[-1].append(expr)
        self.solver.add(self.encoder.boolean(expr))

    def push(self) -> None:
        self.solver.push()
        self._premises.append([])
        self.stats.pushes += 1

    def pop(self) -> None:
        self.solver.pop()
        self._premises.pop()
        self.stats.pops += 1

    @property
    def premises(self) -> List[ast.Expr]:
        """All premises currently in force, outermost first."""
        return [p for scope in self._premises for p in scope]

    # -- queries ---------------------------------------------------------------

    def check_entailment(
        self, goal: ast.Expr, extra_premises: Iterable[ast.Expr] = ()
    ) -> Tuple[bool, Optional[Model]]:
        """Is ``premises ∧ extra_premises ⊨ goal``?  One solve, both answers.

        Returns ``(valid, model)``: ``model`` is a counterexample when the
        entailment is refuted (None when valid or when the solver gave
        up).  Consults and feeds the shared :class:`QueryCache` under the
        full normalized premise set, so answers interchange with
        :class:`~repro.solver.interface.ValidityChecker` queries; a
        witnessed context re-solves a cached valid answer that has no
        certificate (see :meth:`QueryCache.acquire`).
        """
        extra = list(extra_premises)
        self.stats.queries += 1
        key = None
        if self.cache is not None:
            key = normalize_query(goal, self.premises + extra, self.bool_vars)
            # Single flight: a concurrent identical query waits for this
            # solve instead of duplicating it (see QueryCache.acquire).
            entry = self.cache.acquire(key, certified=self.witness)
            if entry is not None:
                self.stats.cache_hits += 1
                self.last_certificate = entry.certificate
                return entry.valid, entry.model

        try:
            self.push()
            try:
                for premise in extra:
                    self.assert_expr(premise)
                self.solver.add(F.mk_not(self.encoder.boolean(goal)))
                result = self.solver.check()
            finally:
                self.pop()
        except BaseException:
            if self.cache is not None and key is not None:
                self.cache.cancel(key)
            raise
        self.stats.solve_calls += 1

        entry = entry_from_result(result)
        if self.witness and entry.valid:
            from repro.witness.emit import certificate_from_solver

            entry.certificate = certificate_from_solver(self.solver)
        self.last_certificate = entry.certificate
        if self.cache is not None and key is not None:
            self.cache.store(key, entry)
        return entry.valid, entry.model


def entry_from_result(result: SatResult) -> CacheEntry:
    """Fold a raw solver verdict into a cacheable entailment answer."""
    if result.is_unsat:
        return CacheEntry(valid=True, status="unsat")
    if result.status == "sat":
        return CacheEntry(
            valid=False, status="sat", model=(result.arith_model, result.bool_model)
        )
    return CacheEntry(valid=False, status="unknown")
