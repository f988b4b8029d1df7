"""Solver-stack benchmark: incremental discharge vs the pre-PR baseline.

Measures, over the registry algorithms, the cost of discharging all
verification obligations two ways:

* **baseline** — a faithful replica of the pre-incremental solver layer:
  a fresh ``Encoder`` + ``SMTSolver`` per query, raw-AST cache keys
  (alpha-trivial duplicates miss), every refuted ``is_valid`` re-encoded
  and re-solved a second time by ``find_model``, obligations strictly
  serial, no state shared between Houdini rounds or the final
  verification.
* **incremental** — the current stack: obligations grouped by shared
  path prefix, each group discharged under one pushed
  :class:`SolverContext` (conjoined goals, model-guided refinement),
  refuted checks returning their model from the refuting solve, and one
  normalized-query :class:`QueryCache` shared across the whole sweep.

Reported per workload and in total: entailment queries asked, DPLL(T)
solve calls actually executed, simplex pivots (incremental side),
queries per second, and wall-clock time.  A separate **microbench**
section exercises the inner loops in isolation: term-layer interning
throughput, simplex pivoting on a difference chain, and CDCL
propagation on a planted 3-SAT instance.

Usage::

    PYTHONPATH=src:. python benchmarks/bench_solver.py [--quick] \
        [--json-out BENCH_solver.json]

    # CI regression guard: quick sweep, compare the (deterministic)
    # solve-call, round and pivot counters against the committed
    # reference, and the hard row's rounds and pivots against its own;
    # fail on >20% regression.
    PYTHONPATH=src:. python benchmarks/bench_solver.py --guard BENCH_solver.json

    # Refresh the committed reference counters in place.
    PYTHONPATH=src:. python benchmarks/bench_solver.py \
        --update-reference BENCH_solver.json

``--quick`` runs a small subset (seconds, for CI smoke); the default
sweep covers every registry algorithm in the unroll regime, the correct
ones in the invariant regime, and an annotation-free Houdini run.  Both
also time the **hard row** — ``num_svt`` in the Fix-ε regime, the
registry's slowest program — outside the sweep totals.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import statistics
import sys
import time
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Tuple

from repro.lang import ast
from repro.solver import formula as F
from repro.solver import intern
from repro.solver.delta import DeltaRat
from repro.solver.encode import Encoder
from repro.solver.linear import LinExpr
from repro.solver.profile import SolverProfile
from repro.solver.sat import CDCLSolver
from repro.solver.simplex import Simplex
from repro.solver.smt import SMTSolver
from repro.solver.context import QueryCache
from repro.target.transform import TargetProgram
from repro.verify.houdini import default_candidates, infer_invariants, peel_loops
from repro.verify.vcgen import VCGenerator
from repro.verify.verifier import (
    ObligationChecker,
    VerificationConfig,
    _bind_psi,
    bind_command,
    bind_expr,
    verify_target,
)

from repro.algorithms import all_specs, get
from repro.pipeline import spec_config


# ---------------------------------------------------------------------------
# The pre-PR baseline, replicated
# ---------------------------------------------------------------------------


class LegacyValidityChecker:
    """The seed-era validity interface: raw keys, double-solve refutations."""

    def __init__(self) -> None:
        self._cache: Dict[Tuple, bool] = {}
        self.queries = 0
        self.cache_hits = 0
        self.solve_calls = 0

    def _solve(self, goal: ast.Expr, premises: Tuple[ast.Expr, ...]):
        self.solve_calls += 1
        encoder = Encoder()
        solver = SMTSolver()
        for premise in premises:
            solver.add(encoder.boolean(premise))
        solver.add(F.mk_not(encoder.boolean(goal)))
        return solver.check()

    def is_valid(self, goal: ast.Expr, premises: Iterable[ast.Expr] = ()) -> bool:
        premises = tuple(premises)
        key = (goal, premises)
        self.queries += 1
        if key in self._cache:
            self.cache_hits += 1
            return self._cache[key]
        answer = self._solve(goal, premises).is_unsat
        self._cache[key] = answer
        return answer

    def find_model(self, goal: ast.Expr, premises: Iterable[ast.Expr] = ()):
        # The pre-PR find_model had no cache: always a full second solve.
        result = self._solve(goal, tuple(premises))
        if result.is_unsat:
            return None
        return result.arith_model, result.bool_model


class LegacyObligationChecker(ObligationChecker):
    """Serial, one-shot discharge with the solve-twice refutation path."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.legacy_validity = LegacyValidityChecker()

    def check(self, obligation):
        premises = self.premises_for(obligation)
        if self.legacy_validity.is_valid(obligation.goal, premises):
            return None
        if not self.collect_models:
            return self._failure(obligation, False, None)
        model = self.legacy_validity.find_model(obligation.goal, premises)
        if model is None:
            return None
        return self._failure(obligation, False, model)

    def check_all(self, obligations, skip=None, on_failure=None, batch=True):
        failures = []
        for obligation in obligations:
            if skip is not None and skip(obligation):
                continue
            failure = self.check(obligation)
            if failure is not None:
                failures.append(failure)
                if on_failure is not None:
                    on_failure(obligation)
        return failures


def legacy_verify(target: TargetProgram, config: VerificationConfig):
    """The pre-PR ``verify_target`` control flow, counter-instrumented."""
    body = bind_command(target.body, config.bindings)
    psi = _bind_psi(target.function.precondition, config.bindings)
    assumptions = [bind_expr(a, config.bindings) for a in config.assumptions]
    assumptions = [a for a in assumptions if a != ast.TRUE]

    generator = VCGenerator(
        unroll_limit=config.unroll_limit,
        use_invariants=(config.mode == "invariant"),
    )
    generator.run(body)
    checker = LegacyObligationChecker(psi, assumptions, use_lemmas=config.use_lemmas)
    failures = checker.check_all(generator.obligations)
    return failures, checker.legacy_validity


def legacy_houdini(target: TargetProgram, config: VerificationConfig, peel: int = 1):
    """The pre-PR Houdini loop: one raw-keyed checker for the rounds, a
    fresh checker re-solving everything for the final verification."""
    pool = default_candidates(target, config.bindings)
    body = peel_loops(bind_command(target.body, config.bindings), peel)
    psi = _bind_psi(target.function.precondition, config.bindings)
    assumptions = [bind_expr(a, config.bindings) for a in config.assumptions]
    checker = LegacyObligationChecker(psi, assumptions, collect_models=False)

    surviving = list(pool)
    for _ in range(64):
        generator = VCGenerator(use_invariants=True, extra_invariants=tuple(surviving))
        generator.run(body)
        bad = set()
        for obligation in generator.obligations:
            if obligation.tag not in ("invariant-entry", "invariant-preserved"):
                continue
            label = obligation.label
            if not (isinstance(label, tuple) and label[0] == "extra"):
                continue
            if label[1] in bad:
                continue
            if checker.check(obligation) is not None:
                bad.add(label[1])
        if not bad:
            break
        surviving = [inv for k, inv in enumerate(surviving) if k not in bad]

    generator = VCGenerator(use_invariants=True, extra_invariants=tuple(surviving))
    generator.run(body)
    final = LegacyObligationChecker(psi, assumptions)
    failures = final.check_all(generator.obligations)
    return failures, (checker.legacy_validity, final.legacy_validity)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _strip_invariants(cmd: ast.Command) -> ast.Command:
    if isinstance(cmd, ast.Seq):
        return ast.seq(*[_strip_invariants(c) for c in cmd.commands])
    if isinstance(cmd, ast.If):
        return ast.If(cmd.cond, _strip_invariants(cmd.then), _strip_invariants(cmd.orelse))
    if isinstance(cmd, ast.While):
        return ast.While(cmd.cond, _strip_invariants(cmd.body), ())
    return cmd


def _bare_target(name: str) -> TargetProgram:
    target = get(name).target()
    return TargetProgram(
        target.function, _strip_invariants(target.body), target.cost_bound, target.aligned_only
    )


#: The quick-mode unroll sweep (CI smoke and the counter guard).
QUICK_UNROLL_NAMES = ("noisy_max", "svt", "bad_svt_no_budget")


def run_workloads(quick: bool) -> Dict:
    unroll_names = (
        list(QUICK_UNROLL_NAMES)
        if quick
        else [s.name for s in all_specs()]
    )
    invariant_names = (
        ["svt"] if quick else [s.name for s in all_specs(include_buggy=False)]
    )
    houdini_names = ["noisy_max"]

    results: Dict = {"workloads": {}, "quick": quick, "nproc": os.cpu_count()}

    def record(
        workload: str,
        side: str,
        queries: int,
        hits: int,
        solves: int,
        seconds: float,
        pivots: Optional[int] = None,
        rounds: Optional[int] = None,
    ) -> None:
        entry = results["workloads"].setdefault(workload, {})
        entry[side] = {
            "queries": queries,
            "cache_hits": hits,
            "solve_calls": solves,
            "seconds": round(seconds, 3),
            "queries_per_second": round(queries / seconds, 2) if seconds > 0 else None,
        }
        if pivots is not None:
            entry[side]["pivots"] = pivots
        if rounds is not None:
            entry[side]["rounds"] = rounds

    # -- baseline ------------------------------------------------------------
    queries = hits = solves = 0
    start = time.perf_counter()
    for name in unroll_names:
        spec = get(name)
        _, validity = legacy_verify(spec.target(), spec_config(spec))
        queries += validity.queries
        hits += validity.cache_hits
        solves += validity.solve_calls
    record("registry-unroll", "baseline", queries, hits, solves, time.perf_counter() - start)

    queries = hits = solves = 0
    start = time.perf_counter()
    for name in invariant_names:
        spec = get(name)
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
        _, validity = legacy_verify(spec.target(), config)
        queries += validity.queries
        hits += validity.cache_hits
        solves += validity.solve_calls
    record("registry-invariant", "baseline", queries, hits, solves, time.perf_counter() - start)

    queries = hits = solves = 0
    start = time.perf_counter()
    for name in houdini_names:
        spec = get(name)
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
        _, validities = legacy_houdini(_bare_target(name), config)
        for validity in validities:
            queries += validity.queries
            hits += validity.cache_hits
            solves += validity.solve_calls
    record("houdini", "baseline", queries, hits, solves, time.perf_counter() - start)

    # -- incremental ---------------------------------------------------------
    cache = QueryCache()

    queries = hits = solves = pivots = rounds = 0
    start = time.perf_counter()
    for name in unroll_names:
        spec = get(name)
        config = spec_config(spec)
        config.profile = True
        outcome = verify_target(spec.target(), config, cache=cache)
        stats = outcome.solver_stats()
        queries += stats["queries"]
        hits += stats["cache_hits"]
        solves += stats["solve_calls"]
        pivots += outcome.profile["pivots"]
        rounds += outcome.profile["rounds"]
    record(
        "registry-unroll", "incremental", queries, hits, solves,
        time.perf_counter() - start, pivots=pivots, rounds=rounds,
    )

    queries = hits = solves = pivots = rounds = 0
    start = time.perf_counter()
    for name in invariant_names:
        spec = get(name)
        config = VerificationConfig(
            mode="invariant", assumptions=spec.assumption_exprs(), profile=True
        )
        outcome = verify_target(spec.target(), config, cache=cache)
        stats = outcome.solver_stats()
        queries += stats["queries"]
        hits += stats["cache_hits"]
        solves += stats["solve_calls"]
        pivots += outcome.profile["pivots"]
        rounds += outcome.profile["rounds"]
    record(
        "registry-invariant", "incremental", queries, hits, solves,
        time.perf_counter() - start, pivots=pivots, rounds=rounds,
    )

    queries = hits = solves = 0
    start = time.perf_counter()
    for name in houdini_names:
        spec = get(name)
        config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
        result = infer_invariants(_bare_target(name), config, peel=1, cache=cache)
        stats = result.solver_stats  # whole run: pruning rounds + final
        queries += stats["queries"]
        hits += stats["cache_hits"]
        solves += stats["solve_calls"]
    record("houdini", "incremental", queries, hits, solves, time.perf_counter() - start)

    # -- persistent store: cold vs warm (registry unroll sweep) ----------------
    results["warm_store"] = run_warm_store(unroll_names)

    # -- proof witnesses: emission cost + trusted revalidation -----------------
    results["witness"] = run_witness(unroll_names)

    # -- totals ---------------------------------------------------------------
    totals: Dict = {}
    for side in ("baseline", "incremental"):
        totals[side] = {
            key: sum(w[side][key] for w in results["workloads"].values())
            for key in ("queries", "cache_hits", "solve_calls")
        }
        totals[side]["seconds"] = round(
            sum(w[side]["seconds"] for w in results["workloads"].values()), 3
        )
    for key in ("pivots", "rounds"):
        totals["incremental"][key] = sum(
            w["incremental"].get(key, 0) for w in results["workloads"].values()
        )
    base, incr = totals["baseline"], totals["incremental"]
    totals["solve_call_reduction"] = (
        round(base["solve_calls"] / incr["solve_calls"], 2) if incr["solve_calls"] else None
    )
    totals["wall_time_speedup"] = (
        round(base["seconds"] / incr["seconds"], 2) if incr["seconds"] else None
    )
    results["totals"] = totals

    # -- the hard row, outside the totals --------------------------------------
    results["hard_row"] = run_hard_row()
    return results


#: The hard row: the registry's slowest program.  The quick sweep does
#: not contain it, so it is timed and guarded on its own.
HARD_ROW = "num_svt"


def run_hard_row() -> Dict:
    """``num_svt`` in the Fix-ε regime (its ``spec_config``), alone, with
    a fresh query cache."""
    spec = get(HARD_ROW)
    start = time.perf_counter()
    outcome = verify_target(
        spec.target(), dataclasses.replace(spec_config(spec), profile=True)
    )
    return {
        "program": HARD_ROW,
        "verified": outcome.verified,
        "solve_calls": outcome.solve_calls,
        "rounds": outcome.profile["rounds"],
        "pivots": outcome.profile["pivots"],
        "seconds": round(time.perf_counter() - start, 3),
    }


def run_warm_store(names: List[str]) -> Dict:
    """Cold vs warm sweep through a temporary persistent store.

    Both passes use a fresh in-memory :class:`QueryCache`, so every warm
    answer comes from disk — the warm pass is required to perform
    **zero** DPLL(T) solves (the cross-run incrementality contract the
    CI guard enforces).
    """
    import tempfile

    out: Dict = {}
    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "obligations.sqlite")
        for side in ("cold", "warm"):
            cache = QueryCache()
            obligations = solves = store_hits = store_writes = 0
            start = time.perf_counter()
            for name in names:
                spec = get(name)
                config = spec_config(spec)
                config.store = store_path
                outcome = verify_target(spec.target(), config, cache=cache)
                obligations += outcome.obligations_total
                solves += outcome.solve_calls
                store_hits += outcome.store["hits"]
                store_writes += outcome.store["writes"]
            out[side] = {
                "obligations": obligations,
                "solve_calls": solves,
                "store_hits": store_hits,
                "store_writes": store_writes,
                "seconds": round(time.perf_counter() - start, 3),
            }
    cold_s, warm_s = out["cold"]["seconds"], out["warm"]["seconds"]
    out["speedup"] = round(cold_s / warm_s, 1) if warm_s > 0 else None
    return out


def run_witness(names: List[str]) -> Dict:
    """Witness emission cost and trusted-revalidation throughput.

    Emission must be observationally free (identical query/hit/solve
    counters with witnesses on and off) and near-free in wall clock —
    the guard bounds the on/off delta at
    :data:`WITNESS_OVERHEAD_LIMIT`.  Each of :data:`WITNESS_ROUNDS`
    rounds runs one plain and one witnessed sweep back to back,
    alternating which goes first, and the overhead is the median of
    the per-round witnessed/plain ratios: a burst of host load or a
    drift within the process then moves both sweeps of a round, and
    one slow round moves the median little.  Every round's two sweeps
    must report identical counters.  ``rounds`` keeps each round's
    (plain, witnessed) seconds.  The revalidation figure is the point
    of the subsystem: re-checking a stored sweep with the trusted
    kernel costs milliseconds, not solves.
    """
    import sqlite3
    import tempfile

    from repro.witness import Certificate, validate

    def sweep(witness: bool, store: Optional[str] = None) -> Dict:
        cache = QueryCache()
        queries = hits = solves = certificates = 0
        start = time.perf_counter()
        for name in names:
            spec = get(name)
            config = dataclasses.replace(
                spec_config(spec), witness=witness, store=store
            )
            outcome = verify_target(spec.target(), config, cache=cache)
            stats = outcome.solver_stats()
            queries += stats["queries"]
            hits += stats["cache_hits"]
            solves += stats["solve_calls"]
            certificates += outcome.witnesses or 0
        return {
            "queries": queries,
            "cache_hits": hits,
            "solve_calls": solves,
            "certificates": certificates,
            "seconds": time.perf_counter() - start,
        }

    rounds = []
    for index in range(WITNESS_ROUNDS):
        order = (False, True) if index % 2 == 0 else (True, False)
        sweeps = {witness: sweep(witness) for witness in order}
        rounds.append((sweeps[False], sweeps[True]))

    def median_row(rows: List[Dict]) -> Dict:
        return dict(rows[0], seconds=round(statistics.median(r["seconds"] for r in rows), 3))

    out: Dict = {
        "plain": median_row([plain for plain, _ in rounds]),
        "witnessed": median_row([witnessed for _, witnessed in rounds]),
        "rounds": [
            [round(plain["seconds"], 4), round(witnessed["seconds"], 4)]
            for plain, witnessed in rounds
        ],
    }
    out["identical_counters"] = all(
        plain[key] == witnessed[key]
        for plain, witnessed in rounds
        for key in ("queries", "cache_hits", "solve_calls")
    )
    ratios = [
        witnessed["seconds"] / plain["seconds"]
        for plain, witnessed in rounds
        if plain["seconds"] > 0
    ]
    out["emission_overhead"] = (
        round(statistics.median(ratios) - 1, 3) if ratios else None
    )

    with tempfile.TemporaryDirectory() as tmp:
        store_path = os.path.join(tmp, "obligations.sqlite")
        sweep(True, store=store_path)
        conn = sqlite3.connect(store_path)
        # Content-derived oids dedup identical obligations across specs,
        # so the store can hold fewer rows than certificates collected.
        valid_rows, witness_rows = conn.execute(
            "SELECT SUM(valid), COUNT(witness) FROM obligations"
        ).fetchone()
        texts = [
            row[0]
            for row in conn.execute(
                "SELECT witness FROM obligations WHERE witness IS NOT NULL"
            )
        ]
        conn.close()
        start = time.perf_counter()
        for text in texts:
            validate(Certificate.from_json(text))
        seconds = time.perf_counter() - start
    out["revalidate"] = {
        "certificates": len(texts),
        "stored_valid": int(valid_rows or 0),
        "stored_witnesses": int(witness_rows or 0),
        "seconds": round(seconds, 3),
        "ms_per_certificate": (
            round(1000 * seconds / len(texts), 3) if texts else None
        ),
    }
    return out


# ---------------------------------------------------------------------------
# Inner-loop microbenchmarks
# ---------------------------------------------------------------------------


def microbench_terms(iterations: int = 40, width: int = 200) -> Dict:
    """Term-layer throughput: rebuild the same and/or/atom structure and
    measure how much of it the interner absorbs."""
    hits0, misses0 = intern.counters()
    start = time.perf_counter()
    built = 0
    for _ in range(iterations):
        atoms = [
            F.mk_atom("<=", LinExpr.variable(f"v{i}"), LinExpr.variable(f"v{i + 1}"))
            for i in range(width)
        ]
        node = F.mk_and(
            *[F.mk_or(atoms[i], F.mk_not(atoms[(i + 7) % width])) for i in range(width)]
        )
        F.atoms_of(node)
        built += width
    seconds = time.perf_counter() - start
    hits1, misses1 = intern.counters()
    hits, misses = hits1 - hits0, misses1 - misses0
    return {
        "nodes_built": built,
        "seconds": round(seconds, 3),
        "intern_hits": hits,
        "intern_misses": misses,
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else None,
    }


def microbench_simplex(rounds: int = 30, chain: int = 40) -> Dict:
    """Theory-layer throughput: difference-chain bound rounds under
    push/pop, counting pivots per second."""
    profile = SolverProfile()
    simplex = Simplex(profile=profile)
    variables = [LinExpr.variable(f"x{i}") for i in range(chain)]
    for i in range(chain - 1):
        simplex.define(f"d{i}", variables[i] - variables[i + 1])
    start = time.perf_counter()
    for _ in range(rounds):
        simplex.push_state()
        for i in range(chain - 1):
            # x_i <= x_{i+1} - 1: pushes every link of the chain.
            simplex.assert_upper(f"d{i}", DeltaRat(Fraction(-1)), ("u", i))
        simplex.assert_lower("x0", DeltaRat(Fraction(0)), "l")
        simplex.check()
        simplex.pop_state()
    seconds = time.perf_counter() - start
    return {
        "rounds": rounds,
        "seconds": round(seconds, 3),
        "pivots": profile.pivots,
        "bound_asserts": profile.bound_asserts,
        "pivots_per_second": round(profile.pivots / seconds, 1) if seconds > 0 else None,
    }


def microbench_sat(num_vars: int = 150, num_clauses: int = 600) -> Dict:
    """SAT-layer throughput: a planted (satisfiable) random 3-SAT
    instance, counting propagations per second."""
    rng = random.Random(1234)
    planted = [rng.choice([True, False]) for _ in range(num_vars)]
    solver = CDCLSolver(num_vars)
    for _ in range(num_clauses):
        vars_ = rng.sample(range(1, num_vars + 1), 3)
        clause = [v if rng.random() < 0.7 else -v for v in vars_]
        pick = rng.choice(range(3))
        v = abs(clause[pick])
        clause[pick] = v if planted[v - 1] else -v
        solver.add_clause(clause)
    start = time.perf_counter()
    assert solver.solve()
    seconds = time.perf_counter() - start
    profile = solver.profile
    return {
        "num_vars": num_vars,
        "num_clauses": num_clauses,
        "seconds": round(seconds, 3),
        "decisions": profile.decisions,
        "propagations": profile.propagations,
        "conflicts": profile.conflicts,
        "restarts": profile.restarts,
        "propagations_per_second": (
            round(profile.propagations / seconds, 1) if seconds > 0 else None
        ),
    }


def run_microbench() -> Dict:
    return {
        "term_intern": microbench_terms(),
        "simplex_pivot": microbench_simplex(),
        "sat_propagate": microbench_sat(),
    }


# ---------------------------------------------------------------------------
# CI counter guard
# ---------------------------------------------------------------------------

#: Counters the guard compares.  With a pinned ``PYTHONHASHSEED`` (the
#: guard re-executes itself under seed 0 — see :func:`_pin_hash_seed`)
#: they are fully deterministic for a given code state, so the check is
#: runner-stable in a way wall-clock thresholds are not.
GUARD_COUNTERS = ("solve_calls", "rounds", "pivots")

#: Counters the guard compares on the hard row, against the committed
#: ``hard_reference``.
HARD_COUNTERS = ("rounds", "pivots")

#: Allowed relative growth before the guard fails.
GUARD_TOLERANCE = 0.20

#: Allowed wall-clock cost of proof-certificate emission on the quick
#: sweep (median of the per-round witnessed/plain ratios; the counters
#: must match exactly).
WITNESS_OVERHEAD_LIMIT = 0.10

#: Rounds of one plain and one witnessed sweep that :func:`run_witness`
#: times.
WITNESS_ROUNDS = 20

#: Counters the guard additionally checks for **exact** equality against
#: the committed ``serial_reference``: the serial backend is required to
#: be byte-identical release over release (same queries, same cache
#: hits, same solves on the pinned quick sweep), not merely within
#: tolerance.
SERIAL_REFERENCE_COUNTERS = ("queries", "cache_hits", "solve_calls")


def guard_counters(results: Dict) -> Dict[str, int]:
    """The counters the regression guard tracks, from a quick run."""
    totals = results["totals"]["incremental"]
    return {key: int(totals.get(key, 0)) for key in GUARD_COUNTERS}


def hard_counters(results: Dict) -> Dict[str, int]:
    """The hard row's guarded counters."""
    return {key: int(results["hard_row"][key]) for key in HARD_COUNTERS}


def serial_counters(results: Dict) -> Dict[str, int]:
    """The serial-backend counters pinned exactly by the guard."""
    totals = results["totals"]["incremental"]
    return {key: int(totals.get(key, 0)) for key in SERIAL_REFERENCE_COUNTERS}


def _pin_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0`` if string hashing is randomized.

    Dict/set iteration over string-keyed structures (variable names,
    monomials) feeds variable-id assignment and pivot tie-breaking, so
    pivot counts are only reproducible under a fixed hash seed.  The
    guard and the reference writer both pin seed 0 so their numbers
    compare like for like.
    """
    import subprocess

    if os.environ.get("PYTHONHASHSEED") == "0":
        return
    env = dict(os.environ, PYTHONHASHSEED="0")
    raise SystemExit(subprocess.call([sys.executable] + sys.argv, env=env))


def run_guard(reference_path: str) -> int:
    with open(reference_path) as handle:
        reference = json.load(handle)
    expected = reference.get("quick_reference")
    if not expected:
        print(f"error: {reference_path} has no quick_reference section; "
              f"run --update-reference first", file=sys.stderr)
        return 2
    results = run_workloads(quick=True)
    print(render(results))
    failed = not within_tolerance("", expected, guard_counters(results))
    hard_expected = reference.get("hard_reference")
    if hard_expected:
        if not within_tolerance(f"{HARD_ROW} ", hard_expected, hard_counters(results)):
            failed = True
    else:
        print("bench-guard: no hard_reference section; hard row check skipped")
    serial_expected = reference.get("serial_reference")
    if serial_expected:
        serial_current = serial_counters(results)
        for key in SERIAL_REFERENCE_COUNTERS:
            old = serial_expected.get(key)
            if old is None:
                continue
            new = serial_current[key]
            status = "OK" if new == old else "CHANGED"
            print(f"bench-guard: serial {key}: reference={old} current={new} "
                  f"[{status}]")
            if new != old:
                failed = True
    else:
        print("bench-guard: no serial_reference section; exact serial check skipped")
    warm_store = results.get("warm_store")
    if warm_store is not None:
        warm_solves = warm_store["warm"]["solve_calls"]
        status = "OK" if warm_solves == 0 else "REGRESSION"
        print(f"bench-guard: warm-store solve_calls: expected=0 "
              f"current={warm_solves} [{status}]")
        if warm_solves != 0:
            failed = True
    if not run_witness_guard(results):
        failed = True
    if failed:
        print("bench-guard: FAILED (counters regressed beyond tolerance or "
              "serial backend diverged)", file=sys.stderr)
        return 1
    print("bench-guard: passed")
    return 0


def within_tolerance(prefix: str, expected: Dict, current: Dict[str, int]) -> bool:
    """Print one line per counter; False if any grew beyond
    :data:`GUARD_TOLERANCE` over its reference."""
    ok = True
    for key, new in current.items():
        old = expected.get(key)
        if not old:
            print(f"bench-guard: {prefix}{key}: no reference value, skipping")
            continue
        limit = old * (1 + GUARD_TOLERANCE)
        status = "OK" if new <= limit else "REGRESSION"
        print(f"bench-guard: {prefix}{key}: reference={old} current={new} "
              f"limit={limit:.0f} [{status}]")
        if new > limit:
            ok = False
    return ok


def run_witness_guard(results: Dict) -> bool:
    """The witness leg: emission must leave every counter untouched and
    cost < :data:`WITNESS_OVERHEAD_LIMIT` wall clock on the quick
    sweep, and every emitted certificate must pass the trusted
    validator (``revalidate`` covers the whole stored sweep)."""
    witness = results.get("witness")
    if witness is None:
        print("bench-guard: no witness section, skipping")
        return True
    overhead = witness["emission_overhead"]
    revalidated = witness["revalidate"]["certificates"]
    expected = witness["revalidate"]["stored_valid"]
    ok = (
        witness["identical_counters"]
        and (overhead is None or overhead <= WITNESS_OVERHEAD_LIMIT)
        and revalidated == expected
        and revalidated > 0
    )
    status = "OK" if ok else "REGRESSION"
    print(f"bench-guard: witness: identical_counters="
          f"{witness['identical_counters']} overhead={overhead} "
          f"(limit {WITNESS_OVERHEAD_LIMIT}) revalidated="
          f"{revalidated}/{expected} [{status}]")
    return ok


def update_reference(reference_path: str) -> int:
    try:
        with open(reference_path) as handle:
            reference = json.load(handle)
    except FileNotFoundError:
        reference = {}
    results = run_workloads(quick=True)
    print(render(results))
    reference["quick_reference"] = guard_counters(results)
    reference["serial_reference"] = serial_counters(results)
    reference["hard_reference"] = hard_counters(results)
    with open(reference_path, "w") as handle:
        json.dump(reference, handle, indent=2)
    print(f"updated quick_reference in {reference_path}: "
          f"{reference['quick_reference']}; serial_reference: "
          f"{reference['serial_reference']}; hard_reference: "
          f"{reference['hard_reference']}")
    return 0


def render(results: Dict) -> str:
    lines = [
        "bench_solver — obligation discharge, baseline vs incremental",
        f"{'workload':20s} {'side':12s} {'queries':>8s} {'hits':>6s} {'solves':>7s} {'sec':>8s} {'q/s':>8s}",
    ]
    for workload, sides in results["workloads"].items():
        for side, stats in sides.items():
            qps = stats["queries_per_second"]
            lines.append(
                f"{workload:20s} {side:12s} {stats['queries']:8d} {stats['cache_hits']:6d} "
                f"{stats['solve_calls']:7d} {stats['seconds']:8.2f} {qps if qps is not None else '—':>8}"
            )
    totals = results["totals"]
    lines.append(
        f"{'TOTAL':20s} {'baseline':12s} {totals['baseline']['queries']:8d} "
        f"{totals['baseline']['cache_hits']:6d} {totals['baseline']['solve_calls']:7d} "
        f"{totals['baseline']['seconds']:8.2f}"
    )
    lines.append(
        f"{'TOTAL':20s} {'incremental':12s} {totals['incremental']['queries']:8d} "
        f"{totals['incremental']['cache_hits']:6d} {totals['incremental']['solve_calls']:7d} "
        f"{totals['incremental']['seconds']:8.2f}"
    )
    lines.append(
        f"solve-call reduction: {totals['solve_call_reduction']}x    "
        f"wall-time speedup: {totals['wall_time_speedup']}x"
    )
    if "pivots" in totals["incremental"]:
        lines.append(f"incremental pivots: {totals['incremental']['pivots']}, "
                     f"rounds: {totals['incremental']['rounds']}")
    hard = results.get("hard_row")
    if hard:
        lines.append(
            f"hard row ({hard['program']} Fix-eps): {hard['rounds']} rounds, "
            f"{hard['pivots']} pivots, {hard['solve_calls']} solves in {hard['seconds']}s"
        )
    warm_store = results.get("warm_store")
    if warm_store:
        cold, warm = warm_store["cold"], warm_store["warm"]
        lines.append(
            f"persistent store: cold {cold['seconds']}s ({cold['solve_calls']} solves, "
            f"{cold['store_writes']} writes) -> warm {warm['seconds']}s "
            f"({warm['solve_calls']} solves, {warm['store_hits']} store hits), "
            f"{warm_store['speedup']}x"
        )
    witness = results.get("witness")
    if witness:
        revalidate = witness["revalidate"]
        identical = (
            "identical counters"
            if witness["identical_counters"]
            else "COUNTERS DIVERGED"
        )
        lines.append(
            f"witnesses: emission {witness['plain']['seconds']}s -> "
            f"{witness['witnessed']['seconds']}s "
            f"({witness['emission_overhead']:+.1%}, {identical}); "
            f"revalidated {revalidate['certificates']} certificates in "
            f"{revalidate['seconds']}s "
            f"({revalidate['ms_per_certificate']} ms each, zero solves)"
        )
    micro = results.get("microbench")
    if micro:
        lines.append("")
        lines.append("microbench — inner loops in isolation")
        term = micro["term_intern"]
        lines.append(
            f"  term layer:   {term['nodes_built']} nodes in {term['seconds']}s, "
            f"intern hit rate {term['hit_rate']}"
        )
        spx = micro["simplex_pivot"]
        lines.append(
            f"  simplex:      {spx['pivots']} pivots / {spx['bound_asserts']} asserts "
            f"in {spx['seconds']}s ({spx['pivots_per_second']} pivots/s)"
        )
        sat = micro["sat_propagate"]
        lines.append(
            f"  CDCL:         {sat['propagations']} propagations, {sat['conflicts']} "
            f"conflicts, {sat['restarts']} restarts in {sat['seconds']}s "
            f"({sat['propagations_per_second']} props/s)"
        )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true", help="small subset for CI smoke")
    parser.add_argument(
        "--json-out", metavar="PATH", default=None, help="write results as JSON"
    )
    parser.add_argument(
        "--no-microbench", action="store_true", help="skip the inner-loop microbenchmarks"
    )
    parser.add_argument(
        "--guard",
        metavar="PATH",
        default=None,
        help="quick run; fail on >20%% counter regression vs PATH's quick_reference",
    )
    parser.add_argument(
        "--update-reference",
        metavar="PATH",
        default=None,
        help="quick run; write the counters into PATH's quick_reference section",
    )
    args = parser.parse_args(argv)

    if args.guard:
        _pin_hash_seed()
        return run_guard(args.guard)
    if args.update_reference:
        _pin_hash_seed()
        return update_reference(args.update_reference)

    results = run_workloads(quick=args.quick)
    if not args.no_microbench:
        results["microbench"] = run_microbench()
    print(render(results))
    if args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(results, handle, indent=2)
        print(f"wrote {args.json_out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
