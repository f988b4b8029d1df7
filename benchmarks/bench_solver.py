"""Solver counter guard: obligation discharge over a quick registry sweep.

The sweep discharges every verification obligation of a few registry
programs through one shared normalized-query :class:`QueryCache`:
``noisy_max``, ``svt`` and ``bad_svt_no_budget`` in the unroll regime,
``svt`` in the invariant regime, and annotation-free Houdini on
``noisy_max``.  With a pinned hash seed its counters (queries asked,
cache hits, DPLL(T) solve calls, rounds, simplex pivots, encodings
performed) are deterministic for a given code state, so the guard
compares them with the references committed in ``BENCH_solver.json``
instead of timing anything.  It also runs the **hard row** (``num_svt`` in the Fix-ε
regime, the registry's slowest program) outside the sweep totals, a
cold/warm pass through a persistent store, and a witnessed/plain
comparison with trusted revalidation of the emitted certificates.

Usage::

    # CI regression guard: fail on >20% growth of the sweep's solve
    # calls, rounds, pivots or encodings and of the hard row's rounds or
    # pivots; on any change of the sweep's queries, cache hits or solve
    # calls; on a warm-store solve; on witness emission that moves a
    # counter, costs more than WITNESS_OVERHEAD_LIMIT or fails
    # revalidation.
    PYTHONPATH=src python benchmarks/bench_solver.py --guard BENCH_solver.json

    # After an intended solver change: refresh the committed references
    # (quick_reference, serial_reference, hard_reference) in place.
    PYTHONPATH=src python benchmarks/bench_solver.py \
        --update-reference BENCH_solver.json

Timings live in ``perfbench/``; the numbers of the retired full-registry
sweep and inner-loop microbenchmarks sit under ``history`` in
``BENCH_solver.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sqlite3
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

from repro.algorithms import get
from repro.lang import ast
from repro.pipeline import spec_config
from repro.solver.context import QueryCache
from repro.target.transform import TargetProgram
from repro.verify.houdini import infer_invariants
from repro.verify.verifier import VerificationConfig, verify_target
from repro.witness import Certificate, validate

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


def _bare_target(target: TargetProgram) -> TargetProgram:
    return TargetProgram(
        target.function, _strip_invariants(target.body), target.cost_bound, target.aligned_only
    )


def _unroll(spec, cache: QueryCache):
    config = dataclasses.replace(spec_config(spec), profile=True)
    outcome = verify_target(spec.target(), config, cache=cache)
    return outcome.solver_stats(), outcome.profile


def _invariant(spec, cache: QueryCache):
    config = VerificationConfig(
        mode="invariant", assumptions=spec.assumption_exprs(), profile=True
    )
    outcome = verify_target(spec.target(), config, cache=cache)
    return outcome.solver_stats(), outcome.profile


def _houdini(spec, cache: QueryCache):
    """Houdini from no invariants; its stats cover every pruning round
    and the final check, and it reports no rounds or pivots."""
    config = VerificationConfig(mode="invariant", assumptions=spec.assumption_exprs())
    result = infer_invariants(_bare_target(spec.target()), config, peel=1, cache=cache)
    return result.solver_stats, None


#: The unroll programs of the sweep; the warm-store and witness legs
#: sweep them too.
QUICK_UNROLL_NAMES = ("noisy_max", "svt", "bad_svt_no_budget")

#: The sweep in order, over one query cache: each workload's programs
#: and how each program runs.
SWEEP = (
    ("registry-unroll", QUICK_UNROLL_NAMES, _unroll),
    ("registry-invariant", ("svt",), _invariant),
    ("houdini", ("noisy_max",), _houdini),
)


def run_workloads() -> Dict:
    cache = QueryCache()
    workloads: Dict[str, Dict] = {}
    for workload, names, run in SWEEP:
        entry = dict.fromkeys(("queries", "cache_hits", "solve_calls"), 0)
        encodings = cache.encodings.misses
        start = time.perf_counter()
        for name in names:
            stats, profile = run(get(name), cache)
            for key in ("queries", "cache_hits", "solve_calls"):
                entry[key] += stats[key]
            if profile is not None:
                for key in ("pivots", "rounds"):
                    entry[key] = entry.get(key, 0) + profile[key]
        entry["seconds"] = round(time.perf_counter() - start, 3)
        # Encodings performed: misses of the sweep cache's encoding memo.
        entry["encodings"] = cache.encodings.misses - encodings
        workloads[workload] = entry

    totals: Dict = {
        key: sum(w.get(key, 0) for w in workloads.values())
        for key in ("queries", "cache_hits", "solve_calls", "pivots", "rounds", "encodings")
    }
    totals["seconds"] = round(sum(w["seconds"] for w in workloads.values()), 3)
    return {
        "workloads": workloads,
        "totals": totals,
        "warm_store": run_warm_store(QUICK_UNROLL_NAMES),
        "witness": run_witness(QUICK_UNROLL_NAMES),
        "hard_row": run_hard_row(),
    }


#: The hard row: the registry's slowest program.  The sweep does not
#: contain it, so it is timed and guarded on its own.
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


def run_warm_store(names) -> Dict:
    """Cold vs warm sweep through a temporary persistent store.

    Both passes use a fresh in-memory :class:`QueryCache`, so every warm
    answer comes from disk — the warm pass is required to perform
    **zero** DPLL(T) solves (the cross-run incrementality contract the
    guard enforces).
    """
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


def run_witness(names) -> Dict:
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
    must report identical counters.  The revalidation figure is the
    point of the subsystem: re-checking a stored sweep with the trusted
    kernel costs milliseconds, not solves.
    """

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

    def median_seconds(rows: List[Dict]) -> float:
        return round(statistics.median(r["seconds"] for r in rows), 3)

    out: Dict = {
        "plain_seconds": median_seconds([plain for plain, _ in rounds]),
        "witnessed_seconds": median_seconds([witnessed for _, witnessed in rounds]),
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
        (valid_rows,) = conn.execute("SELECT SUM(valid) FROM obligations").fetchone()
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
        "seconds": round(seconds, 3),
        "ms_per_certificate": (
            round(1000 * seconds / len(texts), 3) if texts else None
        ),
    }
    return out


# ---------------------------------------------------------------------------
# The guard
# ---------------------------------------------------------------------------

#: Counters the guard compares.  With a pinned ``PYTHONHASHSEED`` (the
#: guard re-executes itself under seed 0 — see :func:`_pin_hash_seed`)
#: they are fully deterministic for a given code state, so the check is
#: runner-stable in a way wall-clock thresholds are not.
GUARD_COUNTERS = ("solve_calls", "rounds", "pivots", "encodings")

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
#: the committed ``serial_reference``: discharge is required to be
#: byte-identical release over release (same queries, same cache hits,
#: same solves on the pinned quick sweep), not merely within tolerance.
SERIAL_REFERENCE_COUNTERS = ("queries", "cache_hits", "solve_calls")


def guard_counters(results: Dict) -> Dict[str, int]:
    """The counters the regression guard tracks, from a quick run."""
    totals = results["totals"]
    return {key: int(totals.get(key, 0)) for key in GUARD_COUNTERS}


def hard_counters(results: Dict) -> Dict[str, int]:
    """The hard row's guarded counters."""
    return {key: int(results["hard_row"][key]) for key in HARD_COUNTERS}


def serial_counters(results: Dict) -> Dict[str, int]:
    """The quick-sweep counters pinned exactly by the guard."""
    totals = results["totals"]
    return {key: int(totals.get(key, 0)) for key in SERIAL_REFERENCE_COUNTERS}


def _pin_hash_seed() -> None:
    """Re-exec under ``PYTHONHASHSEED=0`` if string hashing is randomized.

    Dict/set iteration over string-keyed structures (variable names,
    monomials) feeds variable-id assignment and pivot tie-breaking, so
    pivot counts are only reproducible under a fixed hash seed.  The
    guard and the reference writer both pin seed 0 so their numbers
    compare like for like.
    """
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
    results = run_workloads()
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
    warm_solves = results["warm_store"]["warm"]["solve_calls"]
    status = "OK" if warm_solves == 0 else "REGRESSION"
    print(f"bench-guard: warm-store solve_calls: expected=0 "
          f"current={warm_solves} [{status}]")
    if warm_solves != 0:
        failed = True
    if not run_witness_guard(results):
        failed = True
    if failed:
        print("bench-guard: FAILED (counters regressed beyond tolerance or "
              "serial counters diverged)", file=sys.stderr)
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
    witness = results["witness"]
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
    results = run_workloads()
    print(render(results))
    reference["quick_reference"] = guard_counters(results)
    reference["serial_reference"] = serial_counters(results)
    reference["hard_reference"] = hard_counters(results)
    with open(reference_path, "w") as handle:
        json.dump(reference, handle, indent=1)
    print(f"updated quick_reference in {reference_path}: "
          f"{reference['quick_reference']}; serial_reference: "
          f"{reference['serial_reference']}; hard_reference: "
          f"{reference['hard_reference']}")
    return 0


def render(results: Dict) -> str:
    lines = [
        "bench_solver — obligation discharge over the quick registry sweep",
        f"{'workload':20s} {'queries':>8s} {'hits':>6s} {'solves':>7s} {'sec':>8s}",
    ]
    rows = list(results["workloads"].items()) + [("TOTAL", results["totals"])]
    for workload, stats in rows:
        lines.append(
            f"{workload:20s} {stats['queries']:8d} {stats['cache_hits']:6d} "
            f"{stats['solve_calls']:7d} {stats['seconds']:8.2f}"
        )
    totals = results["totals"]
    lines.append(
        f"pivots: {totals['pivots']}, rounds: {totals['rounds']}, "
        f"encodings: {totals['encodings']}"
    )
    hard = results["hard_row"]
    lines.append(
        f"hard row ({hard['program']} Fix-eps): {hard['rounds']} rounds, "
        f"{hard['pivots']} pivots, {hard['solve_calls']} solves in {hard['seconds']}s"
    )
    warm_store = results["warm_store"]
    cold, warm = warm_store["cold"], warm_store["warm"]
    lines.append(
        f"persistent store: cold {cold['seconds']}s ({cold['solve_calls']} solves, "
        f"{cold['store_writes']} writes) -> warm {warm['seconds']}s "
        f"({warm['solve_calls']} solves, {warm['store_hits']} store hits), "
        f"{warm_store['speedup']}x"
    )
    witness = results["witness"]
    revalidate = witness["revalidate"]
    identical = (
        "identical counters" if witness["identical_counters"] else "COUNTERS DIVERGED"
    )
    lines.append(
        f"witnesses: emission {witness['plain_seconds']}s -> "
        f"{witness['witnessed_seconds']}s "
        f"({witness['emission_overhead']:+.1%}, {identical}); "
        f"revalidated {revalidate['certificates']} certificates in "
        f"{revalidate['seconds']}s "
        f"({revalidate['ms_per_certificate']} ms each, zero solves)"
    )
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Guard the solver counters of the quick registry sweep."
    )
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--guard",
        metavar="PATH",
        help="fail on >20%% counter growth vs PATH's references",
    )
    action.add_argument(
        "--update-reference",
        metavar="PATH",
        help="write the sweep's counters into PATH's reference sections",
    )
    args = parser.parse_args(argv)
    _pin_hash_seed()
    if args.guard:
        return run_guard(args.guard)
    return update_reference(args.update_reference)


if __name__ == "__main__":
    sys.exit(main())
