"""Inner-loop solver profiling through the staged pipeline.

Runs the Sparse Vector example end-to-end with ``profile=True`` and
pretty-prints the per-stage solver profile the verify stage records:
SAT-core work (decisions, propagations, conflicts, restarts, learned
and deleted clauses), simplex work (pivots, bound assertions, theory
conflicts), term-layer interning traffic, and the DPLL(T) loop shape
(solve calls, rounds: 1 + theory lemmas per solve).

Usage::

    PYTHONPATH=src python examples/profile_demo.py
"""

from pathlib import Path

from repro import Pipeline, VerificationConfig
from repro.lang.parser import parse_expr

GROUPS = (
    ("DPLL(T) loop", ("solve_calls", "rounds")),
    ("SAT core", ("decisions", "propagations", "conflicts", "restarts",
                  "learned_clauses", "deleted_clauses")),
    ("simplex", ("pivots", "bound_asserts", "theory_conflicts")),
    ("term layer", ("intern_hits", "intern_misses")),
)


def print_profile(profile: dict, indent: str = "  ") -> None:
    for label, names in GROUPS:
        print(f"{indent}{label}:")
        for name in names:
            print(f"{indent}  {name:<16} {profile.get(name, 0):>10,}")


def main() -> None:
    source = (Path(__file__).parent / "sparse_vector.sdp").read_text()
    config = VerificationConfig(
        mode="unroll",
        bindings={"size": 4, "N": 2},
        assumptions=(parse_expr("eps > 0"), parse_expr("N >= 1")),
    )

    run = Pipeline(config=config).run(source, profile=True)
    print(run.describe())
    print()

    outcome = run.outcome
    stats = run.stages["verify"].solver_stats or {}
    print(f"verify stage: {outcome.solver_queries} queries, "
          f"{stats.get('cache_hits', 0)} cache hits, "
          f"{stats.get('solve_calls', 0)} solves")
    print("solver profile:")
    print_profile(outcome.profile)

    hits = outcome.profile.get("intern_hits", 0)
    misses = outcome.profile.get("intern_misses", 0)
    if hits + misses:
        rate = hits / (hits + misses)
        print(f"\nhash-consing absorbed {rate:.1%} of term constructions")


if __name__ == "__main__":
    main()
