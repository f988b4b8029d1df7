"""Quickstart: verify Report Noisy Max end to end.

This is the paper's Figure 1 as a library call: parse the annotated
source, type check it (producing the instrumented program), lower to the
non-probabilistic target with the explicit privacy cost, and verify that
``v_eps <= eps`` always holds — which, by Theorem 2, proves the
algorithm ε-differentially private.

Run:  python examples/quickstart.py
"""

from repro import Pipeline, VerificationConfig
from repro.algorithms import get
from repro.lang.parser import parse_expr
from repro.lang.pretty import pretty_command

SOURCE = get("noisy_max").source


def main() -> None:
    print("=== Source (annotated ShadowDP, Figure 1) ===")
    print(SOURCE.strip())

    config = VerificationConfig(
        mode="invariant",
        assumptions=(parse_expr("eps > 0"), parse_expr("size >= 0")),
    )
    result = Pipeline().run(SOURCE, config=config)

    print("\n=== Transformed target program (Figure 1, bottom) ===")
    print(pretty_command(result.target.body))

    print("\n=== Verification ===")
    mode = "aligned-only" if result.checked.aligned_only else "shadow execution"
    print(f"type checked using {mode}; {result.checked.solver_queries} solver queries")
    print(result.outcome.describe())
    if result.outcome.verified:
        print("=> Report Noisy Max is eps-differentially private.")


if __name__ == "__main__":
    main()
