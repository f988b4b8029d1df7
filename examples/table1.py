"""Regenerate the paper's Table 1 (also ``repro table1``).

Run:  python examples/table1.py

``tests/paper/test_table1.py`` asserts that every row verifies within
the paper's shape bounds; ``perfbench/run.py --workload table1`` times
the same rows end to end and per layer.
"""

from repro.algorithms.table1 import generate_table1, render_table1


def main() -> None:
    rows = generate_table1()
    print(render_table1(rows))
    print()
    print("Columns: Check = type checking; Rewrite = unbounded invariant-mode")
    print("verification (the paper's rewrite/manual-invariant regime);")
    print("Fix-param = full unrolling at concrete loop bounds (the paper's")
    print("fix-eps regime); [2] = coupling-based verifier seconds as quoted")
    print("by the paper (closed system; N/A for the novel Gap SVT).")


if __name__ == "__main__":
    main()
