"""The paper's Table 1: every row verifies in both regimes, within the
paper's shape bounds, and ``repro table1`` says when one does not."""

from repro import cli
from repro.algorithms import TABLE1_ORDER, table1
from repro.algorithms.table1 import Table1Row, generate_table1


def test_every_row_verifies_in_both_regimes():
    rows = generate_table1()
    assert len(rows) == len(TABLE1_ORDER) == 10
    # ``verified`` needs both the "Rewrite" (invariant) and the "Fix ε"
    # (unroll) verdict.
    assert [row.key for row in rows if not row.verified] == []
    # Shape claims of the paper: everything within seconds, and far below
    # the coupling-based verifier's quoted times.
    for row in rows:
        assert row.typecheck_seconds < 3.0, row.key
        assert row.fixed_seconds < 60.0, row.key
        if row.coupling_seconds and row.invariant_seconds:
            assert row.invariant_seconds < row.coupling_seconds, row.key


def test_cli_exits_1_when_a_row_fails(monkeypatch, capsys):
    def rows(verified):
        return [
            Table1Row("svt", "Sparse Vector Technique", 0.01, 0.1, 0.2, 580.0, True),
            Table1Row("smart_sum", "Smart Sum", 0.01, 0.1 if verified else None, 0.2, 255.0, verified),
        ]

    monkeypatch.setattr(table1, "generate_table1", lambda: rows(True))
    assert cli.main(["table1"]) == 0
    monkeypatch.setattr(table1, "generate_table1", lambda: rows(False))
    assert cli.main(["table1"]) == 1
    assert capsys.readouterr().out.count(" NO\n") == 1
