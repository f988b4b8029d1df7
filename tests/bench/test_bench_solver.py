"""``benchmarks/bench_solver.py`` leaves the guard's reference file alone."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]


def _bench(*args):
    return subprocess.run(
        [sys.executable, "benchmarks/bench_solver.py", *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=f"{ROOT / 'src'}{os.pathsep}{ROOT}"),
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("section", ["quick_reference", "serial_reference", "hard_reference"])
def test_json_out_refuses_a_reference_file(tmp_path, section):
    target = tmp_path / "BENCH_solver.json"
    target.write_text(json.dumps({section: {"solve_calls": 1}, "history": {}}, indent=2))
    before = target.read_bytes()
    result = _bench("--quick", "--no-microbench", "--json-out", str(target))
    assert result.returncode == 2, result.stdout + result.stderr
    assert "reference counters" in result.stderr
    # Refused before any workload ran: nothing was printed or written.
    assert result.stdout == ""
    assert target.read_bytes() == before


def test_committed_reference_file_is_refused():
    committed = ROOT / "BENCH_solver.json"
    before = committed.read_bytes()
    result = _bench("--json-out", str(committed))
    assert result.returncode == 2
    assert committed.read_bytes() == before
