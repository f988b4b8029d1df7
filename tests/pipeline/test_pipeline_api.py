"""End-to-end smoke tests for the staged :class:`repro.pipeline.Pipeline`.

Covers the acceptance surface of the staged API: per-stage runs with
timing/accounting, end-to-end verification of registry algorithms,
batch mode with demonstrable stage-level memoization, refutation of a
buggy SVT variant with a concrete counterexample, a one-shot unmemoized
run, and the ``python -m repro pipeline`` CLI.
"""

import json
import os
import subprocess
import sys

import pytest

import repro
from repro import Pipeline, PipelineError
from repro.algorithms import get
from repro.lang import ast
from repro.pipeline import STAGES, source_hash


SVT = get("svt")
NOISY_MAX = get("noisy_max")
BUGGY = get("bad_svt_no_budget")


def test_import_loads_no_pool_machinery():
    """Discharge runs on the caller's thread: importing the pipeline
    loads neither ``multiprocessing`` nor ``concurrent.futures``."""
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = (
        "import sys, repro.pipeline; "
        "print(sorted(m for m in sys.modules"
        " if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    ).stdout
    assert out.strip() == "[]"


class TestStages:
    def test_stage_order(self):
        assert STAGES == ("parse", "check", "lower_ir", "lower", "optimize", "verify")

    def test_run_stops_after_each_stage(self):
        pipe = Pipeline(memoize=False)
        for k, stage in enumerate(STAGES[:-1]):  # verify covered below
            run = pipe.run(SVT.source, stop_after=stage)
            assert list(run.stages) == list(STAGES[: k + 1])

    def test_unknown_stage_rejected(self):
        with pytest.raises(PipelineError):
            Pipeline().run(SVT.source, stop_after="explode")

    def test_parse_stage_artifact(self):
        run = Pipeline().run(SVT.source, stop_after="parse")
        assert run.function.name == "SVT"
        assert run.source_hash == source_hash(SVT.source)

    def test_lower_stage_lowers_samples(self):
        run = Pipeline().run(SVT.source, stop_after="lower")
        kinds = {type(c) for c in ast.command_iter(run.target.body)}
        assert ast.Sample not in kinds
        assert ast.Havoc in kinds

    def test_optimize_stage_removes_dead_shadow_stores(self):
        pipe = Pipeline()
        raw = pipe.run(NOISY_MAX.source, stop_after="lower").artifact("lower")
        optimized = pipe.run(NOISY_MAX.source, stop_after="optimize").target
        raw_stores = [
            c for c in ast.command_iter(raw.body)
            if isinstance(c, ast.Assign) and c.name == "max^s"
        ]
        assert raw_stores, "the raw lowering keeps the dead max^s stores"
        assert not [
            c for c in ast.command_iter(optimized.body)
            if isinstance(c, ast.Assign) and c.name == "max^s"
        ]

    def test_lower_ir_stage_builds_cfg(self):
        from repro.ir import ProgramIR

        run = Pipeline().run(SVT.source, stop_after="lower_ir")
        ir = run.ir
        assert isinstance(ir, ProgramIR)
        stats = ir.stats()
        assert stats["blocks"] > 1
        assert stats["loops"] == 1
        assert run.stages["lower_ir"].ir_stats == stats

    def test_lower_records_ir_pass_trail(self):
        run = Pipeline().run(SVT.source, stop_after="optimize")
        assert run.target.ir is not None
        assert run.target.ir.passes == (
            "fold-constant-guards",
            "lower-samples",
            "init-cost",
            "budget-assert",
            "dse-hats",
        )

    def test_function_def_input(self):
        run = Pipeline().run(SVT.function(), stop_after="check")
        assert run.checked.aligned_only


class TestEndToEnd:
    def test_registry_algorithms_verify(self):
        pipe = Pipeline()
        runs = pipe.run_many([SVT, NOISY_MAX])
        assert [r.name for r in runs] == ["SVT", "NoisyMax"]
        for run in runs:
            assert run.verified, run.describe()
            assert run.outcome.obligations_total > 0
            # Every stage ran and was accounted for.
            assert list(run.stages) == list(STAGES)
            assert run.solver_queries > 0

    def test_buggy_svt_refuted_with_counterexample(self):
        run = Pipeline().run(BUGGY.source, config=BUGGY.verification_config())
        assert run.verified is False
        assert run.outcome.failures
        assert all(f.arith_model is not None for f in run.outcome.failures)

    def test_unmemoized_run_matches_memoized_run(self):
        config = SVT.verification_config()
        one_shot = Pipeline(memoize=False).run(SVT.source, config=config)
        staged = Pipeline().run(SVT.source, config=config)
        assert one_shot.verified and staged.verified
        assert one_shot.target.body == staged.target.body
        assert one_shot.checked.aligned_only == staged.checked.aligned_only


def test_package_imports_nothing_from_benchmarks():
    """``repro`` runs outside a checkout: no module under ``src/repro``
    imports the repository's ``benchmarks`` directory."""
    import ast as pyast
    from pathlib import Path

    offenders = []
    for path in Path(repro.__file__).parent.rglob("*.py"):
        for node in pyast.walk(pyast.parse(path.read_text(), str(path))):
            if isinstance(node, pyast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, pyast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == "benchmarks" for name in names):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_pipeline_module_is_not_shadowed():
    """``repro.pipeline`` is the module: no package attribute of that
    name hides it from ``import repro.pipeline as P``."""
    import repro.pipeline as P

    assert P.Pipeline is Pipeline
    assert P.__name__ == "repro.pipeline"


class TestMemoization:
    def test_repeated_run_skips_all_prefix_stages(self):
        pipe = Pipeline()
        first = pipe.run(SVT.source, config=SVT.verification_config())
        assert not any(r.cached for r in first.stages.values())
        second = pipe.run(SVT.source, config=SVT.verification_config())
        assert all(r.cached for r in second.stages.values())
        assert second.verified
        # Cached stages report zero marginal cost.
        assert second.stages["check"].seconds == 0.0

    def test_config_sweep_reuses_check_and_lower(self):
        """Different bindings re-verify but never re-check/re-lower."""
        pipe = Pipeline()
        pipe.run(SVT.source, config=SVT.verification_config())
        n1 = dict(SVT.fixed_bindings, N=1)
        from repro.verify.verifier import VerificationConfig

        sweep = pipe.run(
            SVT.source,
            config=VerificationConfig(
                mode="unroll", bindings=n1,
                assumptions=SVT.assumption_exprs(), unroll_limit=16,
            ),
        )
        assert sweep.stages["check"].cached
        assert sweep.stages["lower"].cached
        assert sweep.stages["optimize"].cached
        assert not sweep.stages["verify"].cached  # new config fingerprint
        assert sweep.verified

    def test_run_many_tallies_hits(self):
        pipe = Pipeline()
        pipe.run_many([SVT, NOISY_MAX])
        assert pipe.cache_hits["check"] == 0
        pipe.run_many([SVT, NOISY_MAX])
        assert pipe.cache_hits["check"] == 2
        assert pipe.cache_hits["lower"] == 2
        assert pipe.cache_hits["verify"] == 2

    def test_memoize_false_never_caches(self):
        pipe = Pipeline(memoize=False)
        pipe.run(SVT.source, stop_after="check")
        run = pipe.run(SVT.source, stop_after="check")
        assert not any(r.cached for r in run.stages.values())

    def test_check_stage_shares_the_query_cache(self):
        """A program new to the stage memo (here: the same function with
        one more trailing newline) asks the type checker's questions of
        the pipeline's query cache, which answers them all."""
        pipe = Pipeline()
        first = pipe.run(NOISY_MAX.source, stop_after="check").stages["check"]
        checked = first.artifact
        assert first.solver_stats == {
            "queries": checked.solver_queries,
            "cache_hits": checked.solver_cache_hits,
            "solve_calls": checked.solve_calls,
        }
        assert checked.solve_calls > 0
        second = pipe.run(NOISY_MAX.source + "\n", stop_after="check").stages["check"]
        assert not second.cached
        assert second.solver_stats == {
            "queries": checked.solver_queries,
            "cache_hits": checked.solver_queries,
            "solve_calls": 0,
        }


class TestCLI:
    def _write(self, tmp_path, spec):
        path = tmp_path / f"{spec.name}.sdp"
        path.write_text(spec.source)
        return str(path)

    def _flags(self, spec):
        out = []
        for name, value in spec.fixed_bindings.items():
            out += ["--bind", f"{name}={value}"]
        for fact in spec.assumptions:
            out += ["--assume", fact]
        return out

    def test_pipeline_subcommand_prints_stage_timings(self, tmp_path, capsys):
        from repro.cli import main

        code = main(["pipeline", self._write(tmp_path, SVT)] + self._flags(SVT))
        out = capsys.readouterr().out
        assert code == 0
        for stage in STAGES:
            assert stage in out
        assert "solver queries" in out
        assert "VERIFIED" in out

    def test_pipeline_subcommand_json(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["pipeline", "--json", self._write(tmp_path, SVT)] + self._flags(SVT)
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload[0]["name"] == "SVT"
        assert payload[0]["verified"] is True
        assert [s["stage"] for s in payload[0]["stages"]] == list(STAGES)

    def test_pipeline_subcommand_stage_flag(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["pipeline", "--stage", "check", self._write(tmp_path, NOISY_MAX)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "check" in out and "verify" not in out

    def test_pipeline_subcommand_buggy_exit_code(self, tmp_path, capsys):
        from repro.cli import main

        code = main(
            ["pipeline", self._write(tmp_path, BUGGY)] + self._flags(BUGGY)
        )
        assert code == 1
        assert "REFUTED" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags",
        [["--jobs", "2"], ["--backend", "process"], ["--faults", "worker-kill@1"]],
    )
    def test_removed_discharge_settings_are_usage_errors(self, tmp_path, flags):
        from repro.cli import main

        try:
            code = main(["verify", self._write(tmp_path, SVT)] + self._flags(SVT) + flags)
        except SystemExit as exit_info:  # argparse rejects unknown flags
            code = exit_info.code
        assert code == 2
