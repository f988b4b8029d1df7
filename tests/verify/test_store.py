"""The persistent obligation store: round trips, isolation, resilience.

The store's contract (see ``docs/cache.md``): a warm rerun of an
unchanged program performs **zero** solves; every failure mode —
corrupt file, foreign schema version, undecodable row — degrades to a
counted miss, never a crash or a wrong verdict.
"""

import dataclasses
import gc
import json
import os
import re
import sqlite3
import threading
import time

import pytest

from repro import faults
from repro.algorithms import get
from repro.core.errors import ShadowDPTypeError
from repro.pipeline import Pipeline, spec_config
from repro.verify.discharge import DischargeCancelled
from repro.verify.store import (
    CHECK_FINGERPRINT,
    SCHEMA_VERSION,
    STORE_ENV_VAR,
    TOUCH_INTERVAL,
    ObligationStore,
    StoredVerdict,
    default_store_path,
    premise_fingerprint,
    resolve_store,
)
from repro.verify.verifier import verify_target


def _config(base, **kwargs):
    return dataclasses.replace(base, **kwargs)


def _run(spec_name, store, **overrides):
    spec = get(spec_name)
    return verify_target(
        spec.target(), _config(spec_config(spec), store=store, **overrides)
    )


class TestRoundTrip:
    def test_warm_rerun_solves_nothing(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        assert cold.verified is True
        assert cold.store["misses"] == cold.obligations_total
        assert cold.store["writes"] == cold.obligations_total
        assert cold.store["entries"] == cold.obligations_total
        assert cold.solve_calls > 0

        warm = _run("svt", path)
        assert warm.verified is True
        assert warm.oids == cold.oids
        assert warm.solve_calls == 0
        assert warm.solver_queries == 0  # hits never reach the plan
        assert warm.units == 0
        assert warm.store["hits"] == cold.obligations_total
        assert warm.store["misses"] == 0
        assert warm.store["writes"] == 0

    def test_refuted_program_round_trips_countermodels(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("bad_svt_leaks_value", path)
        assert cold.verified is False

        warm = _run("bad_svt_leaks_value", path)
        assert warm.verified is False
        assert warm.solve_calls == 0
        assert [f.obligation.oid for f in warm.failures] == [
            f.obligation.oid for f in cold.failures
        ]
        # Countermodels survive the JSON round trip exactly (Fractions).
        for warm_f, cold_f in zip(warm.failures, cold.failures):
            assert warm_f.arith_model == cold_f.arith_model
            assert warm_f.bool_model == cold_f.bool_model

    def test_store_disabled_by_default(self):
        spec = get("svt")
        outcome = verify_target(spec.target(), spec_config(spec))
        assert outcome.store is None
        assert "store" not in outcome.solver_stats()


class TestInvalidation:
    def test_different_premise_regime_misses(self, tmp_path):
        """The fingerprint keys on the premise regime: changing the
        lemma policy must re-prove, not reuse."""
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        shifted = _run("svt", path, use_lemmas=False)
        assert shifted.store["hits"] == 0
        assert shifted.store["misses"] == shifted.obligations_total
        assert cold.verified

    def test_fingerprint_is_order_insensitive_and_lemma_sensitive(self):
        from repro.lang.parser import parse_expr

        psi = parse_expr("eps > 0")
        a = parse_expr("N >= 1")
        b = parse_expr("eps <= 1")
        assert premise_fingerprint(psi, [a, b], True) == premise_fingerprint(
            psi, [b, a], True
        )
        assert premise_fingerprint(psi, [a, b], True) != premise_fingerprint(
            psi, [a, b], False
        )

    def test_early_exit_runs_record_nothing(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        outcome = _run("bad_svt_no_budget", path, fail_fast=True)
        assert outcome.verified is False
        if outcome.early_exit:
            assert outcome.store["writes"] == 0
            assert ObligationStore(path).entry_count() == 0


class TestResilience:
    def test_garbage_file_is_recreated(self, tmp_path):
        path = tmp_path / "store.sqlite"
        path.write_bytes(b"this is not a sqlite database at all\n")
        store = ObligationStore(os.fspath(path))
        assert store.lookup("oid", "fp") is None
        assert store.counters.invalid >= 1
        # And the recreated store is fully serviceable.
        assert store.record_many("fp", [("oid", "t", "r", True, "unsat", None, None)]) == 1
        assert store.lookup("oid", "fp") == StoredVerdict(True, "unsat")

    def test_schema_version_mismatch_clears(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        first = ObligationStore(path)
        first.record_many("fp", [("oid", "t", "r", True, "unsat", None, None)])
        first.close()
        conn = sqlite3.connect(path)
        conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION + 1:d}")
        conn.commit()
        conn.close()

        reopened = ObligationStore(path)
        assert reopened.lookup("oid", "fp") is None
        assert reopened.counters.invalid >= 1
        assert reopened.entry_count() == 0

    def test_undecodable_row_is_deleted_and_re_solved(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        assert cold.solve_calls > 0
        # Corrupt every stored model/status in place.
        conn = sqlite3.connect(path)
        conn.execute("UPDATE obligations SET status = 'maybe'")
        conn.commit()
        conn.close()

        warm = _run("svt", path)
        assert warm.verified is True
        assert warm.store["hits"] == 0
        assert warm.store["invalid"] == warm.obligations_total
        # The damaged rows were replaced by the rerun's fresh verdicts.
        third = _run("svt", path)
        assert third.solve_calls == 0
        assert third.store["hits"] == third.obligations_total

    def test_valid_verdict_with_non_unsat_status_is_rejected(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        store.record_many("fp", [("oid", "t", "r", True, "unsat", None, None)])
        conn = sqlite3.connect(store.path)
        conn.execute("UPDATE obligations SET status = 'sat'")
        conn.commit()
        conn.close()
        store.close()
        assert store.lookup("oid", "fp") is None
        assert store.counters.invalid == 1


class TestMaintenance:
    def _seed(self, store, count):
        store.record_many(
            "fp",
            [(f"oid{i}", "t", "r", i % 2 == 0, "unsat" if i % 2 == 0 else "unknown",
              None, None)
             for i in range(count)],
        )

    def test_gc_by_entry_count(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        self._seed(store, 10)
        assert store.entry_count() == 10
        assert store.gc(max_entries=4) == 6
        assert store.entry_count() == 4

    def test_gc_by_age(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        store = ObligationStore(path)
        self._seed(store, 5)
        # A stamp is refreshed only once it is TOUCH_INTERVAL old, so the
        # cutoff sits that much further back than max_age_days.
        assert store.gc(max_age_days=0.0) == 0
        day = 86400.0
        now = time.time()
        _sql(path, f"UPDATE obligations SET last_used = {now - day - 2 * TOUCH_INTERVAL}"
                   " WHERE oid IN ('oid0', 'oid1')")
        _sql(path, f"UPDATE obligations SET last_used = {now - day - TOUCH_INTERVAL / 2}"
                   " WHERE oid = 'oid2'")
        assert store.gc(max_age_days=1000.0) == 0
        assert store.gc(max_age_days=1.0) == 2
        assert sorted(_last_used(path)) == ["oid2", "oid3", "oid4"]
        assert store.gc(max_age_days=0.0) == 1
        assert store.entry_count() == 2

    def test_gc_keeps_every_row_used_within_max_age(self, tmp_path, monkeypatch):
        path = os.fspath(tmp_path / "store.sqlite")
        clock = [time.time()]
        monkeypatch.setattr(time, "time", lambda: clock[0])
        cold = _run("svt", path)
        days = 2.0
        # Used again before its stamp goes stale: the stamp is kept.
        clock[0] += TOUCH_INTERVAL / 2
        used = clock[0]
        assert _run("svt", path).store["hits"] == cold.obligations_total
        store = ObligationStore(path)
        clock[0] = used + days * 86400.0 - 1.0
        assert store.gc(max_age_days=days) == 0
        assert store.entry_count() == cold.obligations_total
        clock[0] = used + days * 86400.0 + TOUCH_INTERVAL
        assert store.gc(max_age_days=days) == cold.obligations_total

    def test_clear_and_breakdown(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        self._seed(store, 10)
        assert store.breakdown() == {"valid": 5, "refuted": 5}
        assert store.clear() == 10
        assert store.entry_count() == 0
        assert store.breakdown() == {"valid": 0, "refuted": 0}

    def test_stats_shape(self, tmp_path):
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        self._seed(store, 2)
        stats = store.stats()
        assert stats["entries"] == 2
        assert stats["schema_version"] == SCHEMA_VERSION
        assert stats["writes"] == 2
        assert stats["bytes"] > 0
        assert stats["path"] == store.path


def _commits(store):
    """A live list of the COMMIT statements ``store``'s connection runs."""
    statements = []
    store._connect().set_trace_callback(
        lambda sql: statements.append(sql)
        if sql.lstrip().upper().startswith("COMMIT") else None
    )
    return statements


def _sql(path, statement):
    """Run one statement on a fresh connection; returns its rows."""
    conn = sqlite3.connect(path)
    try:
        with conn:
            return conn.execute(statement).fetchall()
    finally:
        conn.close()


def _last_used(path):
    return dict(_sql(path, "SELECT oid, last_used FROM obligations"))


def _age_rows(path):
    _sql(path, "UPDATE obligations SET last_used = 0")


def _fingerprint(path):
    (fingerprint,) = _sql(path, "SELECT DISTINCT fp FROM obligations")
    return fingerprint[0]


class TestLastUsed:
    """A verification run refreshes ``last_used`` on the stale rows it
    was answered from in one write transaction; lookups only read."""

    @pytest.fixture(autouse=True)
    def _clean_faults(self):
        yield
        faults.install(None)
        faults.reset()

    def test_warm_witnessed_run_commits_once(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        store = ObligationStore(path)
        cold = _run("svt", store, witness=True)
        statements = []
        store._connect().set_trace_callback(statements.append)
        warm = _run("svt", store, witness=True)
        assert warm.store["hits"] == warm.store["validated_hits"] == cold.obligations_total
        assert warm.solve_calls == 0
        # Fresh rows: no write transaction at all, not an empty one.
        assert [sql for sql in statements if not sql.lstrip().upper().startswith("SELECT")] == []
        # Aged rows are refreshed in one commit.
        _age_rows(path)
        commits = _commits(store)
        _run("svt", store, witness=True)
        assert len(commits) == 1
        assert min(_last_used(path).values()) > 0

    def test_lookup_commits_nothing(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        _age_rows(path)
        store = ObligationStore(path)
        commits = _commits(store)
        fingerprint = _fingerprint(path)
        for oid in cold.oids:
            assert store.lookup(oid, fingerprint) is not None
        assert commits == []
        assert set(_last_used(path).values()) == {0}

    @pytest.mark.parametrize("spec_name", ["svt", "bad_svt_leaks_value"])
    def test_hits_refresh_last_used_and_survive_gc(self, tmp_path, spec_name):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run(spec_name, path)
        _age_rows(path)
        before = time.time()
        warm = _run(spec_name, path)
        assert warm.store["hits"] == cold.obligations_total
        stamps = _last_used(path)
        assert set(stamps) == set(cold.oids)
        assert min(stamps.values()) >= before - 1
        store = ObligationStore(path)
        assert store.gc(max_age_days=1) == 0
        assert store.entry_count() == cold.obligations_total

    def test_warm_run_over_fresh_rows_leaves_the_file_unchanged(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        spec = get("svt")
        config = _config(spec_config(spec), store=path, witness=True)
        Pipeline().run(spec.source, config=config)
        with open(path, "rb") as handle:
            before = handle.read()
        warm = Pipeline().run(spec.source, config=config)
        assert warm.outcome.solve_calls == 0
        assert warm.outcome.store["validated_hits"] == warm.outcome.obligations_total
        assert warm.stages["check"].solver_stats["store"]["hits"] > 0
        with open(path, "rb") as handle:
            assert handle.read() == before

    def test_only_stale_rows_are_refreshed(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        now = time.time()
        stale, fresh = cold.oids[::2], cold.oids[1::2]
        fresh_stamp = now - TOUCH_INTERVAL / 2
        _sql(path, f"UPDATE obligations SET last_used = {now - 2 * TOUCH_INTERVAL}")
        _sql(path, f"UPDATE obligations SET last_used = {fresh_stamp} WHERE oid IN"
                   f" ({', '.join(repr(oid) for oid in fresh)})")
        warm = _run("svt", path)
        assert warm.store["hits"] == cold.obligations_total
        stamps = _last_used(path)
        assert all(stamps[oid] >= now for oid in stale)
        assert all(stamps[oid] == fresh_stamp for oid in fresh)

    def test_degraded_store_touch_does_nothing(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("svt", path)
        _age_rows(path)
        store = ObligationStore(path)
        commits = _commits(store)
        store.touch(_fingerprint(path), [])
        store.degraded = True
        store.touch(_fingerprint(path), cold.oids)
        assert commits == []
        assert set(_last_used(path).values()) == {0}

    def test_busy_touch_is_retried(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        store = ObligationStore(path)
        cold = _run("svt", store)
        _age_rows(path)
        # One store-busy occurrence per lookup, then the touch.
        faults.install(f"store-busy@{cold.obligations_total + 1}")
        warm = _run("svt", store)
        assert warm.verified is True
        assert warm.solve_calls == 0
        assert warm.store["busy_retries"] == 1
        assert store.degraded is False
        assert faults.active().snapshot() == [
            ("store-busy", str(cold.obligations_total + 1))
        ]
        assert min(_last_used(path).values()) > 0

    def test_fail_fast_stop_on_a_stored_refutation_marks_the_rows_read(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        cold = _run("bad_svt_no_threshold_noise", path)
        refuted = {failure.obligation.oid for failure in cold.failures}
        first = next(i for i, oid in enumerate(cold.oids) if oid in refuted)
        assert first + 1 < len(cold.oids)
        _age_rows(path)
        warm = _run("bad_svt_no_threshold_noise", path, fail_fast=True)
        assert warm.early_exit and warm.solve_calls == 0
        assert warm.store["hits"] == first + 1 and warm.store["writes"] == 0
        used = {oid for oid, stamp in _last_used(path).items() if stamp > 0}
        assert used == set(cold.oids[: first + 1])

    def test_cancelled_verify_marks_every_row_it_read(self, tmp_path):
        # A row that answered a query is used, however the run ends: the
        # cancel lands after every verify-stage row was read.
        path = os.fspath(tmp_path / "store.sqlite")
        spec = get("svt")
        config = _config(spec_config(spec), store=path, witness=True)
        Pipeline().run(spec.source, config=config)
        _age_rows(path)
        cancel = threading.Event()
        cancel.set()
        with pytest.raises(DischargeCancelled):
            Pipeline().run(spec.source, config=_config(config, cancel_event=cancel))
        stamps = _sql(path, "SELECT fp, last_used FROM obligations")
        assert {fp == CHECK_FINGERPRINT for fp, _ in stamps} == {True, False}
        assert min(stamp for _, stamp in stamps) > 0

    def test_type_rejected_candidate_writes_and_marks_its_check_rows(self, tmp_path):
        path = os.fspath(tmp_path / "store.sqlite")
        spec = get("svt")
        # Not injective: the check stage asks one question, then rejects.
        source = spec.source.replace("Omega ? 2 : 0", "Omega ? -2 : 0")
        config = _config(spec_config(spec), store=path, witness=True)
        with pytest.raises(ShadowDPTypeError) as cold:
            Pipeline().run(source, config=config)
        assert cold.value.solve_calls == 1
        assert [fp for fp, _ in _sql(path, "SELECT fp, valid FROM obligations")] == [
            CHECK_FINGERPRINT
        ]
        _age_rows(path)
        with pytest.raises(ShadowDPTypeError) as warm:
            Pipeline().run(source, config=config)
        assert warm.value.solve_calls == 0
        assert min(_last_used(path).values()) > 0


class TestConfiguration:
    def test_default_path_respects_xdg(self, monkeypatch, tmp_path):
        monkeypatch.setenv("XDG_CACHE_HOME", os.fspath(tmp_path))
        assert default_store_path() == os.fspath(
            tmp_path / "repro" / "obligations.sqlite"
        )
        monkeypatch.delenv("XDG_CACHE_HOME")
        assert default_store_path().endswith(
            os.path.join(".cache", "repro", "obligations.sqlite")
        )

    def test_resolve_store(self, tmp_path):
        assert resolve_store(None) is None
        ready = ObligationStore(os.fspath(tmp_path / "s.sqlite"))
        assert resolve_store(ready) is ready
        resolved = resolve_store(os.fspath(tmp_path / "t.sqlite"))
        assert isinstance(resolved, ObligationStore)
        assert resolved.path == os.fspath(tmp_path / "t.sqlite")

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd"
    )
    def test_run_closes_a_store_it_opened_from_a_path(self, tmp_path):
        """A store built from a path for one run is closed when the run
        returns, not when the cyclic collector reaches it; a caller's
        instance stays open."""
        path = os.fspath(tmp_path / "store.sqlite")

        def open_descriptors():
            count = 0
            for fd in os.listdir("/proc/self/fd"):
                try:
                    target = os.readlink(f"/proc/self/fd/{fd}")
                except OSError:
                    continue
                count += target.startswith(path)
            return count

        spec = get("svt")
        enabled = gc.isenabled()
        gc.disable()
        try:
            run = Pipeline().run(
                spec.source, config=_config(spec_config(spec), store=path)
            )
            assert run.outcome.store["writes"] == run.outcome.obligations_total
            assert open_descriptors() == 0
            store = ObligationStore(path)
            Pipeline().run(spec.source, config=_config(spec_config(spec), store=store))
            assert open_descriptors() == 1
            store.close()
        finally:
            if enabled:
                gc.enable()

    def test_env_var_enables_store_for_cli_configs(self, monkeypatch, tmp_path):
        import argparse

        from repro.cli import _config_from_args

        path = os.fspath(tmp_path / "env.sqlite")
        monkeypatch.setenv(STORE_ENV_VAR, path)
        config = _config_from_args(argparse.Namespace())
        assert config.store == path
        # An explicit flag wins over the environment.
        flagged = _config_from_args(argparse.Namespace(store="/elsewhere.sqlite"))
        assert flagged.store == "/elsewhere.sqlite"
        monkeypatch.delenv(STORE_ENV_VAR)
        assert _config_from_args(argparse.Namespace()).store is None

    def test_houdini_callbacks_bypass_store(self, tmp_path):
        """Houdini-style runs (an ``on_failure`` closure) judge candidate
        invariants, not the program — their verdicts must never be
        persisted or served."""
        from repro.verify.verifier import iter_obligations, prepare_generator

        spec = get("svt")
        path = os.fspath(tmp_path / "store.sqlite")
        config = _config(spec_config(spec), store=path)
        target = spec.target()
        _, checker = prepare_generator(target, config)
        failures = checker.discharge_stream(
            iter_obligations(target, config), on_failure=lambda ob: None
        )
        assert failures == []
        assert checker.store.snapshot() == {
            "hits": 0, "misses": 0, "writes": 0, "invalid": 0,
            "busy_retries": 0, "memory_writes": 0,
            "validated_hits": 0, "witness_rejects": 0,
        }
        assert ObligationStore(path).entry_count() == 0


class TestCacheCLI:
    def test_stats_gc_clear_path(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        path = os.fspath(tmp_path / "store.sqlite")
        store = ObligationStore(path)
        store.record_many(
            "fp", [(f"oid{i}", "t", "r", True, "unsat", None, None) for i in range(6)]
        )
        store.close()

        assert cli_main(["cache", "path", "--store", path]) == 0
        assert capsys.readouterr().out.strip() == path

        assert cli_main(["cache", "stats", "--store", path, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 6
        assert stats["breakdown"] == {"valid": 6, "refuted": 0}

        assert cli_main(["cache", "gc", "--store", path, "--max-entries", "2"]) == 0
        assert "removed 4" in capsys.readouterr().out

        assert cli_main(["cache", "clear", "--store", path]) == 0
        assert "cleared 2" in capsys.readouterr().out
        assert ObligationStore(path).entry_count() == 0

    def test_stats_report_certificate_weight(self, tmp_path, capsys):
        from repro.cli import main as cli_main

        texts = ["x" * 1000, "y" * 1560, None]
        rows = [
            (f"oid{i}", "t", "r", True, "unsat", None, text)
            for i, text in enumerate(texts)
        ]
        path = os.fspath(tmp_path / "store.sqlite")
        store = ObligationStore(path)
        store.record_many("fp", rows)
        store.close()

        assert cli_main(["cache", "stats", "--store", path, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert (stats["witnesses"], stats["witness_bytes"]) == (2, 2560)
        assert cli_main(["cache", "stats", "--store", path]) == 0
        assert (
            "witnesses: 2 of 3 valid entries carry a proof certificate (2.5 KiB)"
            in capsys.readouterr().out
        )

        # A degraded store sums the certificates it holds in memory.
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        degraded = ObligationStore(os.fspath(blocker / "store.sqlite"))
        degraded.record_many("fp", rows)
        assert degraded.degraded
        assert degraded.stats()["witness_bytes"] == 2560
        assert ObligationStore(os.fspath(tmp_path / "empty.sqlite")).stats()[
            "witness_bytes"
        ] == 0

    def test_gc_without_bounds_is_an_error(self, tmp_path):
        from repro.cli import main as cli_main

        path = os.fspath(tmp_path / "store.sqlite")
        with pytest.raises(SystemExit):
            cli_main(["cache", "gc", "--store", path])

    def test_verify_with_store_prints_store_line(self, tmp_path, capsys):
        from repro.cli import main as cli_main
        from repro.lang.pretty import pretty_expr

        path = os.fspath(tmp_path / "store.sqlite")
        spec = get("svt")
        regime = spec_config(spec)
        source = tmp_path / "svt.sdp"
        source.write_text(spec.source)
        args = ["verify", os.fspath(source), "--store", path, "--solver-stats",
                "--mode", regime.mode, "--unroll", str(regime.unroll_limit)]
        for name, value in sorted(regime.bindings.items()):
            args += ["--bind", f"{name}={value}"]
        for assumption in regime.assumptions:
            args += ["--assume", pretty_expr(assumption)]
        assert cli_main(args) == 0
        cold_out = capsys.readouterr().out
        assert "store: 0 hits" in cold_out
        assert cli_main(args) == 0
        warm_out = capsys.readouterr().out
        hits = int(re.search(r"store: (\d+) hits, (\d+) misses", warm_out).group(1))
        misses = int(re.search(r"store: (\d+) hits, (\d+) misses", warm_out).group(2))
        assert hits > 0 and misses == 0
