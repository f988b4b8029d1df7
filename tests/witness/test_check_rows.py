"""The type checker's answers in the obligation store.

With witnesses on and a store attached, the check stage answers each
query it would solve from a check-stage row, keyed by the normalized
query's id under one fingerprint:

* a witnessed registry sweep stores a kernel-accepted certificate for
  every valid answer the checker relied on;
* a warm witnessed run makes no check-stage solve, and its checked
  programs are those of an unwitnessed check;
* a row whose certificate the kernel rejects is counted in
  ``witness_rejects`` and re-solved, never used;
* an unwitnessed run neither reads nor writes check-stage rows;
* a warm run marks the check and verify rows it used in one commit;
* ``repro witness sweep`` re-validates check-stage rows.
"""

import dataclasses
import os
import shutil
import sqlite3

import pytest

from repro.algorithms import all_specs, get
from repro.lang.pretty import pretty_command
from repro.pipeline import Pipeline, spec_config
from repro.verify.store import CHECK_FINGERPRINT, ObligationStore
from repro.witness import Certificate, validate

#: Programs whose type check asks the solver something.
ASKING = ["noisy_max", "svt", "gap_svt", "bad_svt_no_threshold_noise"]


def _config(spec, store, witness=True):
    return dataclasses.replace(spec_config(spec), store=store, witness=witness)


def _check_rows(path):
    conn = sqlite3.connect(os.fspath(path))
    try:
        return conn.execute(
            "SELECT oid, valid, status, witness FROM obligations WHERE fp = ?"
            " ORDER BY oid",
            (CHECK_FINGERPRINT,),
        ).fetchall()
    finally:
        conn.close()


def _set_witness(path, oid, text):
    conn = sqlite3.connect(os.fspath(path))
    try:
        with conn:
            conn.execute(
                "UPDATE obligations SET witness = ? WHERE oid = ? AND fp = ?",
                (text, oid, CHECK_FINGERPRINT),
            )
    finally:
        conn.close()


@pytest.fixture(scope="module")
def populated(tmp_path_factory):
    """A store a witnessed registry sweep through one pipeline wrote,
    with that sweep's runs."""
    path = tmp_path_factory.mktemp("check-rows") / "store.sqlite"
    pipe = Pipeline()
    runs = {
        spec.name: pipe.run(spec.source, config=_config(spec, os.fspath(path)))
        for spec in all_specs()
    }
    return path, runs


@pytest.fixture
def warm_store(populated, tmp_path):
    path = tmp_path / "store.sqlite"
    shutil.copy(populated[0], path)
    return path


class TestCheckRows:
    def test_every_valid_answer_has_a_kernel_accepted_row(self, populated):
        path, runs = populated
        rows = {oid: (valid, status, witness) for oid, valid, status, witness in _check_rows(path)}
        relied = {}
        for run in runs.values():
            relied.update(run.checked.certificates)
        assert relied and set(relied) <= set(rows)
        for oid, (valid, status, witness) in rows.items():
            if not valid:
                assert status == "sat" and witness is None
                continue
            certificate = Certificate.from_json(witness)
            assert (certificate.oid, certificate.fingerprint) == (oid, CHECK_FINGERPRINT)
            validate(certificate)
        assert {oid for oid, (valid, _, _) in rows.items() if valid} == set(relied)
        # One row per distinct question: the sweep's solves.
        solves = sum(run.stages["check"].solver_stats["solve_calls"] for run in runs.values())
        assert len(rows) == solves

    def test_warm_run_makes_no_check_stage_solve(self, populated, warm_store):
        _, cold = populated
        valid = {oid for oid, ok, _, _ in _check_rows(warm_store) if ok}
        served = 0
        for spec in all_specs():
            run = Pipeline().run(spec.source, config=_config(spec, os.fspath(warm_store)))
            stats = run.stages["check"].solver_stats
            assert stats["solve_calls"] == 0, spec.name
            assert stats["store"]["witness_rejects"] == 0
            assert stats["store"]["validated_hits"] == len(set(run.checked.certificates) & valid)
            served += stats["store"]["hits"] - stats["store"]["validated_hits"]
            assert run.verified == spec.expect_verified
            assert pretty_command(run.checked.body) == pretty_command(cold[spec.name].checked.body)
            for certificate in run.checked.certificates.values():
                validate(certificate)
        # A refuted row answers as stored, with no certificate.
        assert served > 0

    @pytest.mark.parametrize("mutation", ["truncate", "drop-last-event"])
    def test_rejected_certificate_is_counted_and_re_solved(self, warm_store, mutation):
        spec = get("svt")
        cold = Pipeline().run(spec.source, config=_config(spec, os.fspath(warm_store)))
        (oid, certificate), = cold.checked.certificates.items()
        (text,) = [w for o, _, _, w in _check_rows(warm_store) if o == oid]
        if mutation == "truncate":
            bad = text[: len(text) // 2]
        else:
            stored = Certificate.from_json(text)
            bad = dataclasses.replace(stored, events=stored.events[:-1]).to_json()
        _set_witness(warm_store, oid, bad)

        run = Pipeline().run(spec.source, config=_config(spec, os.fspath(warm_store)))
        stats = run.stages["check"].solver_stats
        assert stats["solve_calls"] == 1
        assert stats["store"]["witness_rejects"] == 1
        assert stats["store"]["validated_hits"] == 0
        validate(run.checked.certificates[oid])
        assert run.checked.certificates[oid].to_json() != bad
        # The re-solved answer replaced the row.
        (fixed,) = [w for o, _, _, w in _check_rows(warm_store) if o == oid]
        validate(Certificate.from_json(fixed))

    def test_unwitnessed_run_neither_reads_nor_writes(self, warm_store, tmp_path, monkeypatch):
        fingerprints = []
        lookup = ObligationStore.lookup

        def spy(self, oid, fingerprint):
            fingerprints.append(fingerprint)
            return lookup(self, oid, fingerprint)

        monkeypatch.setattr(ObligationStore, "lookup", spy)
        empty = tmp_path / "empty.sqlite"
        for name in ASKING:
            spec = get(name)
            for path in (warm_store, empty):
                run = Pipeline().run(spec.source, config=_config(spec, os.fspath(path), False))
                assert "store" not in run.stages["check"].solver_stats
                assert run.checked.certificates == {}
        assert fingerprints and CHECK_FINGERPRINT not in fingerprints
        assert _check_rows(empty) == []

    def test_warm_run_commits_once(self, warm_store):
        spec = get("svt")
        store = ObligationStore(os.fspath(warm_store))
        conn = sqlite3.connect(os.fspath(warm_store))
        with conn:
            conn.execute("UPDATE obligations SET last_used = 0")
        conn.close()
        commits = []
        store._connect().set_trace_callback(
            lambda sql: commits.append(sql) if sql.lstrip().upper().startswith("COMMIT") else None
        )
        run = Pipeline().run(spec.source, config=_config(spec, store))
        assert run.stages["check"].solver_stats["store"]["hits"] == 1
        assert run.outcome.store["hits"] == run.outcome.obligations_total
        assert len(commits) == 1
        conn = sqlite3.connect(os.fspath(warm_store))
        used = conn.execute(
            "SELECT fp, COUNT(*) FROM obligations WHERE last_used > 0 GROUP BY fp"
        ).fetchall()
        conn.close()
        assert dict(used)[CHECK_FINGERPRINT] == 1
        assert sum(count for _, count in used) == 1 + run.outcome.obligations_total

    def test_check_memo_names_witness_and_store(self, warm_store, tmp_path):
        spec = get("svt")
        pipe = Pipeline()
        other = os.fspath(tmp_path / "other.sqlite")
        plain = pipe.run(spec.source, config=_config(spec, os.fspath(warm_store), False))
        witnessed = pipe.run(spec.source, config=_config(spec, os.fspath(warm_store)))
        again = pipe.run(spec.source, config=_config(spec, os.fspath(warm_store)))
        elsewhere = pipe.run(spec.source, config=_config(spec, other))
        assert not plain.stages["check"].cached
        assert not witnessed.stages["check"].cached
        assert again.stages["check"].cached
        assert not elsewhere.stages["check"].cached
        # The pipeline's query cache answered the second store's run.
        assert set(elsewhere.checked.certificates) == set(witnessed.checked.certificates)
        assert elsewhere.stages["check"].solver_stats["cache_hits"] == 1


class TestWitnessSweep:
    def test_sweep_revalidates_check_rows(self, tmp_path, capsys):
        from repro.cli import main

        path = os.fspath(tmp_path / "store.sqlite")
        flags = ["witness", "sweep", "--store", path, "--spec", "svt"]
        assert main(flags + ["--populate"]) == 0
        assert "(type checker)           1 validated" in capsys.readouterr().out
        ((oid, _, _, text),) = _check_rows(path)
        _set_witness(path, oid, text[: len(text) // 2])
        assert main(flags) == 1
        out = capsys.readouterr().out
        assert "(type checker)           0 validated" in out
        assert "1 rejected" in out
