"""Warm store hits are never trusted blindly: each witnessed hit is
re-validated by the trusted kernel, and a certificate that fails to
check degrades to a counted re-solve — including under the
``witness-corrupt`` fault site."""

import dataclasses
import os
import sqlite3

import pytest

from repro import faults
from repro.algorithms import get
from repro.pipeline import Pipeline
from repro.pipeline import spec_config
from repro.solver.context import QueryCache
from repro.verify.store import CHECK_FINGERPRINT, ObligationStore
from repro.verify.verifier import verify_target
from repro.witness import Certificate, validate


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.install(None)
    faults.reset()


def _witnessed_config(spec, store_path):
    return dataclasses.replace(
        spec_config(spec), store=os.fspath(store_path), witness=True
    )


class TestValidatedHits:
    def test_warm_run_validates_every_hit_with_zero_solves(self, tmp_path):
        spec = get("svt")
        config = _witnessed_config(spec, tmp_path / "store.sqlite")
        cold = verify_target(spec.target(), config)
        assert cold.verified and cold.store["writes"] == cold.obligations_total

        warm = verify_target(spec.target(), config)
        assert warm.verified
        assert warm.solve_calls == 0
        assert warm.store["hits"] == warm.obligations_total
        assert warm.store["validated_hits"] == warm.obligations_total
        assert warm.store["witness_rejects"] == 0
        # The re-validated certificates are collected again.
        assert warm.witnesses == warm.obligations_total

    def test_unwitnessed_runs_skip_validation(self, tmp_path):
        spec = get("svt")
        config = _witnessed_config(spec, tmp_path / "store.sqlite")
        verify_target(spec.target(), config)
        warm = verify_target(
            spec.target(), dataclasses.replace(config, witness=False)
        )
        assert warm.verified and warm.solve_calls == 0
        assert warm.store["validated_hits"] == 0


class TestRejectedWitnessDegradesToReSolve:
    def test_tampered_row_is_recounted_and_resolved(self, tmp_path):
        spec = get("svt")
        store_path = tmp_path / "store.sqlite"
        config = _witnessed_config(spec, store_path)
        cold = verify_target(spec.target(), config)

        # Corrupt one stored certificate on disk (valid JSON prefix cut).
        conn = sqlite3.connect(os.fspath(store_path))
        oid = conn.execute(
            "SELECT oid FROM obligations WHERE witness IS NOT NULL LIMIT 1"
        ).fetchone()[0]
        conn.execute(
            "UPDATE obligations SET witness = substr(witness, 1, 40) "
            "WHERE oid = ?",
            (oid,),
        )
        conn.commit()
        conn.close()

        warm = verify_target(spec.target(), config)
        assert warm.verified
        assert warm.store["witness_rejects"] == 1
        assert warm.store["validated_hits"] == cold.obligations_total - 1
        # The rejected entry was re-solved, not trusted ...
        assert warm.solve_calls >= 1
        # ... and the clean run re-persisted a fresh certificate.
        store = ObligationStore(os.fspath(store_path))
        assert store.witness_count() == cold.obligations_total

    def test_witness_corrupt_fault_site(self, tmp_path):
        """The chaos seam: ``witness-corrupt@N`` serves the Nth
        witnessed hit truncated, without touching the row on disk."""
        spec = get("svt")
        store_path = tmp_path / "store.sqlite"
        config = _witnessed_config(spec, store_path)
        cold = verify_target(spec.target(), config)
        before = ObligationStore(os.fspath(store_path)).witness_count()

        faults.install("witness-corrupt@3")
        warm = verify_target(spec.target(), config)
        assert warm.verified
        assert warm.store["witness_rejects"] == 1
        assert warm.store["validated_hits"] == cold.obligations_total - 1
        assert [(f.site, f.key) for f in faults.active().trail] == [
            ("witness-corrupt", "3")
        ]
        # The disk row was never harmed — only the served copy.
        assert ObligationStore(os.fspath(store_path)).witness_count() == before

    def test_pipeline_fingerprint_separates_witnessed_runs(self, tmp_path):
        # A witnessed run and a plain run of the same source must not
        # share a stage-memo entry: their outcomes differ observably
        # (witness counts, validated-hit traffic).
        spec = get("svt")
        pipe = Pipeline()
        config = _witnessed_config(spec, tmp_path / "store.sqlite")
        witnessed = pipe.run(spec.source, config=config)
        plain = pipe.run(
            spec.source, config=dataclasses.replace(config, witness=False)
        )
        assert witnessed.outcome.witnesses == witnessed.outcome.obligations_total
        assert plain.outcome.witnesses is None
        assert not plain.stages["verify"].cached


def _rows(store_path, check_stage=False):
    """The verify-stage rows of a store, or with ``check_stage`` the
    rows a witnessed check stage wrote."""
    conn = sqlite3.connect(os.fspath(store_path))
    try:
        rows = conn.execute("SELECT oid, fp, valid, status, witness FROM obligations")
        return sorted(row for row in rows if (row[1] == CHECK_FINGERPRINT) == check_stage)
    finally:
        conn.close()


class TestSharedQueryCache:
    """The pipeline's query cache also holds answers solved without
    proof (plain runs, the type checker); a witnessed run must still
    certify every valid verdict."""

    def test_witnessed_run_after_plain_run_certifies_every_row(self, tmp_path):
        spec = get("noisy_max")
        pipe = Pipeline()
        assert pipe.run(spec.source, config=spec_config(spec)).verified
        store_path = tmp_path / "store.sqlite"
        outcome = pipe.run(
            spec.source, config=_witnessed_config(spec, store_path)
        ).outcome
        assert outcome.verified
        assert outcome.witnesses == 6
        rows = _rows(store_path)
        assert len(rows) == 6
        for _oid, _fp, valid, _status, witness in rows:
            assert valid and witness is not None
            validate(Certificate.from_json(witness))
        # The type checker's answers sit beside them: every valid one
        # with a certificate, though the plain run had cached it without.
        check_rows = _rows(store_path, check_stage=True)
        assert check_rows
        for _oid, _fp, valid, status, witness in check_rows:
            if valid:
                validate(Certificate.from_json(witness))
            else:
                assert status == "sat" and witness is None

    @pytest.mark.parametrize("name, certificates", [("noisy_max", 6), ("svt", 12)])
    def test_type_checked_run_stores_a_private_caches_certificates(
        self, tmp_path, name, certificates
    ):
        # The check stage fills the pipeline's cache before verify runs;
        # the stored rows must be those of a verify on a cache of its own.
        spec = get(name)
        shared = Pipeline().run(
            spec.source, config=_witnessed_config(spec, tmp_path / "shared.sqlite")
        )
        assert shared.stages["check"].solver_queries > 0
        assert shared.outcome.witnesses == certificates
        private = verify_target(
            spec.target(),
            _witnessed_config(spec, tmp_path / "private.sqlite"),
            cache=QueryCache(),
        )
        assert private.witnesses == certificates
        assert _rows(tmp_path / "shared.sqlite") == _rows(tmp_path / "private.sqlite")
