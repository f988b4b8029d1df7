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


class TestRowsWithoutCertificate:
    """In a witnessed run a valid row counts only once the kernel
    accepts its certificate, in both stages: a row written without one
    (by an unwitnessed run, or with its certificate gone) is a miss,
    re-solved and rewritten certified."""

    @pytest.mark.parametrize("source", ["unwitnessed-run", "null-witness"])
    def test_witnessed_run_recertifies_both_stages(self, tmp_path, source):
        spec = get("svt")
        store_path = tmp_path / "store.sqlite"
        config = _witnessed_config(spec, store_path)
        if source == "unwitnessed-run":
            Pipeline().run(spec.source, config=dataclasses.replace(config, witness=False))
        else:
            Pipeline().run(spec.source, config=config)
            conn = sqlite3.connect(os.fspath(store_path))
            with conn:
                conn.execute("UPDATE obligations SET witness = NULL")
            conn.close()
        valid = [row for row in _rows(store_path) if row[2]]
        assert valid and all(row[-1] is None for row in valid)

        run = Pipeline().run(spec.source, config=config)
        outcome = run.outcome
        assert outcome.verified
        assert outcome.solve_calls > 0
        assert outcome.store["validated_hits"] == outcome.store["witness_rejects"] == 0
        assert outcome.store["writes"] == outcome.obligations_total
        assert outcome.witnesses == outcome.obligations_total
        assert run.stages["check"].solver_stats["solve_calls"] > 0
        for check_stage in (False, True):
            rows = _rows(store_path, check_stage)
            assert any(row[2] for row in rows)
            for _oid, _fp, valid, _status, witness in rows:
                if valid:
                    validate(Certificate.from_json(witness))


def _kernel_runs(monkeypatch):
    """A live list of the certificates the trusted kernel checks on
    store hits."""
    import repro.verify.store as store_mod

    runs = []
    original = store_mod.validate

    def counting(certificate):
        runs.append(certificate)
        return original(certificate)

    monkeypatch.setattr(store_mod, "validate", counting)
    return runs


class TestOneKernelCheckPerProof:
    """Within one pipeline run the kernel checks each distinct stored
    proof once; every row is still decoded, and a row whose proof differs
    is checked on its own."""

    def _cold(self, spec, store):
        config = dataclasses.replace(spec_config(spec), store=store, witness=True)
        cold = Pipeline().run(spec.source, config=config)
        assert cold.outcome.verified
        return config, cold

    def test_shared_proofs_are_checked_once_per_run(self, tmp_path, monkeypatch):
        spec = get("svt")
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        config, cold = self._cold(spec, store)
        proofs = {
            Certificate.from_json(witness).proof()
            for *_, witness in _rows(store.path) + _rows(store.path, check_stage=True)
            if witness is not None
        }
        runs = _kernel_runs(monkeypatch)
        for _ in range(2):
            del runs[:]
            warm = Pipeline().run(spec.source, config=config)
            hits = (warm.outcome.store["validated_hits"]
                    + warm.stages["check"].solver_stats["store"]["validated_hits"])
            assert warm.outcome.solve_calls == 0
            assert warm.outcome.store["witness_rejects"] == 0
            assert hits == cold.outcome.obligations_total + len(cold.checked.certificates)
            # Nothing carries over between runs sharing one store.
            assert len(runs) == len(proofs) < hits

    def test_tampered_row_sharing_a_proof_is_rejected(self, tmp_path, monkeypatch):
        spec = get("svt")
        store_path = tmp_path / "store.sqlite"
        config, cold = self._cold(spec, os.fspath(store_path))
        rows = {oid: witness for oid, _, _, _, witness in _rows(store_path)}
        by_proof = {}
        for oid in cold.outcome.oids:
            by_proof.setdefault(Certificate.from_json(rows[oid]).proof(), []).append(oid)
        served, tampered = next(oids for oids in by_proof.values() if len(oids) > 1)[:2]
        # Same assumptions and atoms as the proof served first, no events:
        # decodable, and the kernel must reject it.
        certificate = Certificate.from_json(rows[tampered])
        certificate.events = ()
        conn = sqlite3.connect(os.fspath(store_path))
        with conn:
            conn.execute(
                "UPDATE obligations SET witness = ? WHERE oid = ?",
                (certificate.to_json(), tampered),
            )
        conn.close()

        runs = _kernel_runs(monkeypatch)
        warm = Pipeline().run(spec.source, config=config)
        assert warm.outcome.verified
        assert warm.outcome.store["witness_rejects"] == 1
        assert warm.outcome.store["validated_hits"] == cold.outcome.obligations_total - 1
        assert warm.outcome.solve_calls >= 1
        assert any(run.oid == tampered for run in runs)
        assert served in warm.outcome.oids
        # Re-solved: the row holds a certificate the kernel accepts again.
        rewritten = dict((oid, w) for oid, _, _, _, w in _rows(store_path))[tampered]
        validate(Certificate.from_json(rewritten))

    def test_witness_corrupt_is_rejected_inside_a_run(self, tmp_path):
        spec = get("svt")
        config, cold = self._cold(spec, os.fspath(tmp_path / "store.sqlite"))
        hits = cold.outcome.obligations_total + len(cold.checked.certificates)
        for index in range(1, hits + 1):
            faults.install(f"witness-corrupt@{index}")
            warm = Pipeline().run(spec.source, config=config)
            rejects = (warm.outcome.store["witness_rejects"]
                       + warm.stages["check"].solver_stats["store"]["witness_rejects"])
            assert warm.outcome.verified
            assert rejects == 1, index
            faults.install(None)
            faults.reset()
