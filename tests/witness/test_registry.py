"""The witness subsystem's global contract, over the whole registry:

* emission is observationally free — verdicts and every solver counter
  are identical with witnesses on and off, in both regimes;
* every valid obligation of every Table-1 algorithm yields a
  certificate, and every certificate passes the trusted validator;
* what the store keeps of each certificate is its proof core: a
  kernel-checked, idempotent cut of the emitted events, atoms restricted
  to what they mention; a certificate the backward check cannot
  re-derive is stored as emitted; rows written untrimmed still serve.
"""

import dataclasses
import os
import sqlite3

import pytest

from repro.algorithms import all_specs, get
from repro.pipeline import spec_config
from repro.verify.store import ObligationStore
from repro.verify.verifier import prepare_generator, target_cfg, verify_target
from repro.witness import Certificate, WitnessError, trim_certificate, validate

CORRECT = [s.name for s in all_specs(include_buggy=False)]
BUGGY = [s.name for s in all_specs() if not s.expect_verified]


def _counters(outcome):
    return (
        outcome.verified,
        outcome.obligations_total,
        outcome.solver_queries,
        outcome.cache_hits,
        outcome.solve_calls,
        outcome.context_pushes,
        outcome.context_pops,
        outcome.oids,
    )


def _run(spec, witness, **overrides):
    config = dataclasses.replace(spec_config(spec), witness=witness, **overrides)
    return verify_target(spec.target(), config)


class TestEmissionIsFree:
    @pytest.mark.parametrize("name", CORRECT)
    def test_unroll_regime_counters_unchanged(self, name):
        spec = get(name)
        plain = _run(spec, witness=False)
        witnessed = _run(spec, witness=True)
        assert _counters(plain) == _counters(witnessed)
        assert plain.witnesses is None
        assert witnessed.witnesses == witnessed.obligations_total

    @pytest.mark.parametrize("name", CORRECT)
    def test_invariant_regime_counters_unchanged(self, name):
        spec = get(name)
        config = dataclasses.replace(
            spec_config(spec), mode="invariant", bindings={},
        )
        plain = verify_target(spec.target(), config)
        witnessed = verify_target(
            spec.target(), dataclasses.replace(config, witness=True)
        )
        assert _counters(plain) == _counters(witnessed)
        assert witnessed.verified

    @pytest.mark.parametrize("name", BUGGY)
    def test_refutations_unchanged_and_unwitnessed(self, name):
        spec = get(name)
        plain = _run(spec, witness=False)
        witnessed = _run(spec, witness=True)
        assert not witnessed.verified
        assert _counters(plain) == _counters(witnessed)
        refuted = {f.obligation.oid for f in witnessed.failures}
        assert witnessed.witnesses == witnessed.obligations_total - len(refuted)


class TestEveryCertificateValidates:
    @pytest.mark.parametrize("name", CORRECT)
    def test_full_coverage_serial(self, name):
        from repro.verify.verifier import prepare_generator, target_cfg

        spec = get(name)
        config = dataclasses.replace(spec_config(spec), witness=True)
        generator, checker = prepare_generator(spec.target(), config)
        failures = checker.discharge_stream(
            generator.stream(target_cfg(spec.target(), config))
        )
        assert not failures
        oids = {ob.oid for ob in generator.obligations}
        assert set(checker.certificates) == oids
        for certificate in checker.certificates.values():
            validate(certificate)


@pytest.fixture(scope="module")
def cores(registry_certificates):
    """``(emitted, proof core)`` for every distinct registry certificate,
    both regimes, ``num_svt`` included."""
    distinct = {id(cert): cert for cert in registry_certificates}
    return [(cert, trim_certificate(cert)) for cert in distinct.values()]


def _discharged(spec, **overrides):
    """A witnessed checker that has discharged ``spec`` (writing back to
    the store when ``store`` is among the overrides)."""
    config = dataclasses.replace(spec_config(spec), witness=True, **overrides)
    generator, checker = prepare_generator(spec.target(), config)
    failures = checker.discharge_stream(
        generator.stream(target_cfg(spec.target(), config))
    )
    assert not failures
    if checker.store is not None:
        checker.store.close()
    return checker


def _rows(path, columns="oid, witness"):
    conn = sqlite3.connect(os.fspath(path))
    try:
        return conn.execute(
            f"SELECT {columns} FROM obligations ORDER BY oid, fp"
        ).fetchall()
    finally:
        conn.close()


def _rejected(certificate):
    try:
        validate(certificate)
    except WitnessError:
        return True
    return False


class TestProofCore:
    def test_every_core_passes_the_kernel(self, cores):
        assert len(cores) > 40
        for _, core in cores:
            assert core is not None
            validate(core)
            validate(Certificate.from_json(core.to_json()))

    def test_events_are_an_ordered_subsequence(self, cores):
        for emitted, core in cores:
            remaining = iter(emitted.events)
            assert all(event in remaining for event in core.events)

    def test_assumptions_kept_and_atoms_restricted(self, cores):
        for emitted, core in cores:
            assert core.assumptions == emitted.assumptions
            mentioned = {abs(lit) for event in core.events for lit in event[1]}
            assert core.atoms == {
                var: atom for var, atom in emitted.atoms.items() if var in mentioned
            }

    def test_cores_are_a_fraction_of_the_emitted_text(self, cores):
        emitted_bytes = sum(len(emitted.to_json()) for emitted, _ in cores)
        core_bytes = sum(len(core.to_json()) for _, core in cores)
        assert core_bytes * 4 < emitted_bytes

    def test_trimming_is_idempotent(self, cores):
        for _, core in cores:
            assert trim_certificate(core).to_json() == core.to_json()


class TestStoredForm:
    def test_underivable_certificate_is_stored_as_emitted(self, tmp_path):
        spec = get("svt")
        checker = _discharged(spec)
        fingerprint = checker.store_fingerprint
        halves = (
            (oid, dataclasses.replace(cert, events=cert.events[: len(cert.events) // 2]))
            for oid, cert in checker.certificates.items()
        )
        oid, truncated = next(pair for pair in halves if _rejected(pair[1]))
        assert trim_certificate(truncated) is None
        checker.certificates[oid] = truncated
        assert checker.witness_text(oid) == dataclasses.replace(
            truncated, oid=oid, fingerprint=fingerprint
        ).to_json()

        # Stored anyway, it is rejected on the next warm hit and re-solved.
        path = os.fspath(tmp_path / "store.sqlite")
        store = ObligationStore(path)
        store.record_many(fingerprint, [
            (other, "assert", "fn", True, "unsat", None, checker.witness_text(other))
            for other in checker.certificates
        ])
        store.close()
        warm = verify_target(
            spec.target(),
            dataclasses.replace(spec_config(spec), witness=True, store=path),
        )
        assert warm.verified
        assert warm.store["witness_rejects"] == 1
        assert warm.store["validated_hits"] == warm.obligations_total - 1
        assert warm.solve_calls >= 1

    def test_untrimmed_rows_still_serve_validated_hits(self, tmp_path):
        spec = get("smart_sum")
        emitted = _discharged(spec)
        fingerprint = emitted.store_fingerprint
        rows = [
            (oid, "assert", "fn", True, "unsat", None,
             dataclasses.replace(cert, oid=oid, fingerprint=fingerprint).to_json())
            for oid, cert in emitted.certificates.items()
        ]
        assert all(row[-1] != emitted.witness_text(row[0]) for row in rows)
        path = tmp_path / "store.sqlite"
        store = ObligationStore(os.fspath(path))
        store.record_many(fingerprint, rows)
        store.close()
        before = _rows(path)

        warm = _discharged(spec, store=os.fspath(path))
        counters = warm.store.counters
        assert warm.solver_stats().solve_calls == 0
        assert counters.validated_hits == len(rows)
        assert counters.witness_rejects == 0
        assert counters.writes == 0
        # No migration: the rows keep their untrimmed text, and the hits
        # are described as stored.
        assert _rows(path) == before
        assert [(oid, warm.witness_text(oid)) for oid, _ in before] == before

    def test_cold_runs_write_the_stored_form_deterministically(self, tmp_path):
        spec = get("smart_sum")
        written = []
        for run in ("first", "second"):
            path = tmp_path / f"{run}.sqlite"
            checker = _discharged(spec, store=os.fspath(path))
            rows = _rows(path, "oid, fp, valid, status, model, witness, tag, region")
            assert {row[0]: row[5] for row in rows} == {
                oid: checker.witness_text(oid) for oid in checker.certificates
            }
            written.append(rows)
        assert written[0] == written[1]
