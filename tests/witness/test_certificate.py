"""Certificate serialization: canonical JSON, decode errors, and the
obligation-store round trip."""

import dataclasses
import json
import os
from fractions import Fraction

import pytest

from repro.algorithms import get
from repro.lang.parser import parse_expr
from repro.pipeline import Pipeline, spec_config
from repro.solver.context import CacheEntry
from repro.solver.interface import ValidityChecker
from repro.verify.store import ObligationStore, stored_certificates
from repro.verify.verifier import prepare_generator, target_cfg
from repro.witness import SCHEMA_VERSION, Certificate, WitnessError, validate


@pytest.fixture(scope="module")
def svt_certificates():
    """oid → Certificate for a witnessed SVT discharge (one solve pass)."""
    spec = get("svt")
    config = dataclasses.replace(spec_config(spec), witness=True)
    generator, checker = prepare_generator(spec.target(), config)
    failures = checker.discharge_stream(
        generator.stream(target_cfg(spec.target(), config))
    )
    assert not failures
    assert checker.certificates
    return checker


def _stored(checker):
    """oid → the certificate as the store keeps it."""
    return stored_certificates(checker.store_fingerprint, checker.certificates)


def _rationals(certificate):
    """Every rational of a certificate: coefficients, constants, Farkas
    multipliers."""
    for _, coeffs, const in certificate.atoms.values():
        for _, value in coeffs:
            yield value
        yield const
    for event in certificate.events:
        if event[0] == "lemma":
            for _, value in event[2]:
                yield value


def _with_rational(checker, position, spelling):
    """A real certificate's text with one rational replaced by the JSON
    value ``spelling``."""
    oid = next(
        oid
        for oid, certificate in checker.certificates.items()
        if any(event[0] == "lemma" for event in certificate.events)
    )
    payload = json.loads(_stored(checker)[oid].to_json())
    value = json.loads(spelling)
    if position == "farkas":
        lemma = next(event for event in payload["events"] if event[0] == "lemma")
        lemma[2][0][1] = value
    else:
        atom = next(a for a in payload["atoms"].values() if a["coeffs"])
        if position == "const":
            atom["const"] = value
        else:
            atom["coeffs"][min(atom["coeffs"])] = value
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


class TestCanonicalJson:
    def test_round_trip_is_identity(self, svt_certificates):
        for certificate in svt_certificates.certificates.values():
            text = certificate.to_json()
            again = Certificate.from_json(text)
            assert again.to_json() == text
            assert again == certificate

    def test_serialization_is_canonical(self, svt_certificates):
        # Sorted keys, no whitespace, exact rationals as "p/q" strings —
        # byte-stable across processes so fingerprints and tests can
        # compare texts directly.
        certificate = next(iter(svt_certificates.certificates.values()))
        text = certificate.to_json()
        data = json.loads(text)
        assert text == json.dumps(data, separators=(",", ":"), sort_keys=True)
        assert data["schema"] == SCHEMA_VERSION

    def test_oid_and_fingerprint_baked_without_mutation(self, svt_certificates):
        checker = svt_certificates
        oid = next(iter(checker.certificates))
        original = checker.certificates[oid]
        text = _stored(checker)[oid].to_json()
        bound = Certificate.from_json(text)
        assert bound.oid == oid
        assert bound.fingerprint == checker.store_fingerprint
        # The in-memory object (possibly shared across chunk members)
        # was not touched.
        assert original.oid is None or original.oid == oid

    def test_premise_order_does_not_change_the_certificate(self):
        # The type checker keys its answers (and check-stage store rows)
        # by the normalized query, so one key must get one certificate
        # whatever order the caller listed its premises in.
        premises = [parse_expr("x >= 1"), parse_expr("y >= 2"), parse_expr("z <= x")]
        goal = parse_expr("x + y >= 3")
        texts = set()
        for order in (premises, premises[::-1]):
            checker = ValidityChecker(witness=True)
            assert checker.is_valid(goal, order)
            texts.add(checker.last_certificate.to_json())
        assert len(texts) == 1

    def test_integral_values_decode_to_int(self, svt_certificates):
        kinds = set()
        for certificate in svt_certificates.certificates.values():
            decoded = Certificate.from_json(certificate.to_json())
            for value in _rationals(decoded):
                kinds.add(type(value))
                assert type(value) is int or (
                    type(value) is Fraction and value.denominator > 1
                ), value
        assert kinds == {int, Fraction}

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "not json",
            "[]",
            '{"schema": 999}',
            '{"schema": 1}',
            # Non-canonical rationals (and a JSON number), each put in
            # place of one rational of a real certificate.
            *(
                (position, spelling)
                for position in ("coeff", "const", "farkas")
                for spelling in (
                    '"6/4"', '"3/1"', '"+3"', '"03"', '" 3"', '"-0"', '"1.5"',
                    '"1/0"', '"1/-2"', "3",
                )
            ),
        ],
        ids=lambda text: "=".join(text) if isinstance(text, tuple) else None,
    )
    def test_malformed_text_is_a_decode_error(self, text, svt_certificates):
        if isinstance(text, tuple):
            text = _with_rational(svt_certificates, *text)
        with pytest.raises(WitnessError) as err:
            Certificate.from_json(text)
        assert err.value.step == "decode"


class TestWitnessShow:
    FLAGS = ["--bind", "size=3", "--bind", "N=1", "--assume", "eps > 0",
             "--assume", "N >= 1"]

    def test_summaries_describe_the_printed_certificates(self, capsys):
        """``show`` summarizes exactly what ``show --oid`` prints (and
        the store keeps): the proof core, which ``check`` accepts."""
        from repro.cli import main as cli_main

        path = os.path.join(
            os.path.dirname(__file__), "..", "..", "examples", "sparse_vector.sdp"
        )
        assert cli_main(["witness", "show", path, *self.FLAGS]) == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert lines
        for line in lines:
            oid, _, status = line.split(maxsplit=2)
            assert cli_main(["witness", "show", path, *self.FLAGS, "--oid", oid]) == 0
            certificate = Certificate.from_json(capsys.readouterr().out)
            validate(certificate)
            summary = certificate.summary()
            assert status == (
                f"{summary['inputs']} inputs, {summary['lemmas']} lemmas, "
                f"{summary['learned']} learned, {summary['atoms']} atoms"
            )


class TestStoreRoundTrip:
    def test_witness_survives_persistence(self, tmp_path, svt_certificates):
        checker = svt_certificates
        store = ObligationStore(os.fspath(tmp_path / "store.sqlite"))
        fingerprint = checker.store_fingerprint
        rows = [
            (oid, "assert", "fn", CacheEntry(True, "unsat", certificate=certificate))
            for oid, certificate in checker.certificates.items()
        ]
        assert store.record_answers(fingerprint, rows) == len(rows)
        assert store.witness_count() == len(rows)
        for oid, *_ in rows:
            verdict = store.lookup(oid, fingerprint)
            assert verdict is not None and verdict.valid
            assert verdict.witness is not None
            certificate = Certificate.from_json(verdict.witness)
            assert certificate.oid == oid
            validate(certificate)

    def test_full_run_persists_one_witness_per_valid_oid(self, tmp_path):
        spec = get("svt")
        store_path = os.fspath(tmp_path / "store.sqlite")
        config = dataclasses.replace(
            spec_config(spec), store=store_path, witness=True
        )
        run = Pipeline().run(spec.source, config=config)
        assert run.outcome.verified
        # Plus one row per valid type-check answer the check stage relied on.
        witnesses = run.outcome.obligations_total + len(run.checked.certificates)
        store = ObligationStore(store_path)
        assert store.witness_count() == witnesses
        assert store.stats()["witnesses"] == witnesses
