"""The trusted kernel against its earlier, simpler form.

The kernel replays ``learn`` steps by unit propagation over clauses
indexed by literal, and sums Farkas combinations from an ``int`` zero,
so integral values (most of a decoded certificate's) stay ints.  Its
predecessors rescanned every clause on every propagation pass and did
every Farkas sum in ``Fraction``; both are kept here, as test-only
references, together with a reference ``validate`` built on them.
Kernel and reference must give the same verdict — the same step counts
on acceptance, the same ``WitnessError`` step and message on rejection —
on every registry certificate in both regimes, as emitted and as the
store keeps it (its proof core), decoded from its canonical JSON, and on
seeded deletion and perturbation mutants of them.
"""

import dataclasses
import random
from fractions import Fraction

import pytest

from repro.witness import Certificate, WitnessError, trim_certificate, validate

_ZERO = Fraction(0)


def reference_rup_check(clauses, clause, step):
    """Reverse unit propagation by rescanning every clause per pass."""
    assigned = set()
    for lit in clause:
        if lit in assigned:
            return
        assigned.add(-lit)
    while True:
        progressed = False
        for body in clauses:
            unit = 0
            open_count = 0
            satisfied = False
            for lit in body:
                if lit in assigned:
                    satisfied = True
                    break
                if -lit in assigned:
                    continue
                unit = lit
                open_count += 1
                if open_count > 1:
                    break
            if satisfied or open_count > 1:
                continue
            if open_count == 0:
                return
            assigned.add(unit)
            progressed = True
        if not progressed:
            raise WitnessError(step, "unit propagation does not refute the clause")


def reference_check_farkas(atoms, clause, entries, step):
    """The Farkas check with every value coerced to ``Fraction``."""
    if not entries:
        raise WitnessError(step, "empty Farkas combination")
    negated = {-lit for lit in clause}
    combo = {}
    const = _ZERO
    any_strict = False
    for lit, mu in entries:
        mu = Fraction(mu)
        if lit not in negated:
            raise WitnessError(step, f"literal {lit} is not a premise of the lemma")
        atom = atoms.get(abs(lit))
        if atom is None:
            raise WitnessError(step, f"literal {lit} has no atom table entry")
        op, coeffs, atom_const = atom
        if op == "=":
            if lit < 0:
                raise WitnessError(step, "negated equality literal in a Farkas witness")
            eps, strict = 1, False
        elif op == "<=":
            eps, strict = (1, False) if lit > 0 else (-1, True)
            if mu < 0:
                raise WitnessError(step, f"negative coefficient {mu} on literal {lit}")
        elif op == "<":
            eps, strict = (1, True) if lit > 0 else (-1, False)
            if mu < 0:
                raise WitnessError(step, f"negative coefficient {mu} on literal {lit}")
        else:
            raise WitnessError(step, f"unknown atom operator {op!r}")
        if mu == 0:
            continue
        scale = mu * eps
        for name, c in coeffs:
            value = combo.get(name, _ZERO) + scale * Fraction(c)
            if value == 0:
                combo.pop(name, None)
            else:
                combo[name] = value
        const += scale * Fraction(atom_const)
        if strict:
            any_strict = True
    if combo:
        name = sorted(combo)[0]
        raise WitnessError(step, f"nonzero variable part ({name}: {combo[name]})")
    if not (const > 0 or (const == 0 and any_strict)):
        raise WitnessError(step, f"combination is not contradictory (constant {const})")


def reference_validate(cert):
    clauses = []
    counts = {"inputs": 0, "lemmas": 0, "rup_steps": 0}
    for index, event in enumerate(cert.events):
        kind = event[0]
        if kind == "input":
            counts["inputs"] += 1
        elif kind == "lemma":
            if len(event) != 3:
                raise WitnessError(f"lemma[{index}]", "malformed lemma event")
            reference_check_farkas(cert.atoms, event[1], event[2], f"lemma[{index}]")
            counts["lemmas"] += 1
        elif kind == "learn":
            reference_rup_check(clauses, event[1], f"rup[{index}]")
            counts["rup_steps"] += 1
        else:
            raise WitnessError(f"events[{index}]", f"unknown event kind {kind!r}")
        clauses.append(tuple(event[1]))
    reference_rup_check(clauses, tuple(-lit for lit in cert.assumptions), "goal")
    counts["rup_steps"] += 1
    return counts


def verdict(check, cert):
    try:
        return ("accepted", check(cert))
    except WitnessError as err:
        return ("rejected", err.step, err.detail)


@pytest.fixture(scope="module")
def in_memory(registry_certificates):
    """The registry's certificates as emitted, then the proof core of
    each, as the store keeps it."""
    return registry_certificates + [
        trim_certificate(cert) for cert in registry_certificates
    ]


@pytest.fixture(scope="module")
def certificates(in_memory):
    """The registry's certificates decoded from their canonical JSON, as
    a warm store hit hands them to the kernel."""
    return [Certificate.from_json(cert.to_json()) for cert in in_memory]


def _delete_event(rng, cert):
    events = list(cert.events)
    del events[rng.randrange(len(events))]
    return dataclasses.replace(cert, events=tuple(events))


def _delete_derived(rng, cert):
    """Drop one learned clause or lemma: later steps may lose their support."""
    events = list(cert.events)
    derived = [i for i, event in enumerate(events) if event[0] != "input"]
    if not derived:
        return None
    del events[rng.choice(derived)]
    return dataclasses.replace(cert, events=tuple(events))


def _perturb_clause(rng, cert):
    """Flip or drop one literal of a learned clause or lemma."""
    events = list(cert.events)
    derived = [i for i, event in enumerate(events) if event[0] != "input" and event[1]]
    if not derived:
        return None
    index = rng.choice(derived)
    event = events[index]
    clause = list(event[1])
    k = rng.randrange(len(clause))
    if rng.random() < 0.5:
        clause[k] = -clause[k]
    else:
        del clause[k]
    events[index] = (event[0], tuple(clause)) + tuple(event[2:])
    return dataclasses.replace(cert, events=tuple(events))


def _perturb_farkas(rng, cert):
    """Add an integral or fractional amount, of either sign, to one Farkas
    coefficient."""
    events = list(cert.events)
    lemmas = [i for i, event in enumerate(events) if event[0] == "lemma" and event[2]]
    if not lemmas:
        return None
    index = rng.choice(lemmas)
    kind, clause, entries = events[index]
    entries = list(entries)
    k = rng.randrange(len(entries))
    delta = rng.choice(
        (rng.randint(1, 3), -rng.randint(1, 3), Fraction(rng.randint(1, 5), 3))
    )
    entries[k] = (entries[k][0], entries[k][1] + delta)
    events[index] = (kind, clause, tuple(entries))
    return dataclasses.replace(cert, events=tuple(events))


def _drop_assumption(rng, cert):
    if not cert.assumptions:
        return None
    assumptions = list(cert.assumptions)
    del assumptions[rng.randrange(len(assumptions))]
    return dataclasses.replace(cert, assumptions=tuple(assumptions))


MUTATORS = (_delete_event, _delete_derived, _perturb_clause, _perturb_farkas, _drop_assumption)


def test_registry_certificates_round_trip(in_memory, certificates):
    for cert, decoded in zip(in_memory, certificates):
        text = cert.to_json()
        assert decoded.to_json() == text
        assert decoded == cert


def test_registry_certificates_agree(certificates):
    assert len(certificates) > 100
    for cert in certificates:
        indexed = verdict(validate, cert)
        assert indexed[0] == "accepted"
        assert indexed == verdict(reference_validate, cert)


def test_mutants_agree(certificates):
    rng = random.Random(20261017)
    rejected = compared = 0
    for cert in certificates:
        for mutate in rng.sample(MUTATORS, 2):
            mutant = mutate(rng, cert)
            if mutant is None:
                continue
            indexed = verdict(validate, mutant)
            assert indexed == verdict(reference_validate, mutant), mutate.__name__
            compared += 1
            rejected += indexed[0] == "rejected"
    # The mutants exercise both outcomes, rejections at several steps.
    assert compared > 150
    assert 0 < rejected < compared
