"""The int-first simplex against its all-``Fraction`` predecessor.

The simplex keeps tableau coefficients, assignment components, bound
values and Farkas coefficients *int-first*: an ``int`` when integral, a
``Fraction`` only otherwise.  Its predecessor computed all of them in
``Fraction``.  That arithmetic — row definition, the pivot, the update
of a pivot, the Farkas coefficients and δ concretization — is kept here
as a test-only reference over an all-``Fraction`` delta-rational, and
the SMT layer's Farkas division is swapped for a ``Fraction`` one.  On
the online fuzz corpus (``test_online_fuzz.py``) and on every registry
obligation in both regimes, reference and int-first simplex must give
the same status, pivots and other solver counters, theory conflict
sets, Farkas values, models and certificate JSON.  After every check of
the fuzz corpus, no value the int-first simplex holds may be a float or
an integral ``Fraction``.
"""

import dataclasses
from contextlib import contextmanager
from fractions import Fraction

import pytest

from repro.algorithms import all_specs
from repro.pipeline import spec_config
from repro.solver import smt
from repro.solver.simplex import Bound, Infeasible, Simplex
from repro.verify.verifier import prepare_generator, target_cfg
from repro.witness.emit import certificate_from_solver

from test_online_fuzz import fuzz_scripts


class ReferenceDeltaRat:
    """``real + delta·δ`` with both parts always ``Fraction``."""

    __slots__ = ("real", "delta")

    def __init__(self, real, delta=0):
        self.real = Fraction(real)
        self.delta = Fraction(delta)

    def __add__(self, other):
        return ReferenceDeltaRat(self.real + other.real, self.delta + other.delta)

    def __sub__(self, other):
        return ReferenceDeltaRat(self.real - other.real, self.delta - other.delta)

    def scale(self, factor):
        factor = Fraction(factor)
        return ReferenceDeltaRat(self.real * factor, self.delta * factor)

    def _key(self):
        return (self.real, self.delta)

    def __lt__(self, other):
        return self._key() < other._key()

    def __le__(self, other):
        return self._key() <= other._key()

    def __gt__(self, other):
        return self._key() > other._key()

    def __ge__(self, other):
        return self._key() >= other._key()

    def at(self, delta_value):
        return self.real + self.delta * delta_value


_ONE = Fraction(1)


def _fraction_farkas(err):
    return Infeasible(err.conflict, tuple((bound, Fraction(c)) for bound, c in err.farkas))


class ReferenceSimplex(Simplex):
    """The simplex with its earlier, all-``Fraction`` arithmetic."""

    def add_variable(self, name):
        vid = self._ids.get(name)
        if vid is None:
            vid = super().add_variable(name)
            self._assignment[vid] = ReferenceDeltaRat(0)
        return vid

    def define(self, name, expr):
        if name in self._ids:
            raise ValueError(f"variable {name} already defined")
        row = {}

        def accumulate(vid, coeff):
            if coeff == 0:
                return
            if self._is_basic[vid]:
                for inner, inner_coeff in self._rows[vid].items():
                    accumulate(inner, coeff * inner_coeff)
            else:
                value = row.get(vid)
                if value is None:
                    row[vid] = coeff
                else:
                    value = value + coeff
                    if value == 0:
                        del row[vid]
                    else:
                        row[vid] = value

        for var, coeff in expr.iter_terms():
            accumulate(self.add_variable(var), coeff)
        if expr.const != 0:
            accumulate(self._constant_one(), expr.const)
        vid = self.add_variable(name)
        self._is_basic[vid] = True
        self._rows[vid] = row
        for col in row:
            self._cols[col].add(vid)
        self._assignment[vid] = self._row_value(vid)

    def _constant_one(self):
        if self._one_id is None:
            vid = self.add_variable("%one")
            self._one_id = vid
            one = ReferenceDeltaRat(1)
            self._lower[vid] = Bound("%one", False, one, "%one")
            self._upper[vid] = Bound("%one", True, one, "%one")
            self._update(vid, one)
        return self._one_id

    def _row_value(self, basic):
        total = ReferenceDeltaRat(0)
        for var, coeff in self._rows[basic].items():
            total = total + self._assignment[var].scale(coeff)
        return total

    def assert_upper(self, var, value, tag):
        try:
            return super().assert_upper(var, ReferenceDeltaRat(value.real, value.delta), tag)
        except Infeasible as err:
            raise _fraction_farkas(err)

    def assert_lower(self, var, value, tag):
        try:
            return super().assert_lower(var, ReferenceDeltaRat(value.real, value.delta), tag)
        except Infeasible as err:
            raise _fraction_farkas(err)

    def _pivot(self, basic, nonbasic):
        cols = self._cols
        rows = self._rows
        row = rows.pop(basic)
        for col in row:
            cols[col].discard(basic)
        coeff = row.pop(nonbasic)
        inverse = _ONE / coeff
        new_row = {basic: inverse}
        for var, c in row.items():
            new_row[var] = -c * inverse
        self._is_basic[basic] = False
        self._is_basic[nonbasic] = True
        rows[nonbasic] = new_row
        affected = cols[nonbasic]
        cols[nonbasic] = set()
        for other in affected:
            other_row = rows[other]
            factor = other_row.pop(nonbasic)
            for var, c in new_row.items():
                old = other_row.get(var)
                if old is None:
                    other_row[var] = factor * c
                    cols[var].add(other)
                else:
                    value = old + factor * c
                    if value == 0:
                        del other_row[var]
                        cols[var].discard(other)
                    else:
                        other_row[var] = value
        for col in new_row:
            cols[col].add(nonbasic)

    def _pivot_and_update(self, basic, nonbasic, value):
        self.profile.pivots += 1
        assignment = self._assignment
        rows = self._rows
        coeff = rows[basic][nonbasic]
        theta = (value - assignment[basic]).scale(_ONE / coeff)
        assignment[basic] = value
        assignment[nonbasic] = assignment[nonbasic] + theta
        column = self._cols[nonbasic]
        for other in column:
            if other == basic:
                continue
            assignment[other] = assignment[other] + theta.scale(rows[other][nonbasic])
        touched = self._touched
        touched.update(column)
        touched.discard(basic)
        touched.add(nonbasic)
        self._pivot(basic, nonbasic)

    def _conflict_from_row(self, basic, below):
        return _fraction_farkas(super()._conflict_from_row(basic, below))

    def concrete_model(self):
        delta = Fraction(1)
        for vid in range(len(self._names)):
            value = self._assignment[vid]
            lower = self._lower[vid]
            if lower is not None:
                gap_real = value.real - lower.value.real
                gap_delta = lower.value.delta - value.delta
                if gap_delta > 0 and gap_real > 0:
                    delta = min(delta, gap_real / gap_delta / 2)
            upper = self._upper[vid]
            if upper is not None:
                gap_real = upper.value.real - value.real
                gap_delta = value.delta - upper.value.delta
                if gap_delta > 0 and gap_real > 0:
                    delta = min(delta, gap_real / gap_delta / 2)
        return {name: self._assignment[vid].at(delta) for vid, name in enumerate(self._names)}


def fraction_divide(numerator, denominator):
    """The SMT layer's Farkas division as it was: in ``Fraction``."""
    return Fraction(numerator) / Fraction(denominator)


def recording(base, log):
    """``base`` with every theory conflict appended to ``log`` as
    ``(conflict set, ((var, is_upper, real, delta, tag, coefficient), ...))``."""

    def record(err):
        log.append((
            frozenset(err.conflict),
            tuple(
                (b.var, b.is_upper, b.value.real, b.value.delta, b.tag, c)
                for b, c in err.farkas
            ),
        ))

    class Recording(base):
        def assert_upper(self, var, value, tag):
            try:
                return super().assert_upper(var, value, tag)
            except Infeasible as err:
                record(err)
                raise

        def assert_lower(self, var, value, tag):
            try:
                return super().assert_lower(var, value, tag)
            except Infeasible as err:
                record(err)
                raise

        def check(self):
            try:
                super().check()
            except Infeasible as err:
                record(err)
                raise

    return Recording


@contextmanager
def solving_with(simplex, log, reference=False):
    """Run ``SMTSolver`` on ``simplex``, recording its conflicts into
    ``log``; ``reference`` also restores the ``Fraction`` Farkas division."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(smt, "Simplex", recording(simplex, log))
        if reference:
            patch.setattr(smt, "divide", fraction_divide)
        yield


def is_int_first(value):
    return type(value) is int or (type(value) is Fraction and value.denominator > 1)


def assert_int_first(solver, conflicts):
    """No float and no integral ``Fraction`` anywhere in the simplex state,
    its planned bounds, its conflicts or the proof log's Farkas values."""
    simplex = solver._simplex
    values = [c for row in simplex._rows.values() for c in row.values()]
    for value in simplex._assignment:
        values += [value.real, value.delta]
    for bound in simplex._lower + simplex._upper:
        if bound is not None:
            values += [bound.value.real, bound.value.delta]
    for plan in solver._atom_plan.values():
        for value in plan[1:]:
            if value is not None:
                values += [value.real, value.delta]
    for _, farkas in conflicts:
        for _, _, real, delta, _, coefficient in farkas:
            values += [real, delta, coefficient]
    for event in solver._proof:
        if event[0] == "lemma":
            values += [mu for _, mu in event[2]]
    bad = [value for value in values if not is_int_first(value)]
    assert not bad, bad[:5]


# ---------------------------------------------------------------------------
# The online fuzz corpus
# ---------------------------------------------------------------------------


def run_script(ops, conflicts, after_check=None):
    """Replay one script; one observation per check."""
    solver = smt.SMTSolver()
    solver.enable_proof()
    seen = []
    for op in ops:
        if op[0] == "push":
            solver.push()
        elif op[0] == "pop":
            solver.pop()
        elif op[0] == "add":
            solver.add(op[1])
        else:
            result = solver.check()
            certificate = certificate_from_solver(solver) if result.is_unsat else None
            seen.append((
                result.status,
                result.arith_model,
                result.bool_model,
                solver.profile.to_dict(),
                list(conflicts),
                certificate.to_json() if certificate is not None else None,
            ))
            for value in result.arith_model.values():
                assert type(value) is Fraction
            if after_check is not None:
                after_check(solver)
    return seen


def test_fuzz_corpus_matches_the_fraction_reference():
    statuses = {"sat": 0, "unsat": 0}
    for ops in fuzz_scripts():
        conflicts, reference_conflicts = [], []
        with solving_with(Simplex, conflicts):
            new = run_script(ops, conflicts, lambda solver: assert_int_first(solver, conflicts))
        with solving_with(ReferenceSimplex, reference_conflicts, reference=True):
            old = run_script(ops, reference_conflicts)
        assert new == old
        for observation in new:
            statuses[observation[0]] += 1
    # The corpus reaches both answers, with conflicts to compare.
    assert statuses["sat"] > 500 and statuses["unsat"] > 200


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------


def registry_runs():
    """Every registry program in the unroll regime, the correct ones in
    the invariant regime too, with witnesses on.  The serial backend
    solves in this process, in plan order, so the conflict logs are
    complete and ordered."""
    for spec in all_specs():
        config = dataclasses.replace(spec_config(spec), witness=True)
        yield spec, config
        if spec.expect_verified:
            yield spec, dataclasses.replace(config, mode="invariant", bindings={})


def discharge(target, config):
    generator, checker = prepare_generator(target, config)
    failures = checker.discharge_stream(generator.stream(target_cfg(target, config)))
    return (
        [(f.obligation.oid, f.arith_model, f.bool_model) for f in failures],
        {oid: cert.to_json() for oid, cert in checker.certificates.items()},
        checker.profile_totals().to_dict(),
    )


def test_registry_matches_the_fraction_reference():
    compared = certificates = pivots = 0
    for spec, config in registry_runs():
        # Type-checked once, outside the comparison: the checker's own
        # queries would land in the first run's log only.
        target = spec.target()
        conflicts, reference_conflicts = [], []
        with solving_with(Simplex, conflicts):
            new = discharge(target, config)
        with solving_with(ReferenceSimplex, reference_conflicts, reference=True):
            old = discharge(target, config)
        assert new == old, (spec.name, config.mode)
        assert conflicts == reference_conflicts, (spec.name, config.mode)
        for _, model, _ in new[0]:
            assert all(type(value) is Fraction for value in (model or {}).values())
        compared += 1
        certificates += len(new[1])
        pivots += new[2]["pivots"]
    assert compared > 15 and certificates > 50 and pivots > 100
