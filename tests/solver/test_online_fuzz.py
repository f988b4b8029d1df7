"""Seeded differential fuzzing of the online DPLL(T) solver.

Random QF_LRA formulas — and/or/not structure over strict and
non-strict bounds, equalities and disequalities, and multi-variable
atoms drawn from a few linear forms so that they share slack rows — are
asserted through one incremental :class:`SMTSolver` under random
push/pop.  Every query is checked three ways:

* an UNSAT answer carries a certificate the trusted kernel accepts;
* a SAT model satisfies every live assertion under exact evaluation;
* the answer equals a fresh :func:`check_formulas` of the live assertions.

Targeted cases pin theory conflicts at an assumption level and at level
0, and a ``max_rounds`` budget that answers ``"unknown"`` and leaves the
solver usable.
"""

import random
from fractions import Fraction

from repro.solver import formula as F
from repro.solver.linear import LinExpr
from repro.solver.smt import SMTSolver, check_formulas
from repro.witness import validate
from repro.witness.emit import certificate_from_solver

NAMES = ("x", "y", "z", "w")
V = {name: LinExpr.variable(name) for name in NAMES}
BOOLS = ("a", "b")
#: Multi-variable bodies; scaled copies of one body share its slack row.
BODIES = (V["x"] - V["y"], V["x"] + V["y"] - V["z"], V["y"] * 2 - V["w"], V["z"] - V["x"])
OPS = ("<=", "<", ">=", ">", "==", "!=")


def random_atom(rng):
    if rng.random() < 0.15:
        return F.BVar(rng.choice(BOOLS))
    if rng.random() < 0.5:
        body = V[rng.choice(NAMES)]
    else:
        body = rng.choice(BODIES) * rng.choice((1, -1, 2, Fraction(-1, 2)))
    return F.mk_atom(rng.choice(OPS), body, LinExpr.constant(rng.randint(-3, 3)))


def random_formula(rng, depth):
    if depth == 0 or rng.random() < 0.35:
        return random_atom(rng)
    kind = rng.random()
    if kind < 0.2:
        return F.mk_not(random_formula(rng, depth - 1))
    args = [random_formula(rng, depth - 1) for _ in range(rng.randint(2, 3))]
    return F.mk_and(*args) if kind < 0.5 else F.mk_or(*args)


def check_query(solver, live):
    result = solver.check()
    assert result.status == check_formulas(*live).status
    if result.is_unsat:
        validate(certificate_from_solver(solver))
    else:
        arith = {name: result.arith_model.get(name, Fraction(0)) for name in NAMES}
        booleans = {name: result.bool_model.get(name, False) for name in BOOLS}
        for node in live:
            assert F.evaluate(node, arith, booleans), f"{node} violated by {arith}"
    return result


def fuzz_scripts():
    """The seeded corpus: 150 scripts of ``("push",)``, ``("pop",)``,
    ``("add", formula)`` and ``("check",)`` operations, each run on one
    fresh solver, at most four scopes deep."""
    rng = random.Random(20261017)
    for _ in range(150):
        ops = []
        depth = 1
        for _ in range(12):
            roll = rng.random()
            if roll < 0.2 and depth < 4:
                ops.append(("push",))
                depth += 1
            elif roll < 0.35 and depth > 1:
                ops.append(("pop",))
                depth -= 1
            else:
                ops.append(("add", random_formula(rng, 2)))
            if rng.random() < 0.6:
                ops.append(("check",))
        yield ops


def test_random_queries_agree():
    answers = {"sat": 0, "unsat": 0}
    for ops in fuzz_scripts():
        solver = SMTSolver()
        solver.enable_proof()
        scopes = [[]]
        for op in ops:
            if op[0] == "push":
                solver.push()
                scopes.append([])
            elif op[0] == "pop":
                solver.pop()
                scopes.pop()
            elif op[0] == "add":
                solver.add(op[1])
                scopes[-1].append(op[1])
            else:
                live = [node for scope in scopes for node in scope]
                answers[check_query(solver, live).status] += 1
    # The corpus reaches both answers often.
    assert answers["sat"] > 500 and answers["unsat"] > 200


def test_theory_conflict_at_assumption_level():
    solver = SMTSolver()
    solver.enable_proof()
    base = F.mk_atom("<=", V["x"], V["y"])
    solver.add(base)
    solver.push()
    scoped = F.mk_atom("<", V["y"], V["x"])
    solver.add(scoped)
    before = solver.profile.decisions
    # Both literals are implied before any decision: the lemma conflicts
    # at the scope's assumption level.
    assert check_query(solver, [base, scoped]).is_unsat
    assert solver.profile.decisions == before
    assert solver.profile.rounds == 2
    solver.pop()
    assert check_query(solver, [base]).is_sat


def test_theory_conflict_at_level_zero():
    solver = SMTSolver()
    solver.enable_proof()
    facts = [
        F.mk_atom("<=", V["x"] + V["y"], LinExpr.constant(1)),
        F.mk_atom(">=", V["x"], LinExpr.constant(1)),
        F.mk_atom(">", V["y"], LinExpr.constant(0)),
    ]
    for node in facts:
        solver.add(node)
    assert check_query(solver, facts).is_unsat
    assert solver.profile.decisions == 0
    # Refuted by permanent clauses: every later scope is unsat too.
    solver.push()
    extra = F.mk_atom("<=", V["z"], LinExpr.constant(5))
    solver.add(extra)
    assert check_query(solver, facts + [extra]).is_unsat
    solver.pop()


def diamond():
    """Chained disjunctive increments that need several theory lemmas."""
    parts = []
    for i in range(4):
        xi, xj = LinExpr.variable(f"v{i}"), LinExpr.variable(f"v{i + 1}")
        b = F.BVar(f"b{i}")
        parts.append(F.mk_or(
            F.mk_and(b, F.mk_atom("<=", xi + 1, xj)),
            F.mk_and(F.mk_not(b), F.mk_atom("<=", xi + 2, xj)),
        ))
    parts.append(F.mk_atom("<=", LinExpr.variable("v4"), LinExpr.variable("v0") + 3))
    return parts


def test_round_budget_answers_unknown_and_keeps_the_solver_usable():
    solver = SMTSolver(max_rounds=2)
    solver.enable_proof()
    for node in diamond():
        solver.add(node)
    statuses = []
    for _ in range(200):
        rounds = solver.profile.rounds
        result = solver.check()
        statuses.append(result.status)
        if result.status != "unknown":
            break
        assert solver.profile.rounds - rounds == 2
    # Each exhausted check keeps the lemma it learned, so repeated
    # checks finish the refutation.
    assert statuses[0] == "unknown"
    assert statuses[-1] == "unsat"
    assert check_formulas(*diamond()).is_unsat
    validate(certificate_from_solver(solver))
    solver.push()
    assert solver.check().is_unsat
    solver.pop()
