"""Instantiation lemmas for monomial (nonlinear) atoms.

The solver treats composite monomials like ``count·eps/N`` as opaque
variables, which loses the multiplication facts the general-ε proofs
need (the paper's CPAChecker hits the same wall; Section 6.1 resorts to
rewrites, fixed ε and manual invariants).  This module recovers the
needed fragment with finitely many *lemma instances* added as premises:

* **sign lemmas** — a monomial whose factors all have known sign under
  the query's assumptions gets the corresponding sign fact, e.g.
  ``eps > 0 ∧ N ≥ 1 ⊨ eps/N > 0``;
* **monotonicity lemmas** — for a monomial ``x·R`` and any other
  variable ``y`` in the query, the guarded instance
  ``(x ≤ y ∧ R ≥ 0) ⇒ x·R ≤ y·R`` (and the symmetric direction), where
  ``y·R`` re-normalises and may *cancel* to something linear — this is
  exactly how ``count ≤ N`` turns ``count·(eps/N) ≤ N·(eps/N) = eps``.

All lemmas are valid real-arithmetic facts, so adding them preserves
soundness unconditionally; they only improve completeness.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Set

from repro.lang import ast
from repro.solver.encode import Encoder
from repro.solver.monomials import Monomial


def _atom_expr(name: str, encoder: Encoder) -> ast.Expr:
    """Reconstruct an AST expression denoting one atom name."""
    if name in encoder.opaque:
        return encoder.opaque[name]
    if "^" in name and "[" not in name:
        base, _, version = name.rpartition("^")
        if version in ast.VERSIONS:
            return ast.Hat(base, version)
    if "[" in name and name.endswith("]"):
        base, _, idx = name[:-1].partition("[")
        index = ast.Real(int(idx))
        if "^" in base:
            stem, _, version = base.rpartition("^")
            return ast.Index(ast.Hat(stem, version), index)
        return ast.Index(ast.Var(base), index)
    return ast.Var(name)


def _monomial_expr(mono: Monomial, encoder: Encoder) -> ast.Expr:
    """An AST term that re-encodes to exactly this monomial."""
    if mono.is_unit():
        return ast.ONE
    expr: ast.Expr = None
    for factor in mono.numerator:
        part = _atom_expr(factor, encoder)
        expr = part if expr is None else ast.BinOp("*", expr, part)
    if expr is None:
        expr = ast.ONE
    for factor in mono.denominator:
        expr = ast.BinOp("/", expr, _atom_expr(factor, encoder))
    return expr


def _implies(premise: ast.Expr, conclusion: ast.Expr) -> ast.Expr:
    return ast.BinOp("||", ast.Not(premise), conclusion)


# ---------------------------------------------------------------------------
# Sign derivation
# ---------------------------------------------------------------------------


def _known_positive(name: str, assumptions: Sequence[ast.Expr]) -> bool:
    """Syntactic scan: do the assumptions force ``name > 0``?"""
    var = ast.Var(name)
    for fact in assumptions:
        if not isinstance(fact, ast.BinOp):
            continue
        left, op, right = fact.left, fact.op, fact.right
        if left == var and isinstance(right, ast.Real):
            if op == ">" and right.value >= 0:
                return True
            if op == ">=" and right.value > 0:
                return True
        if right == var and isinstance(left, ast.Real):
            if op == "<" and left.value >= 0:
                return True
            if op == "<=" and left.value < 0:
                continue
            if op == "<=" and left.value > 0:
                return True
    return False


def monomial_closure(encoder: Encoder) -> Dict[str, Monomial]:
    """Registered monomials plus every *rest* reachable by removing
    numerator factors — the pivot rests the monotonicity lemmas guard on
    (e.g. ``eps/N`` inside ``count·eps/N``) need sign facts too."""
    closure: Dict[str, Monomial] = dict(encoder.monomials)
    frontier = list(encoder.monomials.values())
    while frontier:
        mono = frontier.pop()
        for factor in set(mono.numerator):
            rest = mono.divides_out(factor)
            if rest is None or rest.is_unit():
                continue
            name = rest.name()
            if name not in closure:
                closure[name] = rest
                frontier.append(rest)
    return closure


def sign_lemmas(encoder: Encoder, assumptions: Sequence[ast.Expr]) -> List[ast.Expr]:
    """Unconditional sign facts for monomials with all-positive factors."""
    lemmas: List[ast.Expr] = []
    for name, mono in monomial_closure(encoder).items():
        if mono.is_single_atom() is not None:
            continue
        factors = list(mono.numerator) + list(mono.denominator)
        if factors and all(_known_positive(f, assumptions) for f in factors):
            lemmas.append(ast.BinOp(">", _monomial_expr(mono, encoder), ast.ZERO))
    return lemmas


# ---------------------------------------------------------------------------
# Monotonicity instantiation
# ---------------------------------------------------------------------------


def monotonicity_lemmas(
    encoder: Encoder,
    candidate_vars: Iterable[str],
) -> List[ast.Expr]:
    """Guarded product-monotonicity instances.

    For each composite monomial ``M = x·R`` (``x`` a plain variable) and
    each candidate variable ``y``::

        (x <= y && R >= 0)  ⇒  M <= y·R
        (y <= x && R >= 0)  ⇒  y·R <= M
        (x >= 0 && R >= 0)  ⇒  M >= 0

    ``y·R`` is built as an AST product, so it re-normalises inside the
    encoder — when it cancels (``N·(eps/N) = eps``) the lemma directly
    links the opaque monomial to a linear term.
    """
    candidates = sorted(set(candidate_vars))
    constant_bounds = [ast.Real(c) for c in (-2, -1, 0, 1, 2)]
    lemmas: List[ast.Expr] = []
    seen: Set[str] = set()
    for name, mono in encoder.monomials.items():
        if name in seen:
            continue
        seen.add(name)
        mono_expr = _monomial_expr(mono, encoder)
        for x in set(mono.numerator):
            rest = mono.divides_out(x)
            rest_expr = _monomial_expr(rest, encoder)
            x_expr = _atom_expr(x, encoder)
            rest_nonneg = ast.BinOp(">=", rest_expr, ast.ZERO)
            lemmas.append(
                _implies(
                    ast.BinOp("&&", ast.BinOp(">=", x_expr, ast.ZERO), rest_nonneg),
                    ast.BinOp(">=", mono_expr, ast.ZERO),
                )
            )
            # Constant pivots: (x <= c ∧ R >= 0) ⇒ x·R <= c·R.  The scaled
            # side folds into the coefficient of R, so it is linear; this
            # is what bounds |q̂°[i]|·eps/(3N) by eps/(3N) from Ψ's
            # sensitivity bound — the fact the paper obtains by rewriting
            # the program (Section 6.2.2).
            for c in constant_bounds:
                scaled = ast.BinOp("*", c, rest_expr)
                lemmas.append(
                    _implies(
                        ast.BinOp("&&", ast.BinOp("<=", x_expr, c), rest_nonneg),
                        ast.BinOp("<=", mono_expr, scaled),
                    )
                )
                lemmas.append(
                    _implies(
                        ast.BinOp("&&", ast.BinOp("<=", c, x_expr), rest_nonneg),
                        ast.BinOp("<=", scaled, mono_expr),
                    )
                )
            for y in candidates:
                if y == x or "[" in y or "<" in y:
                    continue
                y_expr = _atom_expr(y, encoder)
                swapped = mono.replace_factor(x, y)
                swapped_expr = _monomial_expr(swapped, encoder)
                lemmas.append(
                    _implies(
                        ast.BinOp("&&", ast.BinOp("<=", x_expr, y_expr), rest_nonneg),
                        ast.BinOp("<=", mono_expr, swapped_expr),
                    )
                )
                lemmas.append(
                    _implies(
                        ast.BinOp("&&", ast.BinOp("<=", y_expr, x_expr), rest_nonneg),
                        ast.BinOp("<=", swapped_expr, mono_expr),
                    )
                )
    return lemmas


def relevant_vars(exprs: Iterable[ast.Expr]) -> Set[str]:
    """Plain variable names occurring in a set of expressions."""
    names: Set[str] = set()
    for expr in exprs:
        names |= set(ast.free_vars(expr))
    return names
