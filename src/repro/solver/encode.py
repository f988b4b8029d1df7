"""Translation from ShadowDP expressions to the solver's logic IR.

The translation performs three normalizations:

* **Case analysis** for ``?:`` and ``abs``: a numeric expression becomes
  a list of ``(guard, LinExpr)`` cases whose guards are exhaustive and
  mutually exclusive; comparisons then distribute over the cases.
* **Linear-only arithmetic**: products and quotients with one constant
  side fold into the linear expression; other products become monomial
  atoms (recorded in :attr:`Encoder.monomials`), and quotients by a sum
  become *opaque* atoms named by their pretty-printed syntax (recorded
  in :attr:`Encoder.opaque`).  The verifier reads both tables to add
  instantiation lemmas, mirroring how the paper rewrites nonlinear code
  for CPAChecker (Section 6.1).
* **Indexed access naming**: ``q[3]`` (a constant index) becomes the
  scalar variable ``q[3]``; a symbolic index makes the access opaque.

Encodings are memoized.  The verifier re-encodes the same assumptions,
path and Ψ premises for query after query, so every
:class:`Encoder` consults an :class:`EncodingMemo` keyed on
``(expr, bool_vars)`` at its public :meth:`Encoder.boolean` entry and at
every numeric comparison, where the polynomial arithmetic happens.  An
entry holds the (hash-consed, so identical) formula together with the
side-table items the encoding recorded, and a hit replays those items,
so the tables keep the contents and insertion order of an unmemoized
run.  A :class:`~repro.solver.context.QueryCache` owns one memo
(``QueryCache.encodings``) shared by every encoder built for it; an
encoder built without one gets a private memo.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from fractions import Fraction
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.lang import ast
from repro.lang.pretty import pretty_expr
from repro.solver import formula as F
from repro.solver.linear import LinExpr
from repro.solver.monomials import Monomial, Polynomial


class EncodeError(ValueError):
    """Raised for expressions outside the encodable fragment."""


#: One arm of a numeric case split.
Case = Tuple[F.Formula, LinExpr]

#: A memoized encoding: the formula, then the ``opaque`` and
#: ``monomials`` items the encoding recorded, in insertion order.
Encoding = Tuple[
    F.Formula, Tuple[Tuple[str, ast.Expr], ...], Tuple[Tuple[str, Monomial], ...]
]


class EncodingMemo:
    """A thread-safe LRU map from ``(expr, bool_vars)`` to an :data:`Encoding`.

    Bounded at ``max_entries`` (the least recently used entry goes
    first).  Only finished encodings are stored, never a failed one, so
    an :class:`EncodeError` is raised again on every call.  Entries hold
    interned formulas: :func:`repro.solver.intern.clear` must not run
    while a memo that will be consulted again is live.
    """

    def __init__(self, max_entries: int = 4096) -> None:
        self._entries: "OrderedDict[Tuple[ast.Expr, FrozenSet[str]], Encoding]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self.max_entries = max_entries

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Tuple[ast.Expr, FrozenSet[str]]) -> Optional[Encoding]:
        with self._lock:
            encoding = self._entries.get(key)
            if encoding is not None:
                self._entries.move_to_end(key)
            return encoding

    def put(self, key: Tuple[ast.Expr, FrozenSet[str]], encoding: Encoding) -> None:
        with self._lock:
            self._entries[key] = encoding
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()


class Encoder:
    """Translates :mod:`repro.lang.ast` expressions into formulas.

    Parameters
    ----------
    bool_vars:
        Names of source variables with boolean type (they become
        propositional variables rather than arithmetic ones).
    memo:
        The :class:`EncodingMemo` to consult and fill; a private one
        when None.  Encoders sharing a memo share only its entries: each
        keeps its own ``opaque`` and ``monomials`` tables.
    """

    def __init__(
        self,
        bool_vars: Optional[Iterable[str]] = None,
        memo: Optional[EncodingMemo] = None,
    ) -> None:
        self.bool_vars: FrozenSet[str] = frozenset(bool_vars or ())
        self.memo = memo if memo is not None else EncodingMemo()
        #: opaque solver variable name -> the AST term it stands for
        self.opaque: Dict[str, ast.Expr] = {}
        #: composite monomial name -> its factor structure (for lemmas)
        self.monomials: Dict[str, Monomial] = {}

    # -- entry points --------------------------------------------------------

    def boolean(self, expr: ast.Expr) -> F.Formula:
        """Encode a boolean expression as a formula."""
        return self._memoized(expr, self._boolean)

    def _memoized(
        self, expr: ast.Expr, encode: Callable[[ast.Expr], F.Formula]
    ) -> F.Formula:
        """``encode(expr)``, answered from :attr:`memo` when it can be.

        A miss encodes into fresh side tables, merges them into the
        current ones (also when ``encode`` raises, as an unmemoized
        encoder would have recorded them) and stores the result.
        """
        key = (expr, self.bool_vars)
        encoding = self.memo.get(key)
        if encoding is None:
            outer = self.opaque, self.monomials
            self.opaque, self.monomials = {}, {}
            try:
                formula = encode(expr)
            finally:
                opaque, monomials = self.opaque, self.monomials
                self.opaque, self.monomials = outer
                self.opaque.update(opaque)
                self.monomials.update(monomials)
            encoding = (formula, tuple(opaque.items()), tuple(monomials.items()))
            self.memo.put(key, encoding)
            return formula
        formula, opaque_items, monomial_items = encoding
        self.opaque.update(opaque_items)
        self.monomials.update(monomial_items)
        return formula

    def _boolean(self, expr: ast.Expr) -> F.Formula:
        if isinstance(expr, ast.BoolLit):
            return F.TRUE_F if expr.value else F.FALSE_F
        if isinstance(expr, ast.Var):
            if expr.name in self.bool_vars:
                return F.BVar(expr.name)
            raise EncodeError(f"variable {expr.name} used as boolean but not declared bool")
        if isinstance(expr, ast.Not):
            return F.mk_not(self._boolean(expr.operand))
        if isinstance(expr, ast.BinOp):
            if expr.op == "&&":
                return F.mk_and(self._boolean(expr.left), self._boolean(expr.right))
            if expr.op == "||":
                return F.mk_or(self._boolean(expr.left), self._boolean(expr.right))
            if expr.op in ast.COMPARATORS:
                if self._is_boolean(expr.left) or self._is_boolean(expr.right):
                    return self._boolean_comparison(expr)
                return self._memoized(expr, self._numeric_comparison)
            raise EncodeError(f"operator {expr.op} is not boolean")
        if isinstance(expr, ast.Ternary):
            cond = self._boolean(expr.cond)
            return F.mk_ite(cond, self._boolean(expr.then), self._boolean(expr.orelse))
        if isinstance(expr, ast.ForAll):
            raise EncodeError("quantifiers must be instantiated before encoding")
        raise EncodeError(f"cannot encode {expr!r} as a boolean")

    def cases(self, expr: ast.Expr) -> List[Case]:
        """Encode a numeric expression as exhaustive guarded linear cases.

        Nonlinear sub-terms are normalised to monomials (see
        :mod:`repro.solver.monomials`), so proportional costs like
        ``2·eps/(4·N)`` and ``eps/(2·N)`` share a solver variable and
        products distribute over sums exactly.
        """
        return [(guard, self._poly_to_lin(poly)) for guard, poly in self._poly_cases(expr)]

    def _poly_cases(self, expr: ast.Expr) -> List[Tuple[F.Formula, Polynomial]]:
        if isinstance(expr, ast.Real):
            return [(F.TRUE_F, Polynomial.constant(expr.value))]
        if isinstance(expr, ast.Var):
            if expr.name in self.bool_vars:
                raise EncodeError(f"boolean variable {expr.name} used as number")
            return [(F.TRUE_F, Polynomial.atom(expr.name))]
        if isinstance(expr, ast.Hat):
            return [(F.TRUE_F, Polynomial.atom(f"{expr.base}^{expr.version}"))]
        if isinstance(expr, ast.Index):
            return [(F.TRUE_F, Polynomial.atom(self._index_name(expr)))]
        if isinstance(expr, ast.Neg):
            return [(g, -poly) for g, poly in self._poly_cases(expr.operand)]
        if isinstance(expr, ast.Abs):
            result: List[Tuple[F.Formula, Polynomial]] = []
            for guard, poly in self._poly_cases(expr.operand):
                lin = self._poly_to_lin(poly)
                nonneg = F.mk_atom("<=", -lin)  # poly >= 0
                result.append((F.mk_and(guard, nonneg), poly))
                result.append((F.mk_and(guard, F.mk_not(nonneg)), -poly))
            return _prune(result)
        if isinstance(expr, ast.Ternary):
            cond = self._boolean(expr.cond)
            result = []
            for guard, poly in self._poly_cases(expr.then):
                result.append((F.mk_and(cond, guard), poly))
            for guard, poly in self._poly_cases(expr.orelse):
                result.append((F.mk_and(F.mk_not(cond), guard), poly))
            return _prune(result)
        if isinstance(expr, ast.BinOp):
            if expr.op in ("+", "-", "*"):
                result = []
                for g1, p1 in self._poly_cases(expr.left):
                    for g2, p2 in self._poly_cases(expr.right):
                        guard = F.mk_and(g1, g2)
                        if isinstance(guard, F.FFalse):
                            continue
                        if expr.op == "+":
                            poly = p1 + p2
                        elif expr.op == "-":
                            poly = p1 - p2
                        else:
                            poly = p1 * p2
                        result.append((guard, poly))
                return _prune(result)
            if expr.op == "/":
                return self._divide(expr)
            raise EncodeError(f"operator {expr.op} is not numeric")
        raise EncodeError(f"cannot encode {expr!r} as a number")

    def _poly_to_lin(self, poly: Polynomial) -> LinExpr:
        """Lower a polynomial to a LinExpr over monomial variable names."""
        terms: Dict[str, Fraction] = {}
        constant = Fraction(0)
        for mono, coeff in poly.monomials():
            if mono.is_unit():
                constant += coeff
                continue
            name = mono.name()
            if mono.is_single_atom() is None:
                self.monomials[name] = mono
            terms[name] = terms.get(name, Fraction(0)) + coeff
        return LinExpr(terms, constant)

    # -- internals ------------------------------------------------------------

    def _is_boolean(self, expr: ast.Expr) -> bool:
        if isinstance(expr, (ast.BoolLit, ast.Not)):
            return True
        if isinstance(expr, ast.Var):
            return expr.name in self.bool_vars
        if isinstance(expr, ast.BinOp):
            return expr.op in ast.BOOL_OPS or expr.op in ast.COMPARATORS
        if isinstance(expr, ast.Ternary):
            return self._is_boolean(expr.then) and self._is_boolean(expr.orelse)
        return False

    def _boolean_comparison(self, expr: ast.BinOp) -> F.Formula:
        if expr.op not in ("==", "!="):
            raise EncodeError(f"booleans cannot be compared with {expr.op}")
        iff = F.mk_iff(self._boolean(expr.left), self._boolean(expr.right))
        return iff if expr.op == "==" else F.mk_not(iff)

    def _numeric_comparison(self, expr: ast.BinOp) -> F.Formula:
        arms = []
        for g1, p1 in self._poly_cases(expr.left):
            for g2, p2 in self._poly_cases(expr.right):
                guard = F.mk_and(g1, g2)
                if isinstance(guard, F.FFalse):
                    continue
                l1, l2 = self._poly_to_lin(p1), self._poly_to_lin(p2)
                arms.append(F.mk_and(guard, F.mk_atom(expr.op, l1, l2)))
        return F.mk_or(*arms)

    def _divide(self, expr: ast.BinOp) -> List[Tuple[F.Formula, Polynomial]]:
        result: List[Tuple[F.Formula, Polynomial]] = []
        for g1, p1 in self._poly_cases(expr.left):
            for g2, p2 in self._poly_cases(expr.right):
                guard = F.mk_and(g1, g2)
                if isinstance(guard, F.FFalse):
                    continue
                if p2.as_constant() == 0:
                    raise EncodeError(f"division by the constant zero in {pretty_expr(expr)}")
                quotient = p1.divide(p2)
                if quotient is None:
                    # Division by a sum: abstract the whole quotient.
                    result.append((guard, Polynomial.atom(self._opaque(expr))))
                else:
                    result.append((guard, quotient))
        return _prune(result)

    def _opaque(self, expr: ast.Expr) -> str:
        name = f"<{pretty_expr(expr)}>"
        self.opaque[name] = expr
        return name

    def _index_name(self, expr: ast.Index) -> str:
        if isinstance(expr.base, ast.Var):
            base = expr.base.name
        elif isinstance(expr.base, ast.Hat):
            base = f"{expr.base.base}^{expr.base.version}"
        else:
            return self._opaque(expr)
        index_cases = self.cases(expr.index)
        if len(index_cases) == 1 and index_cases[0][1].is_constant():
            value = index_cases[0][1].constant_value()
            if value.denominator == 1:
                return f"{base}[{value.numerator}]"
        return self._opaque(expr)


def _prune(cases):
    """Drop statically-false arms and merge equal payloads."""
    kept = []
    for guard, payload in cases:
        if isinstance(guard, F.FFalse):
            continue
        kept.append((guard, payload))
    if not kept:
        raise EncodeError("numeric expression has no feasible cases")
    # Merge identical payloads to curb exponential growth.
    merged: Dict[object, F.Formula] = {}
    order: List[object] = []
    for guard, payload in kept:
        key = _payload_key(payload)
        if key in merged:
            merged[key] = (F.mk_or(merged[key][0], guard), payload)
        else:
            merged[key] = (guard, payload)
            order.append(key)
    return [merged[key] for key in order]


def _payload_key(payload) -> object:
    if isinstance(payload, Polynomial):
        return tuple(sorted(((m.name(), c) for m, c in payload.monomials())))
    return payload
