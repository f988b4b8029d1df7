"""Expression simplification.

The type checker and transformer lean on this module for three paper
behaviours:

* the *branch-condition optimization* of Section 4.3.1 ("at Line 4, η has
  (aligned) distance Ω ? 2 : 0 ... simplified to 2 in the true branch and
  0 in the false branch") — :func:`simplify_under`;
* readable privacy-cost updates (Fig. 1 line 6, Fig. 6 line 6), which
  need ``|Ω ? 2 : 0| / (2/ε)`` to become ``Ω ? ε : 0`` —
  the ternary/abs/division rewrites in :func:`simplify`;
* syntactic distance equality for the environment join and for detecting
  trivial instrumentation like ``x̂° := x̂°``.

All rewrites are semantics-preserving over the reals (division rewrites
assume the divisor is nonzero, which the sampling scale ``Lap r``
guarantees for ``r``; ShadowDP programs never divide by zero on purpose).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Mapping, Optional

from repro.lang import ast


#: Node-keyed memo table: expression -> its simplified form.  AST nodes
#: are immutable frozen dataclasses, so the map is sound; simplification
#: is idempotent, so results are stored as fixpoints of themselves.  The
#: table is cleared wholesale when it grows past ``_MEMO_LIMIT`` (the
#: verification workload plateaus far below it).
_MEMO: dict = {}
_MEMO_LIMIT = 1 << 16


def simplify(expr: ast.Expr) -> ast.Expr:
    """Bottom-up simplification to a small canonical form (memoized)."""
    if isinstance(expr, (ast.Real, ast.BoolLit, ast.Var, ast.Hat)):
        return expr
    cached = _MEMO.get(expr)
    if cached is not None:
        return cached
    result = _simplify_uncached(expr)
    if len(_MEMO) >= _MEMO_LIMIT:
        _MEMO.clear()
    _MEMO[expr] = result
    _MEMO[result] = result
    return result


def _simplify_uncached(expr: ast.Expr) -> ast.Expr:
    if isinstance(expr, ast.Neg):
        return _neg(simplify(expr.operand))
    if isinstance(expr, ast.Not):
        return _not(simplify(expr.operand))
    if isinstance(expr, ast.Abs):
        return _abs(simplify(expr.operand))
    if isinstance(expr, ast.BinOp):
        return _binop(expr.op, simplify(expr.left), simplify(expr.right))
    if isinstance(expr, ast.Ternary):
        return _ternary(simplify(expr.cond), simplify(expr.then), simplify(expr.orelse))
    if isinstance(expr, ast.Cons):
        return ast.Cons(simplify(expr.head), simplify(expr.tail))
    if isinstance(expr, ast.Index):
        return ast.Index(simplify(expr.base), simplify(expr.index))
    if isinstance(expr, ast.ForAll):
        return ast.ForAll(expr.var, simplify(expr.body))
    raise TypeError(f"simplify: unknown node {expr!r}")


def simplify_under(expr: ast.Expr, assumption: ast.Expr, truth: bool) -> ast.Expr:
    """Simplify ``expr`` assuming the boolean ``assumption`` has ``truth``.

    Replacement is purely syntactic: sub-expressions equal to
    ``assumption`` (after simplification) become the constant, and
    sub-expressions equal to its negation become the opposite constant.
    This is exactly the paper's branch-condition optimization, and it is
    sound because the checker only applies it inside the corresponding
    branch.
    """
    return simplifier_under(assumption, truth)(expr)


def simplifier_under(assumption: ast.Expr, truth: bool) -> Callable[[ast.Expr], ast.Expr]:
    """:func:`simplify_under` with the assumption fixed: the replacement
    map is built once, and the returned function can rewrite every
    distance of an environment entering a branch.  An expression in
    which the assumption does not occur comes back as its simplified
    form, the very object :func:`simplify` returns.
    """
    assumption = simplify(assumption)
    mapping = {
        assumption: ast.BoolLit(truth),
        _not(assumption): ast.BoolLit(not truth),
    }

    def rewrite(expr: ast.Expr) -> ast.Expr:
        simplified = simplify(expr)
        replaced = _replace_bool(simplified, mapping)
        return simplified if replaced is simplified else simplify(replaced)

    return rewrite


def _replace_bool(expr: ast.Expr, mapping: Mapping[ast.Expr, ast.Expr]) -> ast.Expr:
    """``expr`` with ``mapping`` applied to its sub-expressions; ``expr``
    itself when nothing was replaced."""
    replacement = mapping.get(expr)
    if replacement is not None:
        return replacement
    if isinstance(expr, (ast.Real, ast.BoolLit, ast.Var, ast.Hat)):
        return expr
    if isinstance(expr, (ast.Neg, ast.Not, ast.Abs)):
        operand = _replace_bool(expr.operand, mapping)
        return expr if operand is expr.operand else type(expr)(operand)
    if isinstance(expr, ast.BinOp):
        left = _replace_bool(expr.left, mapping)
        right = _replace_bool(expr.right, mapping)
        if left is expr.left and right is expr.right:
            return expr
        return ast.BinOp(expr.op, left, right)
    if isinstance(expr, ast.Ternary):
        cond = _replace_bool(expr.cond, mapping)
        then = _replace_bool(expr.then, mapping)
        orelse = _replace_bool(expr.orelse, mapping)
        if cond is expr.cond and then is expr.then and orelse is expr.orelse:
            return expr
        return ast.Ternary(cond, then, orelse)
    if isinstance(expr, ast.Cons):
        head = _replace_bool(expr.head, mapping)
        tail = _replace_bool(expr.tail, mapping)
        return expr if head is expr.head and tail is expr.tail else ast.Cons(head, tail)
    if isinstance(expr, ast.Index):
        base = _replace_bool(expr.base, mapping)
        index = _replace_bool(expr.index, mapping)
        return expr if base is expr.base and index is expr.index else ast.Index(base, index)
    if isinstance(expr, ast.ForAll):
        body = _replace_bool(expr.body, mapping)
        return expr if body is expr.body else ast.ForAll(expr.var, body)
    raise TypeError(f"_replace_bool: unknown node {expr!r}")


# ---------------------------------------------------------------------------
# Node-local rewrites
# ---------------------------------------------------------------------------


def _const(expr: ast.Expr) -> Optional[Fraction]:
    if isinstance(expr, ast.Real):
        return expr.value
    return None


def _neg(operand: ast.Expr) -> ast.Expr:
    value = _const(operand)
    if value is not None:
        return ast.Real(-value)
    if isinstance(operand, ast.Neg):
        return operand.operand
    if isinstance(operand, ast.Ternary):
        return _ternary(operand.cond, _neg(operand.then), _neg(operand.orelse))
    return ast.Neg(operand)


def _not(operand: ast.Expr) -> ast.Expr:
    if isinstance(operand, ast.BoolLit):
        return ast.BoolLit(not operand.value)
    if isinstance(operand, ast.Not):
        return operand.operand
    return ast.Not(operand)


def _abs(operand: ast.Expr) -> ast.Expr:
    value = _const(operand)
    if value is not None:
        return ast.Real(abs(value))
    if isinstance(operand, ast.Neg):
        return _abs(operand.operand)
    if isinstance(operand, ast.Abs):
        return operand
    if isinstance(operand, ast.Ternary):
        # |c ? a : b| = c ? |a| : |b| — this is what turns the cost term
        # |Ω ? 2 : 0| into Ω ? 2 : 0.
        return _ternary(operand.cond, _abs(operand.then), _abs(operand.orelse))
    return ast.Abs(operand)


def _ternary(cond: ast.Expr, then: ast.Expr, orelse: ast.Expr) -> ast.Expr:
    if isinstance(cond, ast.BoolLit):
        return then if cond.value else orelse
    if then == orelse:
        return then
    if isinstance(cond, ast.Not):
        return _ternary(cond.operand, orelse, then)
    return ast.Ternary(cond, then, orelse)


def _binop(op: str, left: ast.Expr, right: ast.Expr) -> ast.Expr:
    lc, rc = _const(left), _const(right)

    if op in ("+", "-", "*", "/"):
        return _arith(op, left, right, lc, rc)
    if op in ast.COMPARATORS:
        return _comparison(op, left, right, lc, rc)
    if op == "&&":
        if isinstance(left, ast.BoolLit):
            return right if left.value else ast.FALSE
        if isinstance(right, ast.BoolLit):
            return left if right.value else ast.FALSE
        if left == right:
            return left
        return ast.BinOp("&&", left, right)
    if op == "||":
        if isinstance(left, ast.BoolLit):
            return ast.TRUE if left.value else right
        if isinstance(right, ast.BoolLit):
            return ast.TRUE if right.value else left
        if left == right:
            return left
        return ast.BinOp("||", left, right)
    raise TypeError(f"_binop: unknown operator {op!r}")


def _arith(op: str, left: ast.Expr, right: ast.Expr, lc, rc) -> ast.Expr:
    if lc is not None and rc is not None:
        if op == "+":
            return ast.Real(lc + rc)
        if op == "-":
            return ast.Real(lc - rc)
        if op == "*":
            return ast.Real(lc * rc)
        if rc != 0:
            return ast.Real(lc / rc)

    if op in ("+", "-"):
        cancelled = _cancel_additive(op, left, right)
        if cancelled is not None:
            return cancelled

    if op == "+":
        if lc == 0:
            return right
        if rc == 0:
            return left
    elif op == "-":
        if rc == 0:
            return left
        if left == right:
            return ast.ZERO
        if lc == 0:
            return _neg(right)
    elif op == "*":
        if lc == 0 or rc == 0:
            return ast.ZERO
        if lc == 1:
            return right
        if rc == 1:
            return left
    elif op == "/":
        if lc == 0:
            return ast.ZERO
        if rc == 1:
            return left
        # a / (b / c) = a * c / b  (the sampling scale rewrite that turns
        # |n| / (2/eps) into |n| * eps / 2).
        if isinstance(right, ast.BinOp) and right.op == "/":
            return simplify(
                ast.BinOp("/", ast.BinOp("*", left, right.right), right.left)
            )
        # (k * e) / c = (k/c) * e for constants k, c — this collapses the
        # cost term (2 * eps) / 2 to eps.
        if rc is not None and isinstance(left, ast.BinOp) and left.op == "*":
            inner_l, inner_r = _const(left.left), _const(left.right)
            if inner_l is not None:
                return _binop("*", ast.Real(inner_l / rc), left.right)
            if inner_r is not None:
                return _binop("*", left.left, ast.Real(inner_r / rc))

    # Distribute over ternaries with the *same* guard, or when only one
    # side is a ternary and the other is simple, push the operation in.
    # This keeps distances and privacy costs in guarded normal form.
    if isinstance(left, ast.Ternary) and isinstance(right, ast.Ternary) and left.cond == right.cond:
        return _ternary(
            left.cond,
            _binop(op, left.then, right.then),
            _binop(op, left.orelse, right.orelse),
        )
    if isinstance(left, ast.Ternary) and _is_simple(right):
        return _ternary(left.cond, _binop(op, left.then, right), _binop(op, left.orelse, right))
    if isinstance(right, ast.Ternary) and _is_simple(left) and op in ("*", "+"):
        return _ternary(right.cond, _binop(op, left, right.then), _binop(op, left, right.orelse))

    return ast.BinOp(op, left, right)


def _additive_terms(expr: ast.Expr, sign: int, out: list) -> None:
    """Flatten a +/-/Neg chain into signed atomic terms."""
    if isinstance(expr, ast.BinOp) and expr.op == "+":
        _additive_terms(expr.left, sign, out)
        _additive_terms(expr.right, sign, out)
    elif isinstance(expr, ast.BinOp) and expr.op == "-":
        _additive_terms(expr.left, sign, out)
        _additive_terms(expr.right, -sign, out)
    elif isinstance(expr, ast.Neg):
        _additive_terms(expr.operand, -sign, out)
    else:
        out.append((sign, expr))


def _cancel_additive(op: str, left: ast.Expr, right: ast.Expr):
    """Cancel equal terms of opposite sign across an additive chain.

    Returns the simplified expression, or None when nothing cancels (so
    the caller keeps the original shape — this keeps the emitted code
    close to the paper's figures instead of fully renormalising it).
    """
    terms: list = []
    _additive_terms(left, 1, terms)
    _additive_terms(right, 1 if op == "+" else -1, terms)

    cancelled = False
    kept: list = []
    for sign, term in terms:
        for k, (other_sign, other_term) in enumerate(kept):
            if other_term == term and other_sign == -sign:
                del kept[k]
                cancelled = True
                break
        else:
            kept.append((sign, term))
    if not cancelled:
        return None

    constant = Fraction(0)
    rest = []
    for sign, term in kept:
        value = _const(term)
        if value is not None:
            constant += value if sign > 0 else -value
        else:
            rest.append((sign, term))
    result: Optional[ast.Expr] = ast.Real(constant) if constant != 0 or not rest else None
    for sign, term in rest:
        if result is None:
            result = term if sign > 0 else _neg(term)
        else:
            result = ast.BinOp("+" if sign > 0 else "-", result, term)
    return result if result is not None else ast.ZERO


def _is_simple(expr: ast.Expr) -> bool:
    """Cheap expressions worth duplicating into ternary branches."""
    if isinstance(expr, (ast.Real, ast.Var, ast.Hat)):
        return True
    if isinstance(expr, ast.Index):
        return _is_simple(expr.base) and _is_simple(expr.index)
    if isinstance(expr, (ast.Neg, ast.Abs)):
        return _is_simple(expr.operand)
    if isinstance(expr, ast.BinOp) and expr.op in ("*", "/", "+", "-"):
        return _is_simple(expr.left) and _is_simple(expr.right)
    return False


def _comparison(op: str, left: ast.Expr, right: ast.Expr, lc, rc) -> ast.Expr:
    if lc is not None and rc is not None:
        table = {
            "<": lc < rc,
            "<=": lc <= rc,
            ">": lc > rc,
            ">=": lc >= rc,
            "==": lc == rc,
            "!=": lc != rc,
        }
        return ast.BoolLit(table[op])
    if op in ("==", "<=", ">=") and left == right:
        return ast.TRUE
    if op in ("!=", "<", ">") and left == right:
        return ast.FALSE
    return ast.BinOp(op, left, right)


def is_zero(expr: ast.Expr) -> bool:
    """True when an expression simplifies to the literal 0."""
    return simplify(expr) == ast.ZERO
