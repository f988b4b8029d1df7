"""Expression typing rules (paper Figure 4, top half).

:class:`ExprTyper` computes the pair of *resolved* distances ``⟨n°, n†⟩``
of a numeric expression under a typing environment (rules T-Num, T-Var,
T-OPlus, T-OTimes, T-Ternary, T-Index), and checks that boolean
expressions type as ``bool`` — which for comparisons over non-zero
distances requires discharging the T-ODot constraint with the solver:

    Ψ ⇒ (e1 ⊙ e2 ⇔ (e1+n1) ⊙ (e2+n3)) ∧ (e1 ⊙ e2 ⇔ (e1+n2) ⊙ (e2+n4))
"""

from __future__ import annotations

from typing import Tuple

from repro.core import preconditions
from repro.core.environment import BOOL, NUM, TypeEnv
from repro.core.errors import ShadowDPTypeError
from repro.core.simplify import is_zero, simplify
from repro.lang import ast
from repro.lang.pretty import pretty_expr
from repro.solver.interface import ValidityChecker


class ExprTyper:
    """Types expressions under one environment snapshot."""

    def __init__(self, env: TypeEnv, psi: ast.Expr, validity: ValidityChecker) -> None:
        self.env = env
        self.psi = psi
        self.validity = validity

    # -- numeric expressions ---------------------------------------------------

    def distances(self, expr: ast.Expr) -> Tuple[ast.Expr, ast.Expr]:
        """The resolved ``⟨aligned, shadow⟩`` distances of a numeric expr."""
        aligned, shadow = self._distances(expr)
        return simplify(aligned), simplify(shadow)

    def _distances(self, expr: ast.Expr) -> Tuple[ast.Expr, ast.Expr]:
        if isinstance(expr, ast.Real):
            return ast.ZERO, ast.ZERO
        if isinstance(expr, ast.Hat):
            # Hat variables are the ⟨0,0⟩ components of the Σ-desugaring.
            return ast.ZERO, ast.ZERO
        if isinstance(expr, ast.Var):
            entry = self.env.lookup(expr.name)
            if entry.is_list:
                raise ShadowDPTypeError(f"list {expr.name!r} used as a number")
            if entry.kind != NUM:
                raise ShadowDPTypeError(f"boolean {expr.name!r} used as a number")
            return self.env.aligned_expr(expr.name), self.env.shadow_expr(expr.name)
        if isinstance(expr, ast.Index):
            return self._index_distances(expr)
        if isinstance(expr, ast.Neg):
            aligned, shadow = self._distances(expr.operand)
            return ast.Neg(aligned), ast.Neg(shadow)
        if isinstance(expr, ast.BinOp):
            return self._binop_distances(expr)
        if isinstance(expr, ast.Ternary):
            # (T-Ternary): the guard must be a sound bool and both arms
            # must have the *same* type (identical distances).
            self.check_boolean(expr.cond)
            then = self.distances(expr.then)
            orelse = self.distances(expr.orelse)
            if then != orelse:
                raise ShadowDPTypeError(
                    f"ternary arms of {pretty_expr(expr)} have different distances",
                    reason="ternary-mismatch",
                )
            return then
        if isinstance(expr, ast.Abs):
            aligned, shadow = self.distances(expr.operand)
            if is_zero(aligned) and is_zero(shadow):
                return ast.ZERO, ast.ZERO
            raise ShadowDPTypeError(
                f"abs over non-zero distances in {pretty_expr(expr)}",
                reason="nonzero-abs",
            )
        raise ShadowDPTypeError(f"not a numeric expression: {pretty_expr(expr)}")

    def _index_distances(self, expr: ast.Index) -> Tuple[ast.Expr, ast.Expr]:
        # (T-Index): the index must be at distance ⟨0,0⟩.
        idx_aligned, idx_shadow = self.distances(expr.index)
        if not (is_zero(idx_aligned) and is_zero(idx_shadow)):
            raise ShadowDPTypeError(
                f"index of {pretty_expr(expr)} has non-zero distance",
                reason="indexed-by-private",
            )
        if isinstance(expr.base, ast.Hat):
            return ast.ZERO, ast.ZERO
        if not isinstance(expr.base, ast.Var):
            raise ShadowDPTypeError(f"cannot index {pretty_expr(expr.base)}")
        name = expr.base.name
        entry = self.env.lookup(name)
        if not entry.is_list:
            raise ShadowDPTypeError(f"{name!r} is not a list")
        if entry.kind != NUM:
            raise ShadowDPTypeError(f"boolean list {name!r} used as a number")
        return (
            self.env.element_expr(name, expr.index, ast.ALIGNED),
            self.env.element_expr(name, expr.index, ast.SHADOW),
        )

    def _binop_distances(self, expr: ast.BinOp) -> Tuple[ast.Expr, ast.Expr]:
        if expr.op in ast.LINEAR_OPS:
            # (T-OPlus)
            left = self._distances(expr.left)
            right = self._distances(expr.right)
            return (
                ast.BinOp(expr.op, left[0], right[0]),
                ast.BinOp(expr.op, left[1], right[1]),
            )
        if expr.op in ast.OTHER_OPS:
            # (T-OTimes): conservative — both operands at ⟨0,0⟩.
            for side in (expr.left, expr.right):
                aligned, shadow = self.distances(side)
                if not (is_zero(aligned) and is_zero(shadow)):
                    raise ShadowDPTypeError(
                        f"nonlinear operand {pretty_expr(side)} has non-zero distance "
                        f"in {pretty_expr(expr)}",
                        reason="nonlinear-private",
                    )
            return ast.ZERO, ast.ZERO
        raise ShadowDPTypeError(f"operator {expr.op} is not numeric")

    # -- boolean expressions -----------------------------------------------------

    def check_boolean(self, expr: ast.Expr) -> None:
        """Check ``Γ ⊢ expr : bool`` (distances ⟨0,0⟩), or raise."""
        if isinstance(expr, ast.BoolLit):
            return
        if isinstance(expr, ast.Var):
            entry = self.env.lookup(expr.name)
            if entry.kind != BOOL or entry.is_list:
                raise ShadowDPTypeError(f"{expr.name!r} is not a boolean")
            return
        if isinstance(expr, ast.Not):
            self.check_boolean(expr.operand)
            return
        if isinstance(expr, ast.BinOp):
            if expr.op in ast.BOOL_OPS:
                self.check_boolean(expr.left)
                self.check_boolean(expr.right)
                return
            if expr.op in ast.COMPARATORS:
                self._check_odot(expr)
                return
            raise ShadowDPTypeError(f"operator {expr.op} is not boolean")
        if isinstance(expr, ast.Ternary):
            self.check_boolean(expr.cond)
            self.check_boolean(expr.then)
            self.check_boolean(expr.orelse)
            return
        raise ShadowDPTypeError(f"not a boolean expression: {pretty_expr(expr)}")

    def _check_odot(self, expr: ast.BinOp) -> None:
        """(T-ODot): the comparison result must coincide in the original,
        aligned and shadow executions."""
        n1, n2 = self.distances(expr.left)
        n3, n4 = self.distances(expr.right)
        if all(is_zero(d) for d in (n1, n2, n3, n4)):
            return
        base = expr
        aligned = ast.BinOp(
            expr.op,
            simplify(ast.BinOp("+", expr.left, n1)),
            simplify(ast.BinOp("+", expr.right, n3)),
        )
        shadow = ast.BinOp(
            expr.op,
            simplify(ast.BinOp("+", expr.left, n2)),
            simplify(ast.BinOp("+", expr.right, n4)),
        )
        goal = ast.BinOp("&&", ast.BinOp("==", base, aligned), ast.BinOp("==", base, shadow))
        premises = preconditions.instantiate(self.psi, [goal])
        if not self.validity.is_valid(goal, premises, self.env.bool_vars()):
            raise ShadowDPTypeError(
                f"comparison {pretty_expr(expr)} may differ between executions "
                f"(T-ODot constraint not valid)",
                reason="odot",
            )

    def is_boolean(self, expr: ast.Expr) -> bool:
        """Syntactic kind test (used to dispatch assignment rules)."""
        if isinstance(expr, (ast.BoolLit, ast.Not)):
            return True
        if isinstance(expr, ast.Var):
            entry = self.env.get(expr.name)
            return entry is not None and entry.kind == BOOL and not entry.is_list
        if isinstance(expr, ast.BinOp):
            return expr.op in ast.BOOL_OPS or expr.op in ast.COMPARATORS
        if isinstance(expr, ast.Ternary):
            return self.is_boolean(expr.then) and self.is_boolean(expr.orelse)
        if isinstance(expr, ast.Index):
            if isinstance(expr.base, ast.Var):
                entry = self.env.get(expr.base.name)
                return entry is not None and entry.kind == BOOL and entry.is_list
        return False
