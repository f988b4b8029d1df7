"""Command typing and transformation (paper Fig. 4, bottom half).

The checker runs a forward dataflow pass over the program's CFG
(:class:`~repro.ir.CFGWalker`): the flow-sensitive typing environment
and the program counter ``pc`` are the block-entry facts, branch arms
are analysed independently and *joined* at the CFG's merge points
(rule T-If's environment join plus the ⇛ transition commands), and each
loop's fixpoint iterates that loop's body sub-CFG until its environment
stabilises.  Alongside the facts it emits the instrumented
probabilistic program ``c′`` of Section 5: the original commands plus

* ``assert`` statements pinning the aligned execution to the original
  control flow (rules T-If / T-While),
* hat-variable updates maintaining dynamically tracked distances
  (instrumentation rule ⇛ and the well-formedness promotions), and
* the shadow execution ``⟦c, Γ⟧†`` where the shadow run may diverge.

A program whose sampling annotations never select the shadow execution
(all selectors ``°``) is checked in *aligned-only* mode: the shadow
analysis is skipped entirely, ``pc`` stays ⊥, and the system degenerates
to LightDP exactly as Section 7 describes.  This is also what lets
Numerical SVT sample inside a branch (its Fig. 10 annotations are all
``°``): rule (T-Laplace) requires ``pc = ⊥``, which aligned-only mode
preserves across branches.

Rule (T-Laplace) asks the solver whether the alignment ``η ↦ η + n``
is injective.  When ``n`` does not mention ``η`` (substituting ``η``
leaves it unchanged) the map is a translation, which is always
injective, so the checker asks nothing; only alignments that mention
``η`` reach the solver.  The remaining questions go through the query
cache the caller passes (:class:`~repro.pipeline.Pipeline` passes its
own, so an answer found for one program or annotation candidate serves
the next), each under the boolean variables of the environment at the
program point that asks.

With witnesses on, every valid answer the checker relies on carries a
certificate the trusted kernel can re-check, and
:attr:`CheckedProgram.certificates` keeps them by query id
(:func:`~repro.solver.context.query_oid`).  A refutation needs none: it
can only make the checker reject.  Given a persistent answer source
(the pipeline passes a :class:`repro.verify.store.CheckAnswers` when a
store is attached), a question the cache misses is answered from there
before it is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.core import preconditions
from repro.core.environment import BOOL, NUM, TypeEnv, VarEntry, env_from_function
from repro.core.errors import ShadowDPTypeError
from repro.core.expr_rules import ExprTyper
from repro.core.instrumentation import PC_HIGH, PC_LOW, transition_commands
from repro.core.shadow import shadow_command, versioned_expr
from repro.core.simplify import is_zero, simplifier_under, simplify, simplify_under
from repro.ir import CFGWalker, ast_to_cfg, statement_kind
from repro.ir.build import region_to_ast
from repro.ir.cfg import CFG, Block, Branch, LoopHeader
from repro.ir.passes import selector_conditions
from repro.lang import ast
from repro.lang.pretty import pretty_expr
from repro.solver.context import QueryCache, query_oid
from repro.solver.interface import ValidityChecker

_MAX_FIXPOINT_ITERATIONS = 20


@dataclass
class CheckedProgram:
    """The result of type checking: the instrumented program ``c′``.

    ``body`` still contains :class:`~repro.lang.ast.Sample` commands; the
    second transformation stage (:mod:`repro.target.transform`) lowers
    them to ``havoc`` plus privacy-cost updates.  ``certificates`` holds,
    when the check ran with witnesses, the certificate behind every valid
    solver answer it relied on, by query id.
    """

    function: ast.FunctionDef
    body: ast.Command
    final_env: TypeEnv
    aligned_only: bool
    solver_queries: int = 0
    solver_cache_hits: int = 0
    solve_calls: int = 0
    certificates: Dict[str, object] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return self.function.name


def uses_shadow_selector(program) -> bool:
    """True when any sampling annotation can pick the shadow execution.

    Accepts a :class:`~repro.ir.cfg.CFG` or a raw command.
    """
    cfg = program if isinstance(program, CFG) else ast_to_cfg(program)
    for stmt in cfg.walk_statements():
        if statement_kind(stmt) == "sample" and ast.selector_uses_shadow(stmt.selector):
            return True
    return False


#: The walker state: instrumented commands so far, the typing
#: environment at this point, and the program counter.
_State = Tuple[Tuple[ast.Command, ...], TypeEnv, str]


class TypeChecker(CFGWalker):
    """Checks one function (Section 4) and emits its transformed body.

    A forward pass over the function's CFG: ``visit_<kind>`` methods are
    the per-statement transfer functions (they return the instrumented
    statement plus the updated environment), ``on_branch`` implements
    rule T-If at the CFG join, and ``on_loop`` implements T-While's
    fixpoint over the loop's body sub-CFG.

    Solver questions go through ``cache`` when one is given (the
    pipeline passes its query cache), else through a private one;
    ``witness`` and ``answers`` configure the
    :class:`~repro.solver.interface.ValidityChecker` that asks them.
    """

    def __init__(
        self,
        function: ast.FunctionDef,
        lightdp_mode: bool = False,
        cache: Optional[QueryCache] = None,
        witness: bool = False,
        answers=None,
    ) -> None:
        self.function = function
        self.psi = function.precondition
        self.validity = ValidityChecker(cache=cache, witness=witness, answers=answers)
        self.lightdp_mode = lightdp_mode
        self.cfg = ast_to_cfg(function.body)
        self.aligned_only = not uses_shadow_selector(self.cfg)
        # During loop-fixpoint iterations the environment is not yet
        # stable, so annotations referencing hat variables that are only
        # promoted later look ill-typed; validity-style checks are
        # suppressed ("lenient") until the env converges, then the body
        # is re-checked strictly.
        self.lenient = False

    # -- public API --------------------------------------------------------------

    def check(self) -> CheckedProgram:
        if self.lightdp_mode and not self.aligned_only:
            raise ShadowDPTypeError(
                "LightDP baseline: sampling annotations may not select the "
                "shadow execution (paper Section 7)",
                reason="lightdp-shadow",
            )
        env = env_from_function(self.function)
        try:
            body, final_env = self._check_region(
                self.cfg, self.cfg.entry, None, env, PC_LOW
            )
        except ShadowDPTypeError as err:
            err.solve_calls = self.validity.solve_calls
            raise
        return CheckedProgram(
            function=self.function,
            body=body,
            final_env=final_env,
            aligned_only=self.aligned_only,
            solver_queries=self.validity.queries,
            solver_cache_hits=self.validity.cache_hits,
            solve_calls=self.validity.solve_calls,
            certificates={
                query_oid(key): certificate
                for key, certificate in self.validity.certificates.items()
            },
        )

    # -- helpers -------------------------------------------------------------------

    def _typer(self, env: TypeEnv) -> ExprTyper:
        return ExprTyper(env, self.psi, self.validity)

    def _premises(self, *queries: ast.Expr) -> List[ast.Expr]:
        return preconditions.instantiate(self.psi, queries)

    def _provably(self, goal: ast.Expr, env: TypeEnv) -> bool:
        """Ψ ⊨ ``goal``, with the boolean variables of ``env``, the
        environment at the program point that asks."""
        goal = simplify(goal)
        if goal == ast.TRUE:
            return True
        if goal == ast.FALSE:
            return False
        return self.validity.is_valid(goal, self._premises(goal), env.bool_vars())

    # -- the dataflow pass ---------------------------------------------------------

    def _check_region(
        self, cfg: CFG, start: int, stop: Optional[int], env: TypeEnv, pc: str
    ) -> Tuple[ast.Command, TypeEnv]:
        """Run the pass over one region; the instrumented command plus
        the environment at the region's end."""
        cmds, out_env, _ = self.run_region(cfg, start, stop, ((), env, pc))
        return ast.seq(*cmds), out_env

    def _emit(self, state: _State, checked: ast.Command, env: TypeEnv) -> _State:
        cmds, _, pc = state
        return cmds + (checked,), env, pc

    # -- statement transfer functions (the T-rules) ----------------------------------

    def visit_assign(self, stmt: ast.Assign, state: _State) -> _State:
        _, env, pc = state
        checked, env = self._check_assign(stmt, env, pc)
        return self._emit(state, checked, env)

    def visit_sample(self, stmt: ast.Sample, state: _State) -> _State:
        _, env, pc = state
        checked, env = self._check_sample(stmt, env, pc)
        return self._emit(state, checked, env)

    def visit_return_(self, stmt: ast.Return, state: _State) -> _State:
        _, env, pc = state
        checked, env = self._check_return(stmt, env, pc)
        return self._emit(state, checked, env)

    def visit_skip(self, stmt: ast.Skip, state: _State) -> _State:
        return state

    def visit_assert_(self, stmt: ast.Assert, state: _State) -> _State:
        return self._reject_target_only(stmt)

    def visit_assume(self, stmt: ast.Assume, state: _State) -> _State:
        return self._reject_target_only(stmt)

    def visit_havoc(self, stmt: ast.Havoc, state: _State) -> _State:
        return self._reject_target_only(stmt)

    def _reject_target_only(self, stmt: ast.Command) -> _State:
        raise ShadowDPTypeError(
            f"{type(stmt).__name__} is a target-language command",
            reason="target-only-command",
        )

    def generic_visit(self, stmt: ast.Command, *args):
        raise ShadowDPTypeError(f"unknown command {stmt!r}")

    # -- (T-Asgn) ------------------------------------------------------------------------

    def _check_assign(self, cmd: ast.Assign, env: TypeEnv, pc: str) -> Tuple[ast.Command, TypeEnv]:
        typer = self._typer(env)

        # Hat variables may not be assigned in source programs.
        if "^" in cmd.name:
            raise ShadowDPTypeError(
                f"distance variable {cmd.name!r} cannot be assigned directly",
                reason="hat-assignment",
            )

        entry = env.get(cmd.name)
        if (entry is not None and entry.is_list) or isinstance(cmd.expr, ast.Cons):
            return self._check_list_assign(cmd, env, typer)
        if typer.is_boolean(cmd.expr):
            return self._check_bool_assign(cmd, env, pc, typer)
        return self._check_num_assign(cmd, env, pc, typer)

    def _check_list_assign(self, cmd: ast.Assign, env: TypeEnv, typer: ExprTyper) -> Tuple[ast.Command, TypeEnv]:
        entry = env.get(cmd.name)
        if entry is None or not entry.is_list:
            raise ShadowDPTypeError(
                f"list value assigned to non-list variable {cmd.name!r}",
                reason="list-kind-mismatch",
            )
        if not isinstance(cmd.expr, ast.Cons):
            raise ShadowDPTypeError(
                f"only `head :: {cmd.name}` list updates are supported",
                reason="list-update-shape",
            )
        head, tail = cmd.expr.head, cmd.expr.tail
        if tail != ast.Var(cmd.name):
            raise ShadowDPTypeError(
                f"list update must extend the list itself: expected "
                f"`... :: {cmd.name}`, got `... :: {pretty_expr(tail)}`",
                reason="list-update-shape",
            )
        # (T-Cons): the head must have the declared element type.
        if entry.kind == BOOL:
            typer.check_boolean(head)
        else:
            aligned, shadow = typer.distances(head)
            self._require_distance(aligned, entry.aligned, cmd, "aligned", env)
            self._require_distance(shadow, entry.shadow, cmd, "shadow", env)
        # Element distances are invariant, so the environment is unchanged;
        # list values carry no scalar shadow distance (see shadow.py), so
        # no high-pc instrumentation is needed either.
        return cmd, env

    def _require_distance(
        self, actual: ast.Expr, declared: ast.Distance, cmd: ast.Assign, which: str, env: TypeEnv
    ) -> None:
        if ast.is_star(declared):
            # A starred/don't-care element distance places no constraint
            # on appended heads (paper return types like list num⟨0,−⟩).
            return
        goal = ast.BinOp("==", actual, declared)
        if self.lenient:
            return
        if not self._provably(goal, env):
            raise ShadowDPTypeError(
                f"in `{cmd.name} := {pretty_expr(cmd.expr)}`: head has {which} "
                f"distance {pretty_expr(actual)}, list elements require "
                f"{pretty_expr(declared)}",
                reason="cons-distance",
            )

    def _check_bool_assign(self, cmd: ast.Assign, env: TypeEnv, pc: str, typer: ExprTyper) -> Tuple[ast.Command, TypeEnv]:
        typer.check_boolean(cmd.expr)
        entry = env.get(cmd.name)
        if entry is not None and (entry.kind != BOOL or entry.is_list):
            raise ShadowDPTypeError(
                f"variable {cmd.name!r} changes kind to bool", reason="kind-change"
            )
        if pc == PC_HIGH and not self.aligned_only:
            # bool carries no ∗ distance, so under a diverged shadow
            # execution the assigned value must provably coincide with its
            # shadow version.
            shadow_value = versioned_expr(cmd.expr, env, ast.SHADOW)
            if simplify(cmd.expr) != shadow_value and not self._provably(
                ast.BinOp("==", cmd.expr, shadow_value), env
            ):
                raise ShadowDPTypeError(
                    f"boolean {cmd.name!r} assigned under diverged shadow "
                    f"execution with possibly different shadow value",
                    reason="bool-under-high-pc",
                )
        return cmd, env.set(cmd.name, VarEntry(BOOL))

    def _check_num_assign(self, cmd: ast.Assign, env: TypeEnv, pc: str, typer: ExprTyper) -> Tuple[ast.Command, TypeEnv]:
        name = cmd.name
        entry = env.get(name)
        if entry is not None and (entry.kind != NUM or entry.is_list):
            raise ShadowDPTypeError(
                f"variable {name!r} changes kind to num", reason="kind-change"
            )
        aligned, shadow = typer.distances(cmd.expr)
        prefix: List[ast.Command] = []

        # Well-formedness: after this assignment no tracked distance may
        # mention `name`.  Freeze offending distances into hat variables
        # *before* the assignment (Section 4.3.1, "Well-Formedness").
        env, freeze = self._freeze_dependents(env, name, exclude=(name,))
        prefix.extend(freeze)

        high_pc_shadow = pc == PC_HIGH and not self.aligned_only
        if high_pc_shadow:
            # The shadow execution did not run this assignment: keep the
            # shadow value  x + x̂†  constant across it.
            old_shadow = (
                env.shadow_expr(name) if entry is not None else None
            )
            if old_shadow is None:
                raise ShadowDPTypeError(
                    f"variable {name!r} first assigned under a diverged "
                    f"shadow execution",
                    reason="fresh-under-high-pc",
                )
            preserved = simplify(
                ast.BinOp("-", ast.BinOp("+", ast.Var(name), old_shadow), cmd.expr)
            )
            prefix.append(ast.Assign(ast.hat_name(name, ast.SHADOW), preserved))
            new_shadow: ast.Distance = ast.STAR
        else:
            new_shadow = shadow

        # If the new aligned distance mentions the assigned variable, it
        # refers to the pre-assignment value: freeze it too.
        new_aligned: ast.Distance = aligned
        if name in ast.free_vars(aligned):
            prefix.append(ast.Assign(ast.hat_name(name, ast.ALIGNED), aligned))
            new_aligned = ast.STAR
        if not high_pc_shadow and not ast.is_star(new_shadow) and name in ast.free_vars(new_shadow):
            prefix.append(ast.Assign(ast.hat_name(name, ast.SHADOW), new_shadow))
            new_shadow = ast.STAR

        env = env.set(name, VarEntry(NUM, new_aligned, new_shadow))
        return ast.seq(*prefix, cmd), env

    def _freeze_dependents(
        self, env: TypeEnv, name: str, exclude: Tuple[str, ...]
    ) -> Tuple[TypeEnv, List[ast.Command]]:
        """Promote to ``*`` every distance that mentions ``name``."""
        commands: List[ast.Command] = []
        for other in env:
            if other in exclude:
                continue
            entry = env.get(other)
            if entry.kind != NUM:
                continue
            aligned, shadow = entry.aligned, entry.shadow
            changed = False
            if not ast.is_star(aligned) and name in ast.free_vars(aligned):
                if entry.is_list:
                    raise ShadowDPTypeError(
                        f"list {other!r} distance depends on assigned variable {name!r}",
                        reason="list-promotion",
                    )
                commands.append(ast.Assign(ast.hat_name(other, ast.ALIGNED), simplify(aligned)))
                aligned = ast.STAR
                changed = True
            if not ast.is_star(shadow) and name in ast.free_vars(shadow):
                if entry.is_list:
                    raise ShadowDPTypeError(
                        f"list {other!r} distance depends on assigned variable {name!r}",
                        reason="list-promotion",
                    )
                commands.append(ast.Assign(ast.hat_name(other, ast.SHADOW), simplify(shadow)))
                shadow = ast.STAR
                changed = True
            if changed:
                env = env.set(other, entry.with_distances(aligned, shadow))
        return env, commands

    # -- (T-Laplace) -------------------------------------------------------------------------

    def _check_sample(self, cmd: ast.Sample, env: TypeEnv, pc: str) -> Tuple[ast.Command, TypeEnv]:
        if pc == PC_HIGH and not self.aligned_only:
            raise ShadowDPTypeError(
                "sampling requires pc = ⊥: the shadow execution must draw "
                "the same sample (rule T-Laplace)",
                reason="sample-under-high-pc",
            )
        typer = self._typer(env)

        # The scale is public data: distances ⟨0,0⟩.
        scale_aligned, scale_shadow = typer.distances(cmd.scale)
        if not (is_zero(scale_aligned) and is_zero(scale_shadow)):
            raise ShadowDPTypeError(
                f"sampling scale {pretty_expr(cmd.scale)} must have zero distance",
                reason="private-scale",
            )

        # Injectivity of the alignment η ↦ η + n_η (rule T-Laplace).
        self._check_injectivity(cmd, env)

        # Well-formedness: distances may not mention the resampled η.
        env, freeze = self._freeze_dependents(env, cmd.name, exclude=(cmd.name,))

        # Γ′ = λx.⟨S(⟨n°, n†⟩), n†⟩ — the selector rebuilds every aligned
        # distance from the aligned/shadow pair at the sampling point.
        selector = cmd.selector
        pure_aligned = not ast.selector_uses_shadow(selector)
        if not pure_aligned:
            self._check_starred_lists_alignable(env)
        new_env = env
        for name in env:
            if name == cmd.name:
                continue
            entry = env.get(name)
            if entry.kind != NUM:
                continue
            if entry.is_list:
                if pure_aligned:
                    continue
                if ast.is_star(entry.aligned) and ast.is_star(entry.shadow):
                    # Ψ guarantees the hat arrays coincide (checked above),
                    # so selecting either version leaves the type unchanged.
                    continue
                selected = simplify(selector.apply(entry.aligned, entry.shadow))
                new_env = new_env.set(name, entry.with_distances(selected, entry.shadow))
                continue
            aligned = env.aligned_expr(name)
            shadow = env.shadow_expr(name)
            selected = simplify(selector.apply(aligned, shadow))
            shadow_dist = entry.shadow
            new_env = new_env.set(name, entry.with_distances(selected, shadow_dist))

        new_env = new_env.set(
            cmd.name, VarEntry(NUM, simplify(cmd.align), ast.ZERO, random=True)
        )
        return ast.seq(*freeze, cmd), new_env

    def _check_injectivity(self, cmd: ast.Sample, env: TypeEnv) -> None:
        if self.lenient:
            return
        eta = ast.Var(cmd.name)
        eta1, eta2 = ast.Var(f"{cmd.name}%1"), ast.Var(f"{cmd.name}%2")
        if ast.substitute(cmd.align, {eta: eta1}) == cmd.align:
            # The alignment does not mention η, so η ↦ η + n is a
            # translation: injective without asking the solver.
            return
        aligned_sample = ast.BinOp("+", eta, cmd.align)
        lhs = ast.substitute(aligned_sample, {eta: eta1})
        rhs = ast.substitute(aligned_sample, {eta: eta2})
        goal = ast.BinOp(
            "||",
            ast.BinOp("!=", lhs, rhs),
            ast.BinOp("==", eta1, eta2),
        )
        if not self._provably(goal, env):
            raise ShadowDPTypeError(
                f"alignment {pretty_expr(cmd.align)} for {cmd.name!r} is not "
                f"injective (rule T-Laplace)",
                reason="injectivity",
            )

    def _check_starred_lists_alignable(self, env: TypeEnv) -> None:
        """When a selector can pick the shadow version, the hat arrays of
        starred lists must provably coincide (``Ψ ⇒ q̂°[k] = q̂†[k]``)."""
        for name in env:
            entry = env.get(name)
            if not (entry.is_list and entry.kind == NUM):
                continue
            if not (ast.is_star(entry.aligned) and ast.is_star(entry.shadow)):
                continue
            k = ast.Var("%k")
            goal = ast.BinOp(
                "==",
                ast.Index(ast.Hat(name, ast.ALIGNED), k),
                ast.Index(ast.Hat(name, ast.SHADOW), k),
            )
            premises = preconditions.instantiate(self.psi, [goal], extra_indices=[k])
            if not self.validity.is_valid(goal, premises, env.bool_vars()):
                raise ShadowDPTypeError(
                    f"shadow selector used but Ψ does not pin {name}^o = {name}^s",
                    reason="list-shadow-mismatch",
                )

    # -- (T-If): join at the CFG merge point -----------------------------------------------------

    def _update_pc(self, pc: str, env: TypeEnv, cond: ast.Expr) -> str:
        """``updPC``: ⊥ survives only if the shadow run provably takes the
        same branch."""
        if self.aligned_only:
            return PC_LOW
        if pc == PC_HIGH:
            return PC_HIGH
        shadow_cond = versioned_expr(cond, env, ast.SHADOW)
        if shadow_cond == simplify(cond):
            return PC_LOW
        goal = ast.BinOp("==", cond, shadow_cond)
        premises = self._premises(goal)
        if self.validity.is_valid(goal, premises, env.bool_vars()):
            return PC_LOW
        return PC_HIGH

    def on_branch(self, cfg: CFG, block: Block, term: Branch, join: int, state: _State) -> _State:
        cmds, env, pc = state
        pc_inner = self._update_pc(pc, env, term.cond)
        aligned_cond = versioned_expr(term.cond, env, ast.ALIGNED)

        env_then = env.map_distances(simplifier_under(term.cond, True))
        env_else = env.map_distances(simplifier_under(term.cond, False))
        then_checked, env1 = self._check_region(cfg, term.then, join, env_then, pc_inner)
        if term.orelse == join:
            else_checked, env2 = ast.Skip(), env_else
        else:
            else_checked, env2 = self._check_region(cfg, term.orelse, join, env_else, pc_inner)

        joined = env1.join(env2)
        fix_then = transition_commands(env1, joined, pc_inner)
        fix_else = transition_commands(env2, joined, pc_inner)

        assert_then = self._branch_assert(aligned_cond, term.cond, True)
        assert_else = self._branch_assert(ast.Not(aligned_cond), term.cond, False)

        if pc == PC_HIGH or pc_inner == PC_LOW or self.aligned_only:
            shadow_part: ast.Command = ast.Skip()
        else:
            then_src = region_to_ast(cfg, term.then, join)
            else_src = (
                ast.Skip() if term.orelse == join else region_to_ast(cfg, term.orelse, join)
            )
            shadow_part = shadow_command(ast.If(term.cond, then_src, else_src), joined)

        result = ast.seq(
            ast.If(
                term.cond,
                ast.seq(assert_then, then_checked, fix_then),
                ast.seq(assert_else, else_checked, fix_else),
            ),
            shadow_part,
        )
        return cmds + (result,), joined, pc

    @staticmethod
    def _branch_assert(aligned_cond: ast.Expr, cond: ast.Expr, truth: bool) -> ast.Command:
        expr = simplify_under(aligned_cond, cond, truth)
        if expr == ast.TRUE:
            return ast.Skip()
        return ast.Assert(expr)

    # -- (T-While): fixpoint over the loop's body sub-CFG ------------------------------------------------

    def on_loop(self, cfg: CFG, block: Block, term: LoopHeader, state: _State) -> _State:
        cmds, env, pc = state
        pc_inner = self._update_pc(pc, env, term.cond)
        body_cfg = term.body

        # Variables whose hat variables appear in the loop's sampling
        # annotations or invariants are promoted to * up front (with the
        # corresponding hat initialisation emitted before the loop, like
        # Fig. 11/12's `sum^o := 0`).  Otherwise the first fixpoint
        # iteration sees the annotation referencing a hat that does not
        # exist yet and spuriously promotes downstream variables — and
        # the join is monotone, so the damage would be permanent.
        env_entry = env
        env = self._pre_promote_annotation_hats(term, env)

        # Fixpoint construction of Section 4.3.1: iterate the body until
        # the joined environment stabilises (lattice height 2 ⇒ fast).
        loop_env = env
        in_body = simplifier_under(term.cond, True)
        was_lenient = self.lenient
        self.lenient = True
        try:
            for _ in range(_MAX_FIXPOINT_ITERATIONS):
                body_in = loop_env.map_distances(in_body)
                _, body_env = self._check_region(body_cfg, body_cfg.entry, None, body_in, pc_inner)
                joined = body_env.join(env)
                if joined == loop_env:
                    break
                loop_env = joined
            else:
                raise ShadowDPTypeError(
                    "loop distance fixpoint did not converge", reason="fixpoint"
                )
        finally:
            self.lenient = was_lenient
        # Strict pass over the stabilised environment: this is the run
        # whose solver checks count and whose output is emitted.
        body_in = loop_env.map_distances(in_body)
        body_checked, body_env = self._check_region(body_cfg, body_cfg.entry, None, body_in, pc_inner)

        entry_fix = transition_commands(env_entry, loop_env, pc_inner)
        body_fix = transition_commands(body_env, loop_env, pc_inner)
        guard_assert = ast.Assert(versioned_expr(term.cond, loop_env, ast.ALIGNED))

        if pc == PC_HIGH or pc_inner == PC_LOW or self.aligned_only:
            shadow_part: ast.Command = ast.Skip()
        else:
            from repro.ir.build import cfg_to_ast

            shadow_part = shadow_command(ast.While(term.cond, cfg_to_ast(body_cfg)), loop_env)

        result = ast.seq(
            entry_fix,
            ast.While(term.cond, ast.seq(guard_assert, body_checked, body_fix), term.invariants),
            shadow_part,
        )
        return cmds + (result,), loop_env, pc

    def _pre_promote_annotation_hats(self, term: LoopHeader, env: TypeEnv) -> TypeEnv:
        """Promote scalars whose hats are referenced by the loop's
        sampling annotations or invariants before the fixpoint starts."""
        referenced: set = set()
        exprs: List[ast.Expr] = list(term.invariants)
        for stmt in term.body.walk_statements():
            if statement_kind(stmt) == "sample":
                exprs.append(stmt.align)
                exprs.extend(selector_conditions(stmt.selector))
        for expr in exprs:
            for hat in ast.hat_vars(expr):
                referenced.add((hat.base, hat.version))
        for base, version in sorted(referenced):
            entry = env.get(base)
            if entry is None or entry.kind != NUM or entry.is_list:
                continue
            aligned, shadow = entry.aligned, entry.shadow
            if version == ast.ALIGNED and not ast.is_star(aligned):
                aligned = ast.STAR
            if version == ast.SHADOW and not ast.is_star(shadow):
                shadow = ast.STAR
            env = env.set(base, entry.with_distances(aligned, shadow))
        return env

    # -- (T-Return) -----------------------------------------------------------------------------------

    def _check_return(self, cmd: ast.Return, env: TypeEnv, pc: str) -> Tuple[ast.Command, TypeEnv]:
        if pc == PC_HIGH:
            raise ShadowDPTypeError("return inside a shadow-diverged branch", reason="return-under-high-pc")
        typer = self._typer(env)
        expr = cmd.expr
        if isinstance(expr, ast.Var) and (entry := env.get(expr.name)) and entry.is_list:
            # Returned lists: elements must be aligned at distance 0.
            if entry.kind == NUM and not (
                not ast.is_star(entry.aligned) and is_zero(entry.aligned)
            ):
                raise ShadowDPTypeError(
                    f"returned list {expr.name!r} has non-zero aligned element distance",
                    reason="return-distance",
                )
            return cmd, env
        if typer.is_boolean(expr):
            typer.check_boolean(expr)
            return cmd, env
        aligned, _shadow = typer.distances(expr)
        if not is_zero(aligned) and not self._provably(ast.BinOp("==", aligned, ast.ZERO), env):
            raise ShadowDPTypeError(
                f"returned expression {pretty_expr(expr)} has aligned distance "
                f"{pretty_expr(aligned)}, expected 0 (rule T-Return)",
                reason="return-distance",
            )
        return cmd, env


def check_function(
    function: ast.FunctionDef,
    lightdp_mode: bool = False,
    cache: Optional[QueryCache] = None,
    witness: bool = False,
    answers=None,
) -> CheckedProgram:
    """Type check ``function`` and produce its instrumented body.

    ``cache`` is the query cache the solver questions go through (a
    private one when None); ``witness`` certifies every valid answer and
    ``answers`` is a persistent answer source; see :class:`TypeChecker`.
    """
    return TypeChecker(
        function, lightdp_mode=lightdp_mode, cache=cache, witness=witness, answers=answers
    ).check()
