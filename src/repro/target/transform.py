"""The program transformation of paper Figure 5, as CFG passes.

The type checker (:mod:`repro.core.checker`) emits the instrumented
probabilistic program ``c′``: original commands plus asserts and hat
updates, with :class:`~repro.lang.ast.Sample` commands still in place.
This module performs the second stage, producing the *non-probabilistic*
program whose safety implies ε-differential privacy (Theorem 2).  It
runs three named rewrite passes over the program's
:class:`~repro.ir.ProgramIR` (built by the pipeline's ``lower_ir``
stage, or on demand):

* ``lower-samples`` — every sampling command ``η := Lap r, S, n``
  becomes

  .. code-block:: none

      havoc η;
      v_eps := S(⟨v_eps, 0⟩) + |n| / r;

  The selector applies to the pair ⟨aligned cost, shadow cost⟩: the
  aligned execution has accumulated ``v_eps`` so far, while the shadow
  execution re-uses the original noise and has spent nothing — so a
  selector that switches to the shadow execution *resets* the budget
  before paying ``|n| / r`` for aligning the fresh sample.

* ``init-cost`` — ``v_eps := 0`` is prepended to the entry block.

* ``budget-assert`` — ``assert(v_eps <= bound)`` lands immediately
  before the trailing ``return`` in the exit block (the paper's default
  bound is ``eps``; SmartSum declares ``costbound 2 * eps``).

Dead stores to hat variables are eliminated by the separate
:mod:`repro.target.optimize` pass so the output matches the paper's
figures, which omit distance updates nothing ever reads.  Pass
``optimize=False`` to obtain the raw lowering — the staged
:class:`repro.pipeline.Pipeline` exposes it as the ``optimize`` stage.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.checker import CheckedProgram
from repro.core.simplify import simplify
from repro.ir import ProgramIR, ast_to_cfg, cfg_to_ast, map_statements, statement_kind
from repro.ir.cfg import CFG, Block
from repro.ir.passes import PassManager
from repro.lang import ast

#: The distinguished privacy-cost variable of the target language.
COST_VAR = "v_eps"


@dataclass(frozen=True)
class TargetProgram:
    """A lowered, verifier-ready program.

    Attributes
    ----------
    function:
        The original source function (carries the precondition ``Ψ``
        that verification instantiates as premises).
    body:
        The non-probabilistic command: no ``Sample`` nodes remain, the
        privacy cost is tracked in ``v_eps`` and asserted against
        ``cost_bound`` before the final ``return``.
    cost_bound:
        The right-hand side of the final budget assertion.
    aligned_only:
        True when the program was checked in the LightDP (aligned-only)
        fragment — no shadow instrumentation exists in ``body``.
    ir:
        The program's CFG plus the trail of passes that produced it
        (``None`` for hand-built targets; rebuilt on demand).
    """

    function: ast.FunctionDef
    body: ast.Command
    cost_bound: ast.Expr
    aligned_only: bool
    ir: Optional[ProgramIR] = None

    @property
    def name(self) -> str:
        return self.function.name

    def program_ir(self) -> ProgramIR:
        """This program's IR, rebuilding the CFG when not cached."""
        if self.ir is not None:
            return self.ir
        return ProgramIR(self.function, ast_to_cfg(self.body))

    def optimized(self) -> "TargetProgram":
        """This program with dead hat stores eliminated."""
        from repro.target.optimize import dead_store_pass

        ir = self.program_ir()
        ir = ir.with_cfg(dead_store_pass(ir.cfg), "dse-hats")
        return TargetProgram(
            function=self.function,
            body=cfg_to_ast(ir.cfg),
            cost_bound=self.cost_bound,
            aligned_only=self.aligned_only,
            ir=ir,
        )


# ---------------------------------------------------------------------------
# Sample lowering
# ---------------------------------------------------------------------------


def sample_cost(sample: ast.Sample) -> ast.Expr:
    """The privacy-cost update expression for one sampling command.

    ``S(⟨v_eps, 0⟩) + |n| / r`` — simplification turns the paper's
    Fig. 1 update into exactly ``Ω ? eps : v_eps`` and SVT's into
    ``Ω ? v_eps + 2 * eps / (4 * N) : v_eps``.
    """
    selected = sample.selector.apply(ast.Var(COST_VAR), ast.ZERO)
    per_sample = ast.BinOp("/", ast.Abs(sample.align), sample.scale)
    return simplify(ast.BinOp("+", selected, per_sample))


def _lower_sample_stmt(stmt: ast.Command):
    if statement_kind(stmt) == "sample":
        return (ast.Havoc(stmt.name), ast.Assign(COST_VAR, sample_cost(stmt)))
    return stmt


def lower_samples(cfg: CFG) -> CFG:
    """The ``lower-samples`` pass: ``Sample`` → ``havoc`` + cost update."""
    return map_statements(cfg, _lower_sample_stmt)


# ---------------------------------------------------------------------------
# Cost-variable bracketing
# ---------------------------------------------------------------------------


def init_cost(cfg: CFG) -> CFG:
    """The ``init-cost`` pass: prepend ``v_eps := 0`` to the entry block."""
    out = cfg.copy()
    out.block(out.entry).stmts.insert(0, ast.Assign(COST_VAR, ast.ZERO))
    return out


def _budget_assert_pass(bound: ast.Expr):
    def run(cfg: CFG) -> CFG:
        out = cfg.copy()
        block: Block = out.block(out.exit_id())
        final = ast.Assert(ast.BinOp("<=", ast.Var(COST_VAR), bound))
        if block.stmts and statement_kind(block.stmts[-1]) == "return_":
            block.stmts.insert(len(block.stmts) - 1, final)
        else:
            block.stmts.append(final)
        return out

    return run


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def to_target(
    checked: CheckedProgram,
    optimize: bool = True,
    ir: Optional[ProgramIR] = None,
) -> TargetProgram:
    """Lower a type-checked program to the target language (Fig. 5).

    ``ir`` is the checked body's :class:`~repro.ir.ProgramIR` when the
    caller already built it (the pipeline's ``lower_ir`` stage); it is
    constructed on demand otherwise.
    """
    bound = simplify(checked.function.cost_bound)
    program_ir = ir if ir is not None else ProgramIR(checked.function, ast_to_cfg(checked.body))
    manager = PassManager(
        [
            ("lower-samples", lower_samples),
            ("init-cost", init_cost),
            ("budget-assert", _budget_assert_pass(bound)),
        ]
    )
    lowered = manager.run(program_ir)
    target = TargetProgram(
        function=checked.function,
        body=cfg_to_ast(lowered.cfg),
        cost_bound=bound,
        aligned_only=checked.aligned_only,
        ir=lowered,
    )
    if optimize:
        target = target.optimized()
    return target
