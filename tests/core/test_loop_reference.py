"""The type checker's loop rule against the one it replaced.

The replaced rule iterated a loop body with its distance side
conditions (cons heads, T-Laplace injectivity) switched off until the
environment converged, then checked the body once more, strictly, on
the converged environment.  The current rule records those conditions
during the iterations and asks the converged iteration's conditions,
handing them up to an enclosing fixpoint when there is one.  Both must
give the same instrumented bodies, environments, certificates, errors
and solves, on the registry, the examples, the annotation candidates of
the inference searches and programs failing inside loops.
"""

from pathlib import Path

import pytest

from repro.algorithms import all_specs, get
from repro.automation.inference import (
    _query_hat_terms,
    _replace_annotations,
    branch_conditions,
    candidate_alignments,
    candidate_selectors,
)
from repro.core.checker import _MAX_FIXPOINT_ITERATIONS, TypeChecker
from repro.core.errors import ShadowDPTypeError
from repro.core.instrumentation import PC_HIGH, PC_LOW, transition_commands
from repro.core.shadow import shadow_command, versioned_expr
from repro.core.simplify import simplifier_under
from repro.ir.build import cfg_to_ast
from repro.lang import ast
from repro.lang.parser import parse_function
from repro.solver.context import QueryCache

EXAMPLES = Path(__file__).resolve().parents[2] / "examples"


class ReferenceChecker(TypeChecker):
    """The type checker with the loop rule it had before: a strict pass
    over the body after the fixpoint."""

    def on_loop(self, cfg, block, term, state):
        cmds, env, pc = state
        pc_inner = self._update_pc(pc, env, term.cond)
        body_cfg = term.body
        env_entry = env
        env = self._pre_promote_annotation_hats(term, env)
        loop_env = env
        in_body = simplifier_under(term.cond, True)
        outer = self._deferred
        try:
            for _ in range(_MAX_FIXPOINT_ITERATIONS):
                # Lenient: the side conditions are recorded and dropped.
                self._deferred = []
                body_in = loop_env.map_distances(in_body)
                _, body_env = self._check_region(
                    body_cfg, body_cfg.entry, None, body_in, pc_inner
                )
                joined = body_env.join(env)
                if joined == loop_env:
                    break
                loop_env = joined
            else:
                raise ShadowDPTypeError(
                    "loop distance fixpoint did not converge", reason="fixpoint"
                )
        finally:
            self._deferred = outer
        # Strict pass, unless an enclosing fixpoint is still iterating.
        body_in = loop_env.map_distances(in_body)
        body_checked, body_env = self._check_region(
            body_cfg, body_cfg.entry, None, body_in, pc_inner
        )
        entry_fix = transition_commands(env_entry, loop_env, pc_inner)
        body_fix = transition_commands(body_env, loop_env, pc_inner)
        guard_assert = ast.Assert(versioned_expr(term.cond, loop_env, ast.ALIGNED))
        if pc == PC_HIGH or pc_inner == PC_LOW or self.aligned_only:
            shadow_part = ast.Skip()
        else:
            shadow_part = shadow_command(
                ast.While(term.cond, cfg_to_ast(body_cfg)), loop_env
            )
        result = ast.seq(
            entry_fix,
            ast.While(term.cond, ast.seq(guard_assert, body_checked, body_fix), term.invariants),
            shadow_part,
        )
        return cmds + (result,), loop_env, pc


_NESTED = """
function F(eps: num<0,0>, x: num<d,0>, d: num<0,0>, n: num<0,0>)
returns out: list num<0,->
precondition d >= 0;
{{
    i := 0;
    while (i < n) {{
        {outer}
        j := 0;
        while (j < n) {{
            {inner}
            j := j + 1;
        }}
        {after}
        i := i + 1;
    }}
    return out;
}}
"""

_CONS = "out := x :: out;"
_NOT_INJECTIVE = "eta := Lap(1 / eps), aligned, eta > 0 ? -2 * eta : 0;"
_INJECTIVE = "eta := Lap(1 / eps), aligned, eta;"

#: Programs failing (or asking the solver) inside loops, with the reason
#: the checker rejects them for; ``x`` has distance ``d``, which Ψ does
#: not pin to 0, so a cons of ``x`` is refuted by a solve.
LOOP_PROGRAMS = {
    "cons-in-loop": ("cons-distance", _NESTED.format(outer=_CONS, inner="", after="")),
    "injectivity-in-loop": (
        "injectivity", _NESTED.format(outer=_NOT_INJECTIVE, inner="", after="")
    ),
    "cons-in-nested-loop": ("cons-distance", _NESTED.format(outer="", inner=_CONS, after="")),
    "injectivity-in-nested-loop": (
        "injectivity", _NESTED.format(outer="", inner=_NOT_INJECTIVE, after="")
    ),
    "outer-cons-before-inner-injectivity": (
        "cons-distance", _NESTED.format(outer=_CONS, inner=_NOT_INJECTIVE, after="")
    ),
    "inner-injectivity-before-outer-cons": (
        "injectivity", _NESTED.format(outer="", inner=_NOT_INJECTIVE, after=_CONS)
    ),
    "cons-then-private-scale": (
        "private-scale",
        _NESTED.format(outer=_CONS + " eta := Lap(x), aligned, 0;", inner="", after=""),
    ),
    # y's distance is 0 on the first iteration and y^o once the loop
    # converges: only the converged iteration's condition fails.
    "cons-of-promoted-variable": (
        "cons-distance",
        """
function F(z: num<1,0>, n: num<0,0>) returns out: list num<0,->
{
    i := 0;
    y := 0;
    while (i < n) {
        out := y :: out;
        y := z;
        i := i + 1;
    }
    return out;
}
""",
    ),
    "nested-injective-alignment": (
        None, _NESTED.format(outer="", inner=_INJECTIVE + " out := 0 :: out;", after="")
    ),
    "nested-cons-proved": (
        None,
        _NESTED.format(outer="", inner=_CONS, after="").replace("d >= 0", "d == 0"),
    ),
}


def _candidates(name):
    """The registry program with every annotation the inference search
    tries for its last (in-loop) sample."""
    function = get(name).function()
    conditions = branch_conditions(function.body)
    alignments = candidate_alignments(conditions, _query_hat_terms(function))
    sample = [c for c in ast.command_iter(function.body) if isinstance(c, ast.Sample)][-1]
    for selector in candidate_selectors(conditions):
        for align in alignments:
            body = _replace_annotations(function.body, {sample.name: (selector, align)})
            yield ast.FunctionDef(
                name=function.name,
                params=function.params,
                ret_name=function.ret_name,
                ret_type=function.ret_type,
                precondition=function.precondition,
                body=body,
                cost_bound=function.cost_bound,
            )


def _corpus():
    for spec in all_specs():
        yield spec.name, spec.function()
    for path in sorted(EXAMPLES.glob("*.sdp")):
        yield path.name, parse_function(path.read_text())
    for name in ("noisy_max", "svt"):
        for index, function in enumerate(_candidates(name)):
            yield f"{name}-candidate-{index}", function
    for name, (_, source) in LOOP_PROGRAMS.items():
        yield name, parse_function(source)


def _outcome(cls, function, witness):
    """What checking ``function`` produces, and the queries it asked."""
    checker = cls(function, cache=QueryCache(), witness=witness)
    try:
        checked = checker.check()
    except ShadowDPTypeError as err:
        outcome = ("rejected", str(err), err.reason, err.solve_calls)
    else:
        outcome = (
            "checked",
            checked.body,
            checked.final_env,
            checked.solve_calls,
            [(oid, cert.to_json()) for oid, cert in checked.certificates.items()],
        )
    return outcome, checker.validity.queries


@pytest.mark.parametrize("witness", [False, True], ids=["plain", "witnessed"])
def test_loop_rule_matches_reference(witness):
    rejected = set()
    for name, function in _corpus():
        outcome, queries = _outcome(TypeChecker, function, witness)
        expected, reference_queries = _outcome(ReferenceChecker, function, witness)
        assert outcome == expected, name
        assert queries <= reference_queries, name
        if outcome[0] == "rejected":
            rejected.add((name, outcome[2]))
    for name, (reason, _) in LOOP_PROGRAMS.items():
        assert ((name, reason) in rejected) == (reason is not None), name
    assert any(reason == "injectivity" for name, reason in rejected if "candidate" in name)


def test_failing_side_conditions_are_solved():
    """The loop programs reach the solver: their verdicts are not
    decided by simplification alone."""
    for name in ("cons-in-nested-loop", "injectivity-in-nested-loop",
                 "nested-injective-alignment", "nested-cons-proved"):
        outcome, _ = _outcome(TypeChecker, parse_function(LOOP_PROGRAMS[name][1]), False)
        assert outcome[3] == 1, name


def test_noisy_max_asks_no_query_twice():
    function = get("noisy_max").function()
    _, queries = _outcome(TypeChecker, function, False)
    _, reference_queries = _outcome(ReferenceChecker, function, False)
    assert (queries, reference_queries) == (5, 7)
