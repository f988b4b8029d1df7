"""A node's ``repr`` is its canonical text, kept once computed.

Obligation ids, store fingerprints and check-stage store keys digest
this text, so it must stay byte for byte what the ``dataclass`` repr
prints.  The reference below renders that format from the fields
directly, caching nothing.
"""

import dataclasses
import pickle

from repro.algorithms import all_specs
from repro.lang import ast
from repro.lang.parser import parse_function
from repro.pipeline import spec_config
from repro.verify.verifier import iter_obligations


def reference(value):
    """``repr`` as the ``dataclass``-generated ``__repr__`` prints it."""
    if isinstance(value, ast.Real):
        return f"Real({value.value})"
    if isinstance(value, ast.Node):
        parts = [
            f"{f.name}={reference(getattr(value, f.name))}"
            for f in dataclasses.fields(value)
            if f.repr
        ]
        return f"{type(value).__qualname__}({', '.join(parts)})"
    if isinstance(value, tuple):
        inner = ", ".join(reference(item) for item in value)
        return f"({inner},)" if len(value) == 1 else f"({inner})"
    return repr(value)


def nodes(value):
    """Every node reachable from ``value``, pre-order."""
    if isinstance(value, ast.Node):
        yield value
        for f in dataclasses.fields(value):
            yield from nodes(getattr(value, f.name))
    elif isinstance(value, tuple):
        for item in value:
            yield from nodes(item)


def registry_roots():
    for spec in all_specs():
        target = spec.target()
        yield spec.function()
        yield target.body
        for obligation in iter_obligations(target, spec_config(spec)):
            yield obligation.goal
            yield obligation.path


def test_cached_text_equals_reference_on_every_registry_node():
    seen = 0
    for root in registry_roots():
        for node in nodes(root):
            expected = reference(node)
            assert repr(node) == expected
            assert node._text == expected
            assert repr(node) is node._text
            seen += 1
    assert seen > 10_000


def _with_text(root):
    return {id(node) for node in nodes(root) if node._text is not None}


def test_text_is_kept_only_on_nodes_repr_was_called_on():
    function = parse_function(all_specs()[0].source)
    # Shared constants (``ast.TRUE``, default distances) may hold text
    # from earlier renderings; count only what these calls add.
    before = _with_text(function)
    body = function.body
    assert repr(body) == reference(body)
    assert _with_text(function) - before == {id(body)}
    # A parent's rendering reuses a child's text without storing more.
    leaf = next(node for node in nodes(function.precondition) if isinstance(node, ast.Var))
    assert repr(leaf) == reference(leaf)
    assert repr(function) == reference(function)
    assert _with_text(function) - before == {id(body), id(leaf), id(function)}


def test_text_is_never_pickled():
    function = parse_function(all_specs()[0].source)
    for node in nodes(function):
        repr(node)
    data = pickle.dumps(function)
    assert b"FunctionDef(name=" not in data
    copy = pickle.loads(data)
    assert copy == function
    assert all(node._text is None for node in nodes(copy))
    assert repr(copy) == repr(function)


def test_rebuilt_node_starts_without_text():
    node = ast.BinOp("+", ast.Var("x"), ast.Real(1))
    repr(node)
    rebuilt = dataclasses.replace(node, op="-")
    assert rebuilt._text is None
    assert repr(rebuilt) == "BinOp(op='-', left=Var(name='x'), right=Real(1))"
