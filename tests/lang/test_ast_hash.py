"""The AST's cached structural hash.

Every ``lang.ast`` node computes its hash the first time it is hashed
and keeps it in its ``_hash`` slot.  The cached value must be the
structural hash that ``dataclass(frozen=True)`` defines, so set and dict
iteration orders, and with them every solver counter, stay the same.
Each subtree's hash must be computed once, however often the tree is
hashed.  And the cached value, which depends on the process's hash
seed, must never travel through pickle.
"""

import dataclasses
import os
import pickle
import subprocess
import sys

from repro.algorithms import all_specs, get
from repro.lang import ast
from repro.lang.parser import parse_expr


class _Hashed:
    """Stands for a value in a tuple whose hash is already known."""

    __slots__ = ("value",)

    def __init__(self, value):
        self.value = value

    def __hash__(self):
        return self.value


def reference_hash(value):
    """The hash ``dataclass(frozen=True)`` generates — the hash of the
    tuple of a node's fields — computed anew, with no cache."""
    if isinstance(value, ast.Node):
        value = tuple(getattr(value, f.name) for f in dataclasses.fields(value))
    if isinstance(value, tuple):
        return hash(tuple(_Hashed(reference_hash(item)) for item in value))
    return hash(value)


def nodes_of(value):
    """Every AST node reachable from ``value``, parents before children."""
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, tuple):
            stack.extend(item)
        elif isinstance(item, ast.Node):
            yield item
            stack.extend(getattr(item, f.name) for f in dataclasses.fields(item))


class CountingName(str):
    """A variable name that counts how often it is hashed."""

    calls = 0

    def __hash__(self):
        CountingName.calls += 1
        return str.__hash__(self)


def test_cached_hash_is_the_structural_hash():
    checked = 0
    for spec in all_specs():
        for program in (spec.function(), spec.target().function):
            for node in nodes_of(program):
                assert hash(node) == reference_hash(node), node
                checked += 1
    assert checked > 2000


def test_hashing_twice_computes_each_subtree_once():
    leaves = [ast.Var(CountingName(f"x{i}")) for i in range(100)]
    chain = leaves[0]
    for leaf in leaves[1:]:
        chain = ast.BinOp("+", chain, leaf)
    # The chain occurs twice, so an uncached hash would walk it twice.
    tree = ast.BinOp("*", chain, ast.Neg(chain))
    CountingName.calls = 0
    first = hash(tree)
    assert CountingName.calls == len(leaves)
    # Rehashing the tree, a subtree or a new node over it hashes no leaf.
    hash(tree), hash(chain), hash(ast.Abs(tree))
    assert CountingName.calls == len(leaves)
    assert hash(tree) == first == reference_hash(tree)


def test_pickle_carries_no_cached_hash():
    program = get("svt").function()
    hash(program)
    data = pickle.dumps(program)
    assert b"_hash" not in data
    clone = pickle.loads(data)
    assert clone == program
    assert hash(clone) == hash(program)


def _src_dir():
    return os.path.dirname(os.path.dirname(os.path.dirname(ast.__file__)))


_CHILD = """
import pickle, sys
from repro.algorithms import get
from repro.lang.parser import parse_expr
expr, program = pickle.loads(sys.stdin.buffer.read())
fresh_expr, fresh_program = parse_expr(sys.argv[1]), get("svt").function()
found = {fresh_expr: "expr", fresh_program: "program"}
print(found.get(expr), found.get(program), hash(fresh_expr))
"""


def test_unpickled_nodes_hash_under_the_receiving_hash_seed():
    """A process that unpickles a node hashes it under its own seed, so it
    finds an equal node it built itself — as a worker process that does
    not fork would have to."""
    text = "x + y * 2 > eps && q[i] == z^o"
    expr, program = parse_expr(text), get("svt").function()
    here = hash(expr)
    hash(program)
    seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=_src_dir())
    child = subprocess.run(
        [sys.executable, "-c", _CHILD, text],
        input=pickle.dumps((expr, program)),
        capture_output=True,
        env=env,
        check=True,
    )
    found_expr, found_program, there = child.stdout.decode().split()
    assert (found_expr, found_program) == ("expr", "program")
    # The seeds really differ: a carried hash would have missed.
    assert int(there) != here
