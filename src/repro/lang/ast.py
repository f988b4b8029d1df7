"""Abstract syntax for ShadowDP (paper Figure 3) and the target language.

All nodes are immutable (frozen dataclasses), hashable and comparable by
structure, which lets the type checker use syntactic equality of distance
expressions when joining typing environments, and lets tests compare
transformed programs against golden ASTs directly.

Every node hashes once.  Its hash is the structural one that
``dataclass`` generates (the hash of the tuple of its field values), but
it is computed the first time the node is hashed and then kept in the
node's ``_hash`` slot, so hashing a node costs one tuple hash over its
children's cached hashes, not a walk of its whole subtree.  The
simplifier's memo, ``normalize_query`` and the encoding memo hash the
same nodes many times over.  There is no intern table: equal nodes built
separately stay separate objects and compare by structure.  A string's
hash depends on the process's hash seed, so the cached value is never
pickled; unpickling rebuilds a node from its fields (see :func:`_node`).

A node's ``repr`` is its canonical text: byte for byte what the
``dataclass``-generated ``repr`` prints (``BinOp(op='+', left=Var(name=
'x'), right=Real(1))``).  Obligation ids, store fingerprints, the check
stage's store keys and ``normalize_query``'s premise order are all
digests or sorts of that text, so it must never change.  ``repr`` keeps
the text in the node's ``_text`` slot; rendering a node reuses the text
its children already hold but stores none on them, so only nodes that
``repr`` is actually called on (goals, path elements, premises,
assumptions) pay the memory.  Like the hash, the text is rebuilt from
the fields and never pickled.

Naming conventions used throughout the code base:

* ``aligned`` corresponds to the paper's ``°`` (circle) version — the
  execution on the adjacent database whose randomness has been aligned.
* ``shadow`` corresponds to the paper's ``†`` (dagger) version — the
  execution on the adjacent database that reuses the original noise.
* A *hat* variable ``Hat("x", ALIGNED)`` is the paper's ``x̂°`` — the
  dynamically tracked distance of ``x`` for the aligned execution; in the
  concrete syntax it is written ``x^o`` (and ``x^s`` for ``x̂†``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Tuple, Union

# ---------------------------------------------------------------------------
# Version tags
# ---------------------------------------------------------------------------

ALIGNED = "o"
SHADOW = "s"
VERSIONS = (ALIGNED, SHADOW)

# ---------------------------------------------------------------------------
# Nodes
# ---------------------------------------------------------------------------


class Node:
    """Base class of every AST node; holds the node's cached hash and text."""

    __slots__ = ("_hash", "_text")

    def _render(self) -> str:
        """The node's canonical text, computed without caching any."""
        raise NotImplementedError


_set_hash = Node._hash.__set__
_set_text = Node._text.__set__


def _field_text(value: object) -> str:
    """``repr(value)`` for a field value: a node's cached text when it
    has one, else its rendering, which stores nothing."""
    if isinstance(value, Node):
        text = value._text
        return value._render() if text is None else text
    if type(value) is tuple:
        if len(value) == 1:
            return f"({_field_text(value[0])},)"
        return f"({', '.join([_field_text(item) for item in value])})"
    return repr(value)


def _node(cls):
    """Make ``cls`` a frozen, slotted dataclass that hashes and prints once.

    The class keeps the ``__eq__`` that ``dataclass`` generates.  Its
    ``__hash__`` returns the ``dataclass`` one, computed on the first
    call and stored in the ``_hash`` slot.  Its ``__repr__`` returns the
    ``dataclass`` text (or the class's own ``__repr__``), computed on the
    first call and stored in the ``_text`` slot; ``__post_init__``
    clears both.  ``__reduce__`` pickles a node as its constructor call
    on its fields, so unpickling rebuilds the node and hashes it afresh
    under the receiving process's hash seed.
    """
    own_post_init = cls.__dict__.get("__post_init__")
    own_repr = cls.__dict__.get("__repr__")
    if own_post_init is None:

        def __post_init__(self) -> None:
            _set_hash(self, None)
            _set_text(self, None)

    else:

        def __post_init__(self) -> None:
            _set_hash(self, None)
            _set_text(self, None)
            own_post_init(self)

    cls.__post_init__ = __post_init__
    cls = dataclass(frozen=True, slots=True)(cls)
    structural = cls.__hash__
    names = tuple(f.name for f in fields(cls))
    shown = tuple(f.name for f in fields(cls) if f.repr)

    def _render(self) -> str:
        parts = [f"{name}={_field_text(getattr(self, name))}" for name in shown]
        return f"{type(self).__qualname__}({', '.join(parts)})"

    def __hash__(self) -> int:
        value = self._hash
        if value is None:
            value = structural(self)
            _set_hash(self, value)
        return value

    def __repr__(self) -> str:
        text = self._text
        if text is None:
            text = self._render()
            _set_text(self, text)
        return text

    def __reduce__(self):
        return cls, tuple([getattr(self, name) for name in names])

    cls._render = own_repr if own_repr is not None else _render
    cls.__hash__ = __hash__
    cls.__repr__ = __repr__
    cls.__reduce__ = __reduce__
    return cls


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------


class Expr(Node):
    """Base class for all expression nodes."""

    __slots__ = ()

    def children(self) -> Tuple["Expr", ...]:
        """Immediate sub-expressions, used by generic traversals."""
        return ()


@_node
class Real(Expr):
    """A rational literal.  All arithmetic in the pipeline is exact."""

    value: Fraction

    def __post_init__(self) -> None:
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))

    def __repr__(self) -> str:
        return f"Real({self.value})"


@_node
class BoolLit(Expr):
    """A boolean literal ``true`` or ``false``."""

    value: bool


@_node
class Var(Expr):
    """A normal or random program variable.

    The AST does not distinguish ``NVars`` from ``RVars`` (paper Fig. 3);
    the type checker tracks which names were bound by sampling commands.
    """

    name: str


@_node
class Hat(Expr):
    """A distance-tracking variable ``x̂°`` (version ``ALIGNED``) or ``x̂†``.

    These are invisible in source programs except inside preconditions and
    sampling annotations; the type system introduces them when a distance
    is promoted to ``*`` (paper Section 4.3.1).
    """

    base: str
    version: str

    def __post_init__(self) -> None:
        if self.version not in VERSIONS:
            raise ValueError(f"bad hat version {self.version!r}")


def hat_name(base: str, version: str) -> str:
    """The canonical memory/assignment name of a hat variable (``x^o``)."""
    return f"{base}^{version}"


@_node
class Neg(Expr):
    """Arithmetic negation ``-e``."""

    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


@_node
class Not(Expr):
    """Boolean negation ``!e``."""

    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


@_node
class Abs(Expr):
    """Absolute value ``abs(e)``.

    Not part of the source syntax of Fig. 3; it appears in target programs
    for the privacy-cost update ``v_eps := ... + |n_eta| / r`` (Fig. 5) and
    in the rewrite assertions of Section 6.2.2.
    """

    operand: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.operand,)


# Operator sets (paper Fig. 3: linear ops, other ops, comparators).
LINEAR_OPS = ("+", "-")
OTHER_OPS = ("*", "/")
COMPARATORS = ("<", "<=", ">", ">=", "==", "!=")
BOOL_OPS = ("&&", "||")
ALL_BINOPS = LINEAR_OPS + OTHER_OPS + COMPARATORS + BOOL_OPS


@_node
class BinOp(Expr):
    """A binary operation.  ``op`` is one of ``ALL_BINOPS``."""

    op: str
    left: Expr
    right: Expr

    def __post_init__(self) -> None:
        if self.op not in ALL_BINOPS:
            raise ValueError(f"bad binary operator {self.op!r}")

    def children(self) -> Tuple[Expr, ...]:
        return (self.left, self.right)


@_node
class Ternary(Expr):
    """The numeric/boolean choice ``cond ? then : orelse``."""

    cond: Expr
    then: Expr
    orelse: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.cond, self.then, self.orelse)


@_node
class Cons(Expr):
    """List extension ``head :: tail`` (paper ``e1 :: e2``)."""

    head: Expr
    tail: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.head, self.tail)


@_node
class Index(Expr):
    """List indexing ``base[index]``."""

    base: Expr
    index: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.base, self.index)


@_node
class ForAll(Expr):
    """A universally quantified formula ``forall x :: body``.

    Only allowed in function preconditions, where it expresses the
    adjacency relation over whole query lists (e.g. Fig. 1's
    ``forall i >= 0. -1 <= q̂°[i] <= 1``).
    """

    var: str
    body: Expr

    def children(self) -> Tuple[Expr, ...]:
        return (self.body,)


# ---------------------------------------------------------------------------
# Convenience literals
# ---------------------------------------------------------------------------

ZERO = Real(Fraction(0))
ONE = Real(Fraction(1))
TRUE = BoolLit(True)
FALSE = BoolLit(False)


# ---------------------------------------------------------------------------
# Distances and types
# ---------------------------------------------------------------------------


class Star:
    """The ``*`` distance: tracked dynamically through hat variables.

    A singleton — use the module-level ``STAR``.
    """

    _instance: Optional["Star"] = None

    def __new__(cls) -> "Star":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "STAR"


STAR = Star()

#: A distance is either a numeric expression or ``STAR`` (paper Fig. 3).
Distance = Union[Expr, Star]


def is_star(d: Distance) -> bool:
    """True when a distance is the dynamically-tracked ``*``."""
    return isinstance(d, Star)


class Type(Node):
    """Base class for ShadowDP types."""

    __slots__ = ()


@_node
class NumType(Type):
    """``num<d_aligned, d_shadow>`` — a real with two distances."""

    aligned: Distance = ZERO
    shadow: Distance = ZERO


@_node
class BoolType(Type):
    """``bool`` — always at distance ``<0,0>``."""


@_node
class ListType(Type):
    """``list t`` — a list whose elements all have type ``t``."""

    elem: Type


# ---------------------------------------------------------------------------
# Selectors (paper Fig. 3: S ::= e ? S1 : S2 | k)
# ---------------------------------------------------------------------------


class Selector(Node):
    """Base class for sampling-annotation selectors."""

    __slots__ = ()

    def apply(self, aligned: Expr, shadow: Expr) -> Expr:
        """The select function ``S(<e1, e2>)`` of Figure 4."""
        raise NotImplementedError


@_node
class SelectLeaf(Selector):
    """A constant selector: the aligned (``°``) or shadow (``†``) version."""

    version: str

    def __post_init__(self) -> None:
        if self.version not in VERSIONS:
            raise ValueError(f"bad selector version {self.version!r}")

    def apply(self, aligned: Expr, shadow: Expr) -> Expr:
        return aligned if self.version == ALIGNED else shadow


@_node
class SelectCond(Selector):
    """A conditional selector ``e ? S1 : S2``."""

    cond: Expr
    then: Selector
    orelse: Selector

    def apply(self, aligned: Expr, shadow: Expr) -> Expr:
        left = self.then.apply(aligned, shadow)
        right = self.orelse.apply(aligned, shadow)
        if left == right:
            return left
        return Ternary(self.cond, left, right)


SELECT_ALIGNED = SelectLeaf(ALIGNED)
SELECT_SHADOW = SelectLeaf(SHADOW)


def selector_uses_shadow(sel: Selector) -> bool:
    """True when any leaf of the selector picks the shadow execution.

    LightDP is exactly the restriction of ShadowDP where this is never the
    case (paper Section 7); ``repro.baselines.lightdp`` rejects programs
    whose selectors use the shadow execution.
    """
    if isinstance(sel, SelectLeaf):
        return sel.version == SHADOW
    if isinstance(sel, SelectCond):
        return selector_uses_shadow(sel.then) or selector_uses_shadow(sel.orelse)
    raise TypeError(f"not a selector: {sel!r}")


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


class Command(Node):
    """Base class for all command nodes."""

    __slots__ = ()


@_node
class Skip(Command):
    """The no-op command."""


@_node
class Assign(Command):
    """Assignment ``x := e`` to a normal variable."""

    name: str
    expr: Expr


@_node
class Sample(Command):
    """The sampling command ``eta := Lap(scale), selector, align``.

    ``selector`` and ``align`` are the programmer annotations of Section 3.1;
    they have no effect on the semantics and only guide the type system.
    """

    name: str
    scale: Expr
    selector: Selector
    align: Expr


@_node
class Seq(Command):
    """Sequential composition of zero or more commands."""

    commands: Tuple[Command, ...] = ()

    def __post_init__(self) -> None:
        # Flatten nested sequences so Seq((Seq((a,)), b)) == Seq((a, b)).
        flat: list[Command] = []
        for cmd in self.commands:
            if isinstance(cmd, Seq):
                flat.extend(cmd.commands)
            elif isinstance(cmd, Skip):
                continue
            else:
                flat.append(cmd)
        object.__setattr__(self, "commands", tuple(flat))


@_node
class If(Command):
    """Branching ``if (e) { c1 } else { c2 }``."""

    cond: Expr
    then: Command
    orelse: Command = field(default_factory=Skip)


@_node
class While(Command):
    """Looping ``while (e) { c }``.

    ``invariants`` carries optional programmer-supplied loop invariants
    used by the Hoare-mode verifier (the paper supplies these manually to
    CPAChecker when its own invariant inference fails, Section 6.2).
    """

    cond: Expr
    body: Command
    invariants: Tuple[Expr, ...] = ()


@_node
class Return(Command):
    """``return e`` — by convention the last command of a function."""

    expr: Expr


# Target-language extensions (paper Section 4.4 / Appendix E).


@_node
class Havoc(Command):
    """``havoc x`` — set ``x`` to an arbitrary real (target language only)."""

    name: str


@_node
class Assert(Command):
    """``assert(e)`` — proof obligation inserted by the type system."""

    expr: Expr


@_node
class Assume(Command):
    """``assume(e)`` — verifier-facing assumption (target language only)."""

    expr: Expr


# ---------------------------------------------------------------------------
# Functions
# ---------------------------------------------------------------------------


@_node
class Parameter(Node):
    """A typed function parameter."""

    name: str
    type: Type


@_node
class FunctionDef(Node):
    """A complete ShadowDP function.

    Attributes
    ----------
    name:
        Function name.
    params:
        Typed parameters; their types carry the adjacency distances.
    ret_name / ret_type:
        The declared return variable and its type (listed below the
        signature in the paper's figures).
    precondition:
        The global invariant ``Psi``: sensitivity assumptions over the hat
        variables of starred parameters.
    body:
        The function body (a command).
    cost_bound:
        The privacy budget the transformed program must respect, i.e. the
        right-hand side of the final ``assert(v_eps <= bound)``.  Defaults
        to the variable ``eps``; SmartSum uses ``2 * eps`` (Appendix C.3).
    """

    name: str
    params: Tuple[Parameter, ...]
    ret_name: str
    ret_type: Type
    precondition: Expr
    body: Command
    cost_bound: Expr = Var("eps")

    def param_names(self) -> Tuple[str, ...]:
        return tuple(p.name for p in self.params)

    def param(self, name: str) -> Parameter:
        for p in self.params:
            if p.name == name:
                return p
        raise KeyError(name)


# ---------------------------------------------------------------------------
# Generic traversals
# ---------------------------------------------------------------------------


def walk(expr: Expr) -> Iterator[Expr]:
    """Yield ``expr`` and every sub-expression, pre-order."""
    stack = [expr]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def free_vars(expr: Expr) -> frozenset:
    """The free ``Var`` names of an expression (bound quantifier vars excluded)."""
    names: set = set()
    bound: set = set()

    def go(e: Expr) -> None:
        if isinstance(e, Var):
            if e.name not in bound:
                names.add(e.name)
        elif isinstance(e, ForAll):
            already = e.var in bound
            bound.add(e.var)
            go(e.body)
            if not already:
                bound.discard(e.var)
        else:
            for child in e.children():
                go(child)

    go(expr)
    return frozenset(names)


def hat_vars(expr: Expr) -> frozenset:
    """All ``Hat`` nodes occurring in an expression."""
    return frozenset(node for node in walk(expr) if isinstance(node, Hat))


def substitute(expr: Expr, mapping: Mapping[Expr, Expr]) -> Expr:
    """Capture-avoiding simultaneous substitution of whole sub-expressions.

    ``mapping`` keys may be any expression nodes (typically ``Var`` or
    ``Hat``); every occurrence is replaced structurally.
    """
    if expr in mapping:
        return mapping[expr]
    if isinstance(expr, (Real, BoolLit, Var, Hat)):
        return expr
    if isinstance(expr, Neg):
        return Neg(substitute(expr.operand, mapping))
    if isinstance(expr, Not):
        return Not(substitute(expr.operand, mapping))
    if isinstance(expr, Abs):
        return Abs(substitute(expr.operand, mapping))
    if isinstance(expr, BinOp):
        return BinOp(expr.op, substitute(expr.left, mapping), substitute(expr.right, mapping))
    if isinstance(expr, Ternary):
        return Ternary(
            substitute(expr.cond, mapping),
            substitute(expr.then, mapping),
            substitute(expr.orelse, mapping),
        )
    if isinstance(expr, Cons):
        return Cons(substitute(expr.head, mapping), substitute(expr.tail, mapping))
    if isinstance(expr, Index):
        return Index(substitute(expr.base, mapping), substitute(expr.index, mapping))
    if isinstance(expr, ForAll):
        shadowed = {k: v for k, v in mapping.items() if not (isinstance(k, Var) and k.name == expr.var)}
        return ForAll(expr.var, substitute(expr.body, shadowed))
    raise TypeError(f"substitute: unknown expression node {expr!r}")


def substitute_selector(sel: Selector, mapping: Mapping[Expr, Expr]) -> Selector:
    """Apply :func:`substitute` inside selector conditions."""
    if isinstance(sel, SelectLeaf):
        return sel
    if isinstance(sel, SelectCond):
        return SelectCond(
            substitute(sel.cond, mapping),
            substitute_selector(sel.then, mapping),
            substitute_selector(sel.orelse, mapping),
        )
    raise TypeError(f"not a selector: {sel!r}")


def command_iter(cmd: Command) -> Iterator[Command]:
    """Yield ``cmd`` and every sub-command, pre-order."""
    stack = [cmd]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Seq):
            stack.extend(reversed(node.commands))
        elif isinstance(node, If):
            stack.append(node.orelse)
            stack.append(node.then)
        elif isinstance(node, While):
            stack.append(node.body)


def assigned_vars(cmd: Command) -> frozenset:
    """``Asgnd(c)``: names assigned (or sampled, or havocked) anywhere in ``cmd``."""
    names: set = set()
    for node in command_iter(cmd):
        if isinstance(node, Assign):
            names.add(node.name)
        elif isinstance(node, (Sample, Havoc)):
            names.add(node.name)
    return frozenset(names)


def seq(*commands: Command) -> Command:
    """Build a command from parts, collapsing ``Skip`` and nested ``Seq``."""
    node = Seq(tuple(commands))
    if not node.commands:
        return Skip()
    if len(node.commands) == 1:
        return node.commands[0]
    return node
