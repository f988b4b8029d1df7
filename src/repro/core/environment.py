"""Flow-sensitive typing environments (paper Section 4.1).

An environment maps each live variable to its base kind and its pair of
distances ``⟨d°, d†⟩``.  Distances live in the two-level lattice of
Section 4.3.1: numeric expressions at the bottom, ``*`` (dynamically
tracked) on top, joined by :func:`join_distance`.

Star distances *resolve* to hat variables when an expression is needed:
a scalar ``x`` at ``*`` resolves to ``x̂°`` (``Hat(x, ALIGNED)``), and a
list element ``q[e]`` at ``*`` resolves to ``q̂°[e]`` — this implements
the Σ-type desugaring of Section 3.1.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterator, Optional

from repro.core.errors import ShadowDPTypeError
from repro.core.simplify import simplify
from repro.lang import ast

NUM = "num"
BOOL = "bool"


@dataclass(frozen=True)
class VarEntry:
    """Typing information for one variable.

    ``is_list`` marks list variables; for those the distances describe
    the *elements* (paper: ``list num⟨d°,d†⟩``; bool lists carry zeros).
    ``random`` marks sampling variables (``RVars``).
    """

    kind: str  # NUM or BOOL
    aligned: ast.Distance = ast.ZERO
    shadow: ast.Distance = ast.ZERO
    is_list: bool = False
    random: bool = False

    def __post_init__(self) -> None:
        if self.kind not in (NUM, BOOL):
            raise ValueError(f"bad kind {self.kind!r}")

    def with_distances(self, aligned: ast.Distance, shadow: ast.Distance) -> "VarEntry":
        return replace(self, aligned=aligned, shadow=shadow)


def _norm(d: ast.Distance) -> ast.Distance:
    if ast.is_star(d):
        return d
    return simplify(d)


def join_distance(d1: ast.Distance, d2: ast.Distance) -> ast.Distance:
    """The two-level lattice join: equal distances stay, others go to ``*``."""
    if ast.is_star(d1) or ast.is_star(d2):
        return ast.STAR
    if _norm(d1) == _norm(d2):
        return _norm(d1)
    return ast.STAR


def distance_leq(d1: ast.Distance, d2: ast.Distance) -> bool:
    """The lattice order ``d1 ⊑ d2``."""
    if ast.is_star(d2):
        return True
    if ast.is_star(d1):
        return False
    return _norm(d1) == _norm(d2)


class TypeEnv:
    """An immutable-by-convention mapping from variables to entries.

    Mutating operations return fresh environments, which keeps the
    branch/join logic in the checker straightforward.
    """

    def __init__(self, entries: Optional[Dict[str, VarEntry]] = None) -> None:
        self._entries: Dict[str, VarEntry] = dict(entries or {})

    # -- mapping interface ---------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def get(self, name: str) -> Optional[VarEntry]:
        return self._entries.get(name)

    def lookup(self, name: str) -> VarEntry:
        entry = self._entries.get(name)
        if entry is None:
            raise ShadowDPTypeError(f"variable {name!r} used before assignment", reason="unbound")
        return entry

    def set(self, name: str, entry: VarEntry) -> "TypeEnv":
        entries = dict(self._entries)
        entries[name] = VarEntry(
            entry.kind,
            _norm(entry.aligned),
            _norm(entry.shadow),
            entry.is_list,
            entry.random,
        )
        return TypeEnv(entries)

    def items(self):
        return sorted(self._entries.items())

    def bool_vars(self) -> frozenset:
        return frozenset(
            name for name, entry in self._entries.items() if entry.kind == BOOL and not entry.is_list
        )

    # -- distance resolution ---------------------------------------------------

    def aligned_expr(self, name: str) -> ast.Expr:
        """The resolved aligned distance of scalar variable ``name``."""
        entry = self.lookup(name)
        if entry.is_list:
            raise ShadowDPTypeError(f"list {name!r} has no scalar distance")
        if ast.is_star(entry.aligned):
            return ast.Hat(name, ast.ALIGNED)
        return entry.aligned

    def shadow_expr(self, name: str) -> ast.Expr:
        """The resolved shadow distance of scalar variable ``name``."""
        entry = self.lookup(name)
        if entry.is_list:
            raise ShadowDPTypeError(f"list {name!r} has no scalar distance")
        if ast.is_star(entry.shadow):
            return ast.Hat(name, ast.SHADOW)
        return entry.shadow

    def element_expr(self, name: str, index: ast.Expr, version: str) -> ast.Expr:
        """The resolved distance of the list element ``name[index]``."""
        entry = self.lookup(name)
        if not entry.is_list:
            raise ShadowDPTypeError(f"{name!r} is not a list")
        distance = entry.aligned if version == ast.ALIGNED else entry.shadow
        if ast.is_star(distance):
            return ast.Index(ast.Hat(name, version), index)
        return distance

    # -- lattice operations ------------------------------------------------------

    def join(self, other: "TypeEnv") -> "TypeEnv":
        """Pointwise join; variables live on only one side are kept as-is."""
        entries: Dict[str, VarEntry] = {}
        names = set(self._entries) | set(other._entries)
        for name in names:
            mine = self._entries.get(name)
            theirs = other._entries.get(name)
            if mine is None:
                entries[name] = theirs
            elif theirs is None:
                entries[name] = mine
            else:
                if mine.kind != theirs.kind or mine.is_list != theirs.is_list:
                    raise ShadowDPTypeError(
                        f"variable {name!r} has incompatible types across branches",
                        reason="branch-kind-mismatch",
                    )
                entries[name] = VarEntry(
                    mine.kind,
                    join_distance(mine.aligned, theirs.aligned),
                    join_distance(mine.shadow, theirs.shadow),
                    mine.is_list,
                    mine.random or theirs.random,
                )
        return TypeEnv(entries)

    def leq(self, other: "TypeEnv") -> bool:
        """The pointwise order ``self ⊑ other`` on shared variables."""
        for name, mine in self._entries.items():
            theirs = other._entries.get(name)
            if theirs is None:
                return False
            if not distance_leq(mine.aligned, theirs.aligned):
                return False
            if not distance_leq(mine.shadow, theirs.shadow):
                return False
        return True

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TypeEnv):
            return NotImplemented
        return self._entries == other._entries

    def __repr__(self) -> str:
        def show(d: ast.Distance) -> str:
            from repro.lang.pretty import pretty_expr

            return "*" if ast.is_star(d) else pretty_expr(d)

        parts = [
            f"{name}: <{show(e.aligned)},{show(e.shadow)}>" + ("[list]" if e.is_list else "")
            for name, e in self.items()
        ]
        return "{" + ", ".join(parts) + "}"

    # -- transformations ------------------------------------------------------------

    def map_distances(self, fn) -> "TypeEnv":
        """Apply ``fn(expr) -> expr`` to every non-star distance.

        An entry whose distances come back as the very same objects is
        kept, and so is the whole environment when no entry changed.
        """
        entries = {}
        changed = False
        for name, entry in self._entries.items():
            aligned = entry.aligned if ast.is_star(entry.aligned) else simplify(fn(entry.aligned))
            shadow = entry.shadow if ast.is_star(entry.shadow) else simplify(fn(entry.shadow))
            if aligned is not entry.aligned or shadow is not entry.shadow:
                entry = replace(entry, aligned=aligned, shadow=shadow)
                changed = True
            entries[name] = entry
        return TypeEnv(entries) if changed else self


def env_from_function(function: ast.FunctionDef) -> TypeEnv:
    """The initial environment from a function signature.

    Parameters enter with their declared distances.  A list-typed return
    variable is pre-seeded (it is consumed with ``::`` before any full
    definition); scalar return variables appear when first assigned.
    """
    env = TypeEnv()
    for param in function.params:
        env = env.set(param.name, _entry_from_type(param.type, param.name))
    if isinstance(function.ret_type, ast.ListType):
        env = env.set(function.ret_name, _entry_from_type(function.ret_type, function.ret_name))
    return env


def _entry_from_type(typ: ast.Type, name: str) -> VarEntry:
    if isinstance(typ, ast.NumType):
        return VarEntry(NUM, typ.aligned, typ.shadow)
    if isinstance(typ, ast.BoolType):
        return VarEntry(BOOL)
    if isinstance(typ, ast.ListType):
        elem = typ.elem
        if isinstance(elem, ast.NumType):
            return VarEntry(NUM, elem.aligned, elem.shadow, is_list=True)
        if isinstance(elem, ast.BoolType):
            return VarEntry(BOOL, is_list=True)
        raise ShadowDPTypeError(f"nested lists are not supported ({name!r})")
    raise ShadowDPTypeError(f"unknown type for {name!r}")
