"""Hash-consing tables for the solver's term layer.

Every :class:`~repro.solver.formula.Formula` node and every
:class:`~repro.solver.linear.LinExpr` is *interned*: constructing a node
that is structurally equal to one built before returns the original
object.  Structural equality therefore collapses to pointer equality,
``hash()`` is a precomputed integer instead of a recursive tree walk,
and per-node caches (``atoms_of``, ``normalized()``…) are computed once
per distinct term no matter how many times it is rebuilt.

The tables are process-global and grow with the set of distinct terms
the process ever builds.  That is the point — the verification pipeline
re-creates the same premises thousands of times across obligations,
Houdini rounds and batch sweeps — but long-running embedders can call
:func:`clear` between independent workloads.

Thread-safety: the constructors publish through ``_TABLE.setdefault``
(atomic under the GIL), so concurrent builders of the same key — the
request threads of ``repro serve`` — always converge on one
canonical node; identity equality stays sound.  The ``hits``/``misses``
counters are deliberately unlocked (they feed the ``intern_hits``
profile field and may under-count slightly under contention).
"""

from __future__ import annotations

from typing import Dict, Tuple

#: key -> canonical node.  Keys embed the class, so one table serves all
#: node kinds without collisions.  Insert ONLY via ``setdefault`` (see
#: the thread-safety note above).
_TABLE: Dict[tuple, object] = {}

hits = 0
misses = 0


def counters() -> Tuple[int, int]:
    """``(hits, misses)`` since process start (or the last :func:`clear`)."""
    return hits, misses


def stats() -> Dict[str, int]:
    return {"entries": len(_TABLE), "hits": hits, "misses": misses}


def clear() -> None:
    """Drop all interned nodes and reset the counters.

    Only safe when no live formula is still compared against newly built
    ones by identity — i.e. between independent workloads.  Existing
    nodes keep working (their hashes are precomputed); they just stop
    being the canonical representatives.
    """
    global hits, misses
    _TABLE.clear()
    hits = 0
    misses = 0
