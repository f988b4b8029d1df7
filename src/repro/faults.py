"""Deterministic fault injection for chaos-testing the verifier.

A :class:`FaultPlan` is a comma-separated list of *directives*, each
naming a **site** (where in the system the fault fires) and a **key**
(which occurrence it fires on)::

    store-busy@2,store-poison@1,serve-drop@7

The plan is installed process-wide — via the ``REPRO_FAULTS``
environment variable, the ``--faults`` CLI flag, or :func:`install` —
and consulted at a handful of hook points.  When no plan is installed
:func:`active` returns ``None`` after one cached environment read, so
the disabled path costs a single attribute load.

Determinism contract
--------------------

Faults are keyed by *structure*, not by wall clock or scheduling:

- ``store-poison@N`` / ``store-busy@N`` / ``witness-corrupt@N`` fire on
  the Nth occurrence (1-based) of the corresponding store operation —
  deterministic wherever store traffic is serial, which it is (the
  store lock serialises every operation).
- ``serve-drop@K`` fires once, on the first connection that writes its
  Kth frame.

Every fired directive appends a typed :class:`InjectedFault` record to
``plan.trail`` so tests and operators can assert exactly which faults
were exercised.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from typing import List, Optional, Tuple, Union

FAULTS_ENV_VAR = "REPRO_FAULTS"

#: The fault sites, each keyed by a 1-based occurrence count.
SITES = ("store-poison", "store-busy", "serve-drop", "witness-corrupt")


class FaultPlanError(ValueError):
    """A fault-plan spec string failed to parse."""


@dataclass(frozen=True)
class InjectedFault:
    """One fault that actually fired, recorded in the plan trail."""

    site: str
    key: str

    def describe(self) -> str:
        return f"{self.site}@{self.key}"


@dataclass
class _Directive:
    site: str
    key: int  # occurrence count
    fired: int = 0


def _parse_directive(text: str) -> _Directive:
    if "@" not in text:
        raise FaultPlanError(
            f"fault directive {text!r} is missing '@KEY' (expected SITE@KEY)"
        )
    site, _, rest = text.partition("@")
    site = site.strip()
    if site not in SITES:
        raise FaultPlanError(
            f"unknown fault site {site!r} (expected one of: {', '.join(SITES)})"
        )
    key_text, sep, _ = rest.partition(":")
    if sep:
        raise FaultPlanError(f"fault site {site!r} does not take an argument")
    key_text = key_text.strip()
    if key_text == "*":
        raise FaultPlanError(
            f"fault site {site!r} is occurrence-counted and does not accept '*'"
        )
    try:
        key = int(key_text)
    except ValueError:
        raise FaultPlanError(
            f"fault key {key_text!r} in {text!r} is not an integer"
        ) from None
    if key < 1:
        raise FaultPlanError(f"fault key in {text!r} is out of range")
    return _Directive(site=site, key=key)


@dataclass
class FaultPlan:
    """A parsed fault plan plus the trail of faults that fired."""

    spec: str
    directives: List[_Directive] = field(default_factory=list)
    trail: List[InjectedFault] = field(default_factory=list)

    def __post_init__(self) -> None:
        self._lock = threading.Lock()
        self._occurrences = {site: 0 for site in SITES}
        if not self.directives:
            parts = [part.strip() for part in self.spec.split(",")]
            self.directives = [_parse_directive(part) for part in parts if part]
        if not self.directives:
            raise FaultPlanError("fault plan is empty")

    # -- occurrence-counted sites -----------------------------------------

    def _occurrence(self, site: str) -> bool:
        with self._lock:
            self._occurrences[site] += 1
            count = self._occurrences[site]
            for directive in self.directives:
                if directive.site == site and directive.key == count:
                    directive.fired += 1
                    self.trail.append(InjectedFault(site, str(count)))
                    return True
        return False

    def store_poison(self) -> bool:
        """True if this store write batch should poison its first row."""
        return self._occurrence("store-poison")

    def store_busy(self) -> bool:
        """True if this store operation attempt should raise 'database is locked'."""
        return self._occurrence("store-busy")

    def witness_corrupt(self) -> bool:
        """True if this witnessed store hit should hand back a mangled
        certificate (the validator must reject it and the hit must
        degrade to a counted re-solve)."""
        return self._occurrence("witness-corrupt")

    def drop_connection(self, frames: int) -> bool:
        """True if a connection that just produced its ``frames``-th frame
        should be dropped.  Fires at most once per directive, so client
        retries against the same server succeed."""
        with self._lock:
            for directive in self.directives:
                if directive.site == "serve-drop" and directive.key == frames and not directive.fired:
                    directive.fired += 1
                    self.trail.append(InjectedFault("serve-drop", str(frames)))
                    return True
        return False

    # -- reporting ---------------------------------------------------------

    def snapshot(self) -> List[Tuple[str, str]]:
        with self._lock:
            return [(f.site, f.key) for f in self.trail]


_LOCK = threading.Lock()
_PLAN: Optional[FaultPlan] = None
_INSTALLED = False


def install(spec: Union[str, FaultPlan, None]) -> Optional[FaultPlan]:
    """Install a process-wide fault plan (or clear it with ``None``)."""
    global _PLAN, _INSTALLED
    with _LOCK:
        if spec is None:
            _PLAN = None
        elif isinstance(spec, FaultPlan):
            _PLAN = spec
        else:
            _PLAN = FaultPlan(spec)
        _INSTALLED = True
        return _PLAN


def reset() -> None:
    """Forget any installed plan and return to lazy ``REPRO_FAULTS`` reads."""
    global _PLAN, _INSTALLED
    with _LOCK:
        _PLAN = None
        _INSTALLED = False


def active() -> Optional[FaultPlan]:
    """The installed plan, reading ``REPRO_FAULTS`` once on first call."""
    global _PLAN, _INSTALLED
    if _INSTALLED:
        return _PLAN
    with _LOCK:
        if not _INSTALLED:
            spec = os.environ.get(FAULTS_ENV_VAR, "").strip()
            _PLAN = FaultPlan(spec) if spec else None
            _INSTALLED = True
    return _PLAN
