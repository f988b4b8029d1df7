"""Delta-rationals: exact arithmetic with an infinitesimal.

A :class:`DeltaRat` represents ``a + b·δ`` where ``δ`` is a positive
infinitesimal.  Following Dutertre & de Moura ("A fast linear-arithmetic
solver for DPLL(T)", CAV 2006), strict bounds like ``x < c`` become weak
bounds ``x <= c - δ`` over delta-rationals, so the simplex core needs no
special cases for strictness.  When a model is extracted, a concrete
positive rational value for ``δ`` small enough to satisfy every strict
constraint is computed (see :func:`concretize`).

Values are **int-first**: both components of a :class:`DeltaRat` are an
``int`` when integral and a ``Fraction`` (denominator above 1) only
otherwise.  Most values the simplex meets are integers, and ``int``
arithmetic is an order of magnitude cheaper than ``Fraction``'s.  A sum,
difference or product with a ``Fraction`` operand can come out integral,
so the operators normalize their results (:func:`int_first`, inlined).
No ``/`` is ever taken between two ints, which would give a float:
quotients go through :func:`divide`.

The class is deliberately bare-metal — ``__slots__``, constructor-bypass
allocation in the arithmetic operators, field-by-field comparisons — as
delta-rational sums and scalings sit on the simplex pivot/update path,
the hottest loop of the whole solver.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Tuple, Union

Number = Union[int, Fraction]


def int_first(value: Number) -> Number:
    """``value`` in int-first form: an ``int`` when it is integral, a
    ``Fraction`` otherwise (any other rational type is converted)."""
    if value.__class__ is int:
        return value
    if value.__class__ is not Fraction:
        value = Fraction(value)
    return value.numerator if value.denominator == 1 else value


def divide(numerator: Number, denominator: Number) -> Number:
    """The exact, int-first quotient (never a float)."""
    if numerator.__class__ is int and denominator.__class__ is int:
        quotient, remainder = divmod(numerator, denominator)
        return quotient if remainder == 0 else Fraction(numerator, denominator)
    return int_first(numerator / denominator)


class DeltaRat:
    """The value ``real + delta * infinitesimal``, both parts int-first."""

    __slots__ = ("real", "delta")

    def __init__(self, real: Number, delta: Number = 0) -> None:
        self.real = int_first(real)
        self.delta = int_first(delta)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: Union["DeltaRat", Number]) -> "DeltaRat":
        if other.__class__ is not DeltaRat:
            other = _coerce(other)
        result = object.__new__(DeltaRat)
        real = self.real + other.real
        if real.__class__ is Fraction and real.denominator == 1:
            real = real.numerator
        delta = self.delta + other.delta
        if delta.__class__ is Fraction and delta.denominator == 1:
            delta = delta.numerator
        result.real = real
        result.delta = delta
        return result

    __radd__ = __add__

    def __neg__(self) -> "DeltaRat":
        result = object.__new__(DeltaRat)
        result.real = -self.real
        result.delta = -self.delta
        return result

    def __sub__(self, other: Union["DeltaRat", Number]) -> "DeltaRat":
        if other.__class__ is not DeltaRat:
            other = _coerce(other)
        result = object.__new__(DeltaRat)
        real = self.real - other.real
        if real.__class__ is Fraction and real.denominator == 1:
            real = real.numerator
        delta = self.delta - other.delta
        if delta.__class__ is Fraction and delta.denominator == 1:
            delta = delta.numerator
        result.real = real
        result.delta = delta
        return result

    def __rsub__(self, other: Number) -> "DeltaRat":
        return _coerce(other) + (-self)

    def scale(self, factor: Number) -> "DeltaRat":
        """``self · factor`` for an ``int`` or ``Fraction`` factor."""
        result = object.__new__(DeltaRat)
        real = self.real * factor
        if real.__class__ is Fraction and real.denominator == 1:
            real = real.numerator
        delta = self.delta * factor
        if delta.__class__ is Fraction and delta.denominator == 1:
            delta = delta.numerator
        result.real = real
        result.delta = delta
        return result

    def __mul__(self, factor: Number) -> "DeltaRat":
        return self.scale(factor)

    __rmul__ = __mul__

    def __truediv__(self, divisor: Number) -> "DeltaRat":
        result = object.__new__(DeltaRat)
        result.real = divide(self.real, divisor)
        result.delta = divide(self.delta, divisor)
        return result

    # -- ordering (lexicographic: δ is positive but smaller than any
    #    positive rational) -------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DeltaRat):
            return self.real == other.real and self.delta == other.delta
        if isinstance(other, (int, Fraction)):
            return self.delta == 0 and self.real == other
        return NotImplemented

    def __hash__(self) -> int:
        # A standard value hashes like the number it equals.
        if self.delta == 0:
            return hash(self.real)
        return hash((self.real, self.delta))

    def __lt__(self, other: Union["DeltaRat", Number]) -> bool:
        if other.__class__ is not DeltaRat:
            other = _coerce(other)
        if self.real != other.real:
            return self.real < other.real
        return self.delta < other.delta

    def __le__(self, other: Union["DeltaRat", Number]) -> bool:
        if other.__class__ is not DeltaRat:
            other = _coerce(other)
        if self.real != other.real:
            return self.real < other.real
        return self.delta <= other.delta

    def __gt__(self, other: Union["DeltaRat", Number]) -> bool:
        if other.__class__ is not DeltaRat:
            other = _coerce(other)
        if self.real != other.real:
            return self.real > other.real
        return self.delta > other.delta

    def __ge__(self, other: Union["DeltaRat", Number]) -> bool:
        if other.__class__ is not DeltaRat:
            other = _coerce(other)
        if self.real != other.real:
            return self.real > other.real
        return self.delta >= other.delta

    def __repr__(self) -> str:
        if self.delta == 0:
            return f"{self.real}"
        sign = "+" if self.delta > 0 else "-"
        return f"{self.real} {sign} {abs(self.delta)}d"

    # -- conversion ---------------------------------------------------------

    def at(self, delta_value: Fraction) -> Fraction:
        """The concrete rational once ``δ`` is fixed; a ``Fraction`` like
        ``delta_value``, even when integral."""
        return self.real + self.delta * delta_value


def _coerce(value: Union[DeltaRat, Number]) -> DeltaRat:
    if isinstance(value, DeltaRat):
        return value
    return DeltaRat(value)


ZERO_D = DeltaRat(0)


def concretize(values: Mapping[str, DeltaRat], strict_gaps: Iterable[Tuple[DeltaRat, DeltaRat]]) -> Tuple[Fraction, dict]:
    """Pick a concrete positive ``δ`` and evaluate a delta-rational model.

    ``strict_gaps`` is a sequence of ``(lo, hi)`` pairs with ``lo < hi`` in
    delta-rational order that must remain strictly ordered after ``δ`` is
    substituted.  The classic bound is used: for each pair with
    ``lo.real < hi.real`` and ``lo.delta > hi.delta``, δ must stay below
    ``(hi.real - lo.real) / (lo.delta - hi.delta)``.

    Returns ``(delta, {name: Fraction})``.
    """
    delta = Fraction(1)
    for lo, hi in strict_gaps:
        if lo >= hi:
            raise ValueError(f"strict gap is not ordered: {lo} >= {hi}")
        if lo.real < hi.real and lo.delta > hi.delta:
            limit = Fraction(hi.real - lo.real, lo.delta - hi.delta)
            # Stay strictly inside the open interval.
            delta = min(delta, limit / 2)
    if delta <= 0:
        raise ValueError("could not find a positive delta")
    model = {name: value.at(delta) for name, value in values.items()}
    return delta, model
