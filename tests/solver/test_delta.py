"""Unit tests for delta-rational arithmetic."""

from fractions import Fraction

import pytest

from repro.solver.delta import DeltaRat, concretize


class TestOrdering:
    def test_delta_is_positive(self):
        assert DeltaRat(0, 1) > DeltaRat(0)

    def test_delta_smaller_than_any_positive_rational(self):
        assert DeltaRat(0, 1000) < DeltaRat(Fraction(1, 10**9))

    def test_lexicographic(self):
        assert DeltaRat(1, -5) > DeltaRat(0, 100)

    def test_comparison_with_plain_numbers(self):
        assert DeltaRat(2, -1) < 2
        assert DeltaRat(2, 1) > 2
        assert DeltaRat(2) <= 2
        assert DeltaRat(2) >= 2


class TestArithmetic:
    def test_add(self):
        assert DeltaRat(1, 2) + DeltaRat(3, -1) == DeltaRat(4, 1)

    def test_add_number(self):
        assert DeltaRat(1, 2) + 3 == DeltaRat(4, 2)

    def test_sub(self):
        assert DeltaRat(1, 2) - DeltaRat(3, -1) == DeltaRat(-2, 3)

    def test_rsub(self):
        assert 5 - DeltaRat(1, 2) == DeltaRat(4, -2)

    def test_scale(self):
        assert DeltaRat(1, 2).scale(Fraction(-1, 2)) == DeltaRat(Fraction(-1, 2), -1)

    def test_division(self):
        assert DeltaRat(4, 2) / 2 == DeltaRat(2, 1)

    def test_neg(self):
        assert -DeltaRat(1, -2) == DeltaRat(-1, 2)

    def test_at_substitutes_delta(self):
        assert DeltaRat(1, 3).at(Fraction(1, 6)) == Fraction(3, 2)


class TestConcretize:
    def test_simple_gap(self):
        # x = 0 + δ must stay strictly above 0 and strictly below 1.
        values = {"x": DeltaRat(0, 1)}
        gaps = [(DeltaRat(0), DeltaRat(0, 1)), (DeltaRat(0, 1), DeltaRat(1))]
        delta, model = concretize(values, gaps)
        assert 0 < model["x"] < 1

    def test_tight_gap_shrinks_delta(self):
        lo = DeltaRat(0, 5)
        hi = DeltaRat(Fraction(1, 1000))
        delta, _ = concretize({}, [(lo, hi)])
        assert lo.at(delta) < hi.at(delta)

    def test_unordered_gap_rejected(self):
        with pytest.raises(ValueError):
            concretize({}, [(DeltaRat(1), DeltaRat(0))])

    def test_integral_gaps_give_a_fraction_delta(self):
        # Int components: the limit is a quotient of two ints, never a float.
        values = {"x": DeltaRat(0, 1)}
        delta, model = concretize(values, [(DeltaRat(0, 3), DeltaRat(1))])
        assert type(delta) is Fraction and delta == Fraction(1, 6)
        assert type(model["x"]) is Fraction


class TestIntFirst:
    def test_components_are_ints_when_integral(self):
        value = DeltaRat(Fraction(4, 2), Fraction(-3, 1))
        assert type(value.real) is int and type(value.delta) is int
        half = DeltaRat(Fraction(1, 2))
        assert type(half.real) is Fraction
        total = half + half
        assert type(total.real) is int and total == 1
        assert type(DeltaRat(3, 1).scale(Fraction(2, 3)).real) is int

    def test_division_of_ints_is_exact(self):
        quotient = DeltaRat(3, 2) / 2
        assert quotient == DeltaRat(Fraction(3, 2), 1)
        assert type(quotient.real) is Fraction and type(quotient.delta) is int


class TestHash:
    def test_equal_values_hash_equal(self):
        for number in (0, 2, -7, Fraction(3, 4), Fraction(-5, 2)):
            for value in (DeltaRat(number), DeltaRat(Fraction(number))):
                assert value == number and value == Fraction(number)
                assert hash(value) == hash(number) == hash(Fraction(number))
        assert len({DeltaRat(2), 2, Fraction(2)}) == 1

    def test_infinitesimal_part_separates(self):
        assert DeltaRat(2, 1) != 2
        assert len({DeltaRat(2, 1), DeltaRat(2, -1), DeltaRat(2)}) == 3
