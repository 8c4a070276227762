"""Tests for exact rational time/frequency arithmetic."""

from fractions import Fraction

import pytest

from repro.units import (
    as_fraction,
    ceil_div,
    common_quantum,
    cycle_time_of,
    floor_div,
    fraction_gcd,
    frequency_of,
    is_integral,
)


class TestAsFraction:
    def test_int(self):
        assert as_fraction(3) == Fraction(3)

    def test_fraction_passthrough(self):
        value = Fraction(4, 3)
        assert as_fraction(value) is value

    def test_string_ratio(self):
        assert as_fraction("4/3") == Fraction(4, 3)

    def test_string_decimal(self):
        assert as_fraction("0.95") == Fraction(19, 20)

    def test_float_decimal_literal_is_exact(self):
        assert as_fraction(0.9) == Fraction(9, 10)

    def test_float_1_05(self):
        assert as_fraction(1.05) == Fraction(21, 20)

    def test_bool_rejected(self):
        with pytest.raises(TypeError):
            as_fraction(True)

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("nan"))

    def test_inf_rejected(self):
        with pytest.raises(ValueError):
            as_fraction(float("inf"))

    def test_other_type_rejected(self):
        with pytest.raises(TypeError):
            as_fraction([1])


class TestFrequencyConversion:
    def test_frequency_of_1ns(self):
        assert frequency_of(1) == Fraction(1)

    def test_frequency_of_two_thirds(self):
        assert frequency_of(Fraction(3, 2)) == Fraction(2, 3)

    def test_cycle_time_roundtrip(self):
        period = Fraction(9, 10)
        assert cycle_time_of(frequency_of(period)) == period

    def test_zero_cycle_time_rejected(self):
        with pytest.raises(ValueError):
            frequency_of(0)

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            cycle_time_of(-1)


class TestGcd:
    def test_gcd_integers(self):
        assert fraction_gcd(Fraction(6), Fraction(4)) == Fraction(2)

    def test_gcd_fractions(self):
        # gcd(1/2, 1/3) = 1/6
        assert fraction_gcd(Fraction(1, 2), Fraction(1, 3)) == Fraction(1, 6)

    def test_gcd_with_zero(self):
        assert fraction_gcd(Fraction(0), Fraction(5, 7)) == Fraction(5, 7)

    def test_gcd_negative_rejected(self):
        with pytest.raises(ValueError):
            fraction_gcd(Fraction(-1), Fraction(1))

class TestCommonQuantum:
    def test_divides_all(self):
        periods = [Fraction(1), Fraction(3, 2), Fraction(9, 10)]
        quantum = common_quantum(periods)
        assert all(is_integral(p / quantum) for p in periods)

    def test_single_value(self):
        assert common_quantum([Fraction(5, 7)]) == Fraction(5, 7)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            common_quantum([])


class TestIntegerDivision:
    def test_ceil_div_exact(self):
        assert ceil_div(Fraction(3), Fraction(1)) == 3

    def test_ceil_div_rounds_up(self):
        assert ceil_div(Fraction(10, 3), Fraction(1)) == 4

    def test_floor_div_rounds_down(self):
        assert floor_div(Fraction(10, 3), Fraction(1)) == 3

    def test_floor_div_fractional_unit(self):
        # 3.33 ns in units of 1.67 ns -> 2 slots (the Figure 4 example).
        assert floor_div(Fraction(10, 3), Fraction(5, 3)) == 2

    def test_bad_unit(self):
        with pytest.raises(ValueError):
            ceil_div(Fraction(1), Fraction(0))
        with pytest.raises(ValueError):
            floor_div(Fraction(1), Fraction(-1))


class TestIntegrality:
    def test_is_integral(self):
        assert is_integral(Fraction(4))
        assert not is_integral(Fraction(4, 3))
