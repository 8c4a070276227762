"""Exact rational time and frequency arithmetic.

The heterogeneous machine mixes clock domains whose cycle times are related
by small rational factors (the paper uses factors such as 0.95, 1.25 and
1.33 = 4/3).  Quantities that cross attempts — cycle times, frequencies,
the IT itself — are exact :class:`fractions.Fraction` values.

Inside one scheduling attempt every clock domain meets the IT exactly
(``II_X = IT * f_X`` is an integer), so every issue, finish and copy
instant falls on one grid: :func:`common_quantum` of the IT and the
running periods.  The scheduler, the pseudo-scheduler, the schedule's
timing methods and the simulator all count integer *ticks* of that
quantum (see :func:`repro.scheduler.schedule.clock_grid`), so there is no
floating-point epsilon anywhere in the core.

Conventions used throughout the package:

* time is measured in **nanoseconds**,
* frequency is measured in **GHz** (= 1/ns), so ``f = 1 / cycle_time``
  needs no unit conversion.
"""

from __future__ import annotations

import heapq
import math
from fractions import Fraction
from typing import Iterable, Iterator, List, Tuple, Union

#: Anything accepted where an exact rational is required.
Rational = Union[int, str, Fraction]

#: Type alias used in signatures for readability; values are in nanoseconds.
Time = Fraction

#: Type alias used in signatures for readability; values are in GHz.
Frequency = Fraction


def as_fraction(value: Union[Rational, float]) -> Fraction:
    """Convert ``value`` to an exact :class:`Fraction`.

    Integers, strings (``"4/3"``, ``"0.95"``) and Fractions convert
    exactly.  Floats are converted through their shortest ``repr`` so that
    decimal literals such as ``0.9`` become ``9/10`` rather than the
    nearest binary float; pass a string or Fraction for non-decimal values
    like one third.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):  # bool is an int subclass; reject explicitly
        raise TypeError("bool is not a rational quantity")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r} is not rational")
        return Fraction(repr(value))
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def frequency_of(cycle_time: Rational) -> Frequency:
    """Return the frequency (GHz) of a clock with the given period (ns)."""
    period = as_fraction(cycle_time)
    if period <= 0:
        raise ValueError(f"cycle time must be positive, got {period}")
    return Fraction(1) / period


def cycle_time_of(frequency: Rational) -> Time:
    """Return the period (ns) of a clock with the given frequency (GHz)."""
    freq = as_fraction(frequency)
    if freq <= 0:
        raise ValueError(f"frequency must be positive, got {freq}")
    return Fraction(1) / freq


def fraction_gcd(a: Fraction, b: Fraction) -> Fraction:
    """Greatest common divisor of two positive rationals.

    ``gcd(a/b, c/d) = gcd(a*d, c*b) / (b*d)``; the result is the largest
    rational that divides both arguments an integral number of times.
    """
    if a < 0 or b < 0:
        raise ValueError("fraction_gcd requires non-negative arguments")
    if a == 0:
        return b
    if b == 0:
        return a
    num = math.gcd(a.numerator * b.denominator, b.numerator * a.denominator)
    den = a.denominator * b.denominator
    return Fraction(num, den)


def common_quantum(values: Iterable[Fraction]) -> Fraction:
    """Return the coarsest time quantum dividing every value exactly.

    Used to derive a scheduling attempt's tick grid from its IT and
    clock-domain periods: every domain edge falls on a multiple of the
    quantum.
    """
    quantum = Fraction(0)
    for value in values:
        quantum = fraction_gcd(quantum, as_fraction(value))
    if quantum == 0:
        raise ValueError("common_quantum needs at least one non-zero value")
    return quantum


def is_integral(value: Fraction) -> bool:
    """True when ``value`` is an exact integer."""
    return value.denominator == 1


def ceil_div(value: Fraction, unit: Fraction) -> int:
    """Smallest integer ``k`` with ``k * unit >= value`` (units positive).

    Integer and Fraction inputs take a pure-integer path (``ceil(a/b) =
    -(-a // b)`` on cross-multiplied numerators) instead of constructing
    and normalising an intermediate :class:`Fraction` ratio.
    """
    if isinstance(value, (int, Fraction)) and isinstance(unit, (int, Fraction)):
        num = value.numerator * unit.denominator
        den = value.denominator * unit.numerator
        if den <= 0:
            raise ValueError("unit must be positive")
        return -((-num) // den)
    if unit <= 0:
        raise ValueError("unit must be positive")
    ratio = as_fraction(value) / unit
    return math.ceil(ratio)


def floor_div(value: Fraction, unit: Fraction) -> int:
    """Largest integer ``k`` with ``k * unit <= value`` (units positive).

    Same pure-integer fast path as :func:`ceil_div`.
    """
    if isinstance(value, (int, Fraction)) and isinstance(unit, (int, Fraction)):
        num = value.numerator * unit.denominator
        den = value.denominator * unit.numerator
        if den <= 0:
            raise ValueError("unit must be positive")
        return num // den
    if unit <= 0:
        raise ValueError("unit must be positive")
    ratio = as_fraction(value) / unit
    return math.floor(ratio)


def ascending_multiples(
    periods: Iterable[Fraction], start: Fraction, *, inclusive: bool = True
) -> Iterator[Fraction]:
    """Ascending distinct positive multiples of any of ``periods``.

    The stream begins at the first multiple ``>= start`` (``> start``
    when not ``inclusive``) and never ends; callers stop it.  Each period
    re-arms itself on the heap, so no divisibility test is needed.
    """
    heap: List[Tuple[Fraction, Fraction]] = []
    for period in set(periods):
        if inclusive:
            k = ceil_div(start, period)
        else:
            k = floor_div(start, period) + 1
        heap.append((max(k, 1) * period, period))
    heapq.heapify(heap)
    previous = None
    while heap:
        value, period = heap[0]
        heapq.heapreplace(heap, (value + period, period))
        if value != previous:
            previous = value
            yield value
