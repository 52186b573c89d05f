"""Exact enclosures: decimal output and containment, against mpmath at 400 bits."""

import operator
from fractions import Fraction

import pytest
from hypothesis import assume, event, given, settings
from hypothesis import strategies as st
from mpmath import mp

from bealsearch.exact_arith import Radical
from bealsearch.intervals import IntervalValue, _decimal, decided_decimal, enclose


def exact(x) -> Fraction:
    """The exact value an mpmath mpf stores, with no rounding to 53 bits."""
    return int(mp.sign(x)) * Fraction(x.man) * Fraction(2) ** x.exp  # x.man is unsigned


def mp_value(x: Fraction | Radical):
    """x as an mpf at 400 bits."""
    with mp.workprec(400):
        if isinstance(x, Radical):
            q = x.radicand
            return x.sign * mp.root(mp.mpf(q.numerator) / q.denominator, x.degree)
        return mp.mpf(x.numerator) / x.denominator


def point(x: Fraction) -> IntervalValue:
    return IntervalValue(x, x)


@pytest.mark.parametrize("x, expected", [
    (Fraction(2, 3), "0.666666666666666666666666666667"),
    # a 31st digit of 5 rounds up, a 4 rounds down
    (Fraction(2 * 1234567890123456789012345678905 + 1, 2 * 10 ** 31),
     "0.123456789012345678901234567891"),
    (Fraction(1234567890123456789012345678904, 10 ** 31), "0.12345678901234567890123456789"),
    (Fraction(10 ** 31 - 1, 10 ** 31), "1.0"),  # the round-up carries through 30 nines
    # the 31st digit is a 5, but flooring to a binary fixed point first leaves a 4
    (Fraction(10 ** 31 - 5, 10 ** 31), "0.999999999999999999999999999999"),
    (Fraction(1, 10 ** 9), "0.000000001"),
    (Fraction(1, 10 ** 10), "1.0e-10"),
    (Fraction(99, 10 ** 12), "9.9e-11"),
    (Fraction(10 ** 29), "100000000000000000000000000000.0"),
    (Fraction(10 ** 30 - 1), "999999999999999999999999999999.0"),
    (Fraction(10 ** 30), "1.0e+30"),
    (Fraction(10 ** 31 - 1), "1.0e+31"),
    (Fraction(5, 10 ** 31), "5.0e-31"),
    (Fraction(-1, 3), "-0.333333333333333333333333333333"),
    (Fraction(-(10 ** 31 - 1), 10 ** 31), "-1.0"),
    (Fraction(-(10 ** 30)), "-1.0e+30"),
    (Fraction(0), "0.0"),
])
def test_decimal_fixed_cases(x, expected):
    assert point(x).decimal(30) == expected
    assert mp.nstr(mp_value(x), 30) == expected


@settings(deadline=None)
@given(st.fractions(min_value=1, max_value=10, max_denominator=10 ** 12),
       st.integers(-45, 45), st.booleans())
def test_decimal_matches_mpmath(mantissa, exponent, negative):
    x = mantissa * Fraction(10) ** exponent * (-1 if negative else 1)
    assert point(x).decimal(30) == mp.nstr(mp_value(x), 30)


@settings(deadline=None)
@given(st.fractions(max_denominator=10 ** 40), st.integers(1, 10 ** 20))
def test_decimal_of_an_unreduced_pair_is_that_of_its_value(x, k):
    expected = _decimal(x.numerator, x.denominator, 30)
    assert _decimal(x.numerator * k, x.denominator * k, 30) == expected
    assert point(x).decimal(30) == expected


# Points where the printed string can change: half a unit in the 30th digit,
# a power of two (a new binary exponent), and anywhere.
anchors = st.one_of(
    st.builds(lambda m, k: Fraction(2 * m + 1, 2) * Fraction(10) ** k,
              st.integers(10 ** 29, 10 ** 30 - 1), st.integers(-60, 30)),
    st.builds(lambda e: Fraction(2) ** e, st.integers(-200, 200)),
    st.fractions(min_value=Fraction(1, 10 ** 12), max_value=10 ** 12, max_denominator=10 ** 12),
)


@settings(deadline=None, max_examples=300)
@given(anchors, st.integers(-2 ** 20, 2 ** 20), st.integers(0, 2 ** 20), st.integers(90, 140),
       st.booleans(), st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=8))
def test_decimal_is_constant_where_its_ends_decide_it(anchor, offset, width, p, negative, steps):
    lo = anchor * (1 + Fraction(offset, 2 ** p))
    hi = lo * (1 + Fraction(width, 2 ** p))
    if negative:
        lo, hi = -hi, -lo
    text = decided_decimal(lo.numerator, lo.denominator, hi.numerator, hi.denominator, 30)
    ends = [_decimal(x.numerator, x.denominator, 30) for x in (lo, hi)]
    event("decided" if text is not None else "open")
    if text is None:
        return
    assert ends == [text, text]
    for step in steps:
        x = lo + (hi - lo) * Fraction(step, 2 ** 16)
        assert _decimal(x.numerator, x.denominator, 30) == text, (lo, hi, x)


def test_decided_decimal_needs_one_sign_one_binary_exponent_and_one_string():
    third = Fraction(1, 3)
    narrow = third, third + Fraction(1, 10 ** 40)
    assert decided_decimal(*_ends(*narrow), 30) == "0.333333333333333333333333333333"
    assert decided_decimal(*_ends(-narrow[1], -narrow[0]), 30) == "-0.333333333333333333333333333333"
    # the 31st digit rounds down at one end and up at the other
    half = 1 + Fraction(5, 10 ** 30)  # 1.00000000000000000000000000000|5
    ends = _ends(half - Fraction(1, 10 ** 33), half + Fraction(1, 10 ** 33))
    assert _decimal(*ends[:2], 30) == "1.0"
    assert _decimal(*ends[2:], 30) == "1.00000000000000000000000000001"
    assert decided_decimal(*ends, 30) is None
    # both ends print 1.0, but 1 starts a binary exponent
    below, above = 1 - Fraction(1, 10 ** 40), 1 + Fraction(1, 10 ** 40)
    assert _decimal(*_ends(below, below)[:2], 30) == _decimal(*_ends(above, above)[:2], 30)
    assert decided_decimal(*_ends(below, above), 30) is None
    # an end at or across 0
    assert decided_decimal(0, 1, 1, 10 ** 40, 30) is None
    assert decided_decimal(-1, 10 ** 40, 1, 10 ** 40, 30) is None


def _ends(lo: Fraction, hi: Fraction) -> tuple[int, int, int, int]:
    return lo.numerator, lo.denominator, hi.numerator, hi.denominator


radicals = st.builds(
    Radical, st.sampled_from([1, -1]),
    st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6, max_denominator=10 ** 6),
    st.integers(2, 9),
).filter(lambda r: r.classification.kind == "irrational")


@settings(deadline=None)
@given(radicals, radicals, st.integers(8, 300), st.integers(0, 5))
def test_enclosures_contain_mpmath_values(r1, r2, bits, n):
    a, b = enclose(r1, bits), enclose(r2, bits)
    assert a.width == b.width == Fraction(1, 2 ** bits)
    x, y = mp_value(r1), mp_value(r2)
    assert exact(x) in a and exact(y) in b
    ops = [operator.add, operator.sub, operator.mul]
    if 0 not in b:
        ops.append(operator.truediv)
    with mp.workprec(400):
        for op in ops:
            assert exact(op(x, y)) in op(a, b)
        assert exact(x ** n) in a ** n
