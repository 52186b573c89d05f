"""Exact rational enclosures of irrational quantities.

Irrational quantities (radical roots, the scaling factor between a radical
pair and the exact root it reconstructs, the binomial-series prefactor) are
closed intervals with Fraction endpoints.  An irrational radical is enclosed
by one integer root; exact inputs are points.  +, -, *, / and integer powers
act on the endpoints exactly, so every interval is a true enclosure.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import NoRealRoot
from .exact_arith import NO_REAL_ROOT, Radical, iroot

DEFAULT_PRECISION_BITS = 256


class IntervalValue(NamedTuple):
    """A certified real enclosure [lo, hi] with Fraction endpoints."""

    lo: Fraction
    hi: Fraction

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo

    def distance_to(self, x) -> Fraction:
        """Upper bound on |true value - x| given the enclosure."""
        return max(abs(self.hi - x), abs(self.lo - x))

    def decimal(self, digits: int = 30) -> str:
        return _decimal(self.mid, digits)

    def __contains__(self, x) -> bool:
        return self.lo <= x <= self.hi

    def __add__(self, other) -> IntervalValue:
        other = _interval(other)
        return IntervalValue(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other) -> IntervalValue:
        other = _interval(other)
        return IntervalValue(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other) -> IntervalValue:
        other = _interval(other)
        products = [a * b for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return IntervalValue(min(products), max(products))

    __rmul__ = __mul__

    def __truediv__(self, other) -> IntervalValue:
        other = _interval(other)
        if 0 in other:
            raise ZeroDivisionError(f"divisor {other} encloses 0")
        return self * IntervalValue(1 / other.hi, 1 / other.lo)

    def __pow__(self, n: int) -> IntervalValue:
        """The tight enclosure of x**n for an integer n >= 0."""
        if n < 0:
            raise ValueError(f"interval power needs n >= 0, got {n}")
        a, b = self.lo ** n, self.hi ** n
        if n % 2 == 1 or self.lo >= 0:
            return IntervalValue(a, b)
        if self.hi <= 0:
            return IntervalValue(b, a)
        return IntervalValue(Fraction(0), max(a, b))


def _interval(x) -> IntervalValue:
    if isinstance(x, IntervalValue):
        return x
    x = Fraction(x)
    return IntervalValue(x, x)


def enclose(value, bits: int) -> IntervalValue:
    """Enclose an exact, radical or interval quantity.

    An irrational Radical becomes the enclosure of width 2**-bits that
    enclose_ints gives; every other value is enclosed exactly.  Raises
    NoRealRoot for an even root of a negative quantity.
    """
    if not isinstance(value, Radical):
        return _interval(value)
    exact = value.exact_value
    if exact is not None:
        return _interval(exact)
    lo, hi, den = enclose_ints(value, bits)
    return IntervalValue(Fraction(lo, den), Fraction(hi, den))


def enclose_ints(value, bits: int) -> tuple[int, int, int]:
    """Enclose an exact or radical quantity as integers (lo, hi, den).

    The value lies in [lo/den, hi/den] with den > 0.  An irrational Radical
    gives [r, r+1] over den = 2**bits, r the floor of its absolute value
    times 2**bits (negated for sign -1); an exact value p/q gives (p, p, q).
    Raises NoRealRoot for an even root of a negative quantity.
    """
    if isinstance(value, Radical):
        exact = value.exact_value
        if exact is None:
            if value.classification.kind == NO_REAL_ROOT:
                raise NoRealRoot(f"{value} has no real value")
            q = value.radicand
            r, _ = iroot((q.numerator << (bits * value.degree)) // q.denominator, value.degree)
            return (r, r + 1, 1 << bits) if value.sign == 1 else (-r - 1, -r, 1 << bits)
        value = exact
    value = Fraction(value)
    return value.numerator, value.numerator, value.denominator


_LOG2_10 = math.log(10, 2)


def _decimal(x: Fraction, dps: int) -> str:
    """x to dps significant digits, formatted as mpmath's nstr(x, dps) so
    classify output keeps its bytes: |x| is floored to a binary, then a
    decimal, fixed point of at least dps + 3 digits; the next digit rounds
    half up; notation is fixed for decimal exponents strictly between
    min(-(dps // 3), -5) and dps; trailing zeros are stripped down to ".0".
    """
    if x == 0:
        return "0.0"
    sign = "-" if x < 0 else ""
    n, d = abs(x.numerator), x.denominator
    # e is the binary exponent with 2**(e - 1) <= |x| < 2**e
    e = n.bit_length() - d.bit_length()
    if n << max(-e, 0) >= d << max(e, 0):
        e += 1
    fixprec = max(int((dps + 3) * _LOG2_10) + 10 - e, 0)
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    digits = str(((n << fixprec) // d) * 10 ** fixdps >> fixprec)
    exponent = len(digits) - fixdps - 1
    rounded = str(int(digits[:dps]) + (len(digits) > dps and digits[dps] >= "5"))
    if len(rounded) > dps:  # the carry ran through every digit
        exponent += 1
    digits = rounded[:dps]
    suffix = ""
    if min(-(dps // 3), -5) < exponent < dps:
        digits = "0" * -exponent + digits if exponent < 0 else digits.ljust(exponent + 1, "0")
        split = max(exponent, 0) + 1
    else:
        split, suffix = 1, f"e{exponent:+d}"
    digits = (digits[:split] + "." + digits[split:]).rstrip("0")
    return sign + (digits + "0" if digits.endswith(".") else digits) + suffix
