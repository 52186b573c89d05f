"""Exact rational enclosures of irrational quantities.

Irrational quantities (radical roots, the scaling factor between a radical
pair and the exact root it reconstructs, the binomial-series prefactor) are
closed intervals with Fraction endpoints.  An irrational radical is enclosed
by one integer root; exact inputs are points.  +, -, *, / and integer powers
act on the endpoints exactly, so every interval is a true enclosure.
The decimal estimate is printed from an integer pair (n, d), so an endpoint
or a midpoint computed on integers needs no reduction to a Fraction.
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
        """The midpoint to digits significant digits, as _decimal prints it."""
        lo, hi = self.lo, self.hi
        return _decimal(lo.numerator * hi.denominator + hi.numerator * lo.denominator,
                        2 * lo.denominator * hi.denominator, digits)

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

    An interval is returned as it is; every other value is enclose_ints's
    enclosure, so an irrational Radical gets width 2**-bits and an exact
    value is a point.  Raises NoRealRoot for an even root of a negative
    quantity.
    """
    if isinstance(value, IntervalValue):
        return value
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


def _binary_exponent(n: int, d: int) -> int:
    """The e with 2**(e - 1) <= n/d < 2**e, for n, d > 0."""
    e = n.bit_length() - d.bit_length()
    return e + 1 if n << max(-e, 0) >= d << max(e, 0) else e


def decided_decimal(lo_num: int, lo_den: int, hi_num: int, hi_den: int, dps: int) -> str | None:
    """The _decimal string of every point of [lo_num/lo_den, hi_num/hi_den]
    (both dens > 0), or None when the two ends do not decide it.

    They decide it when they share a non-zero sign, a binary exponent and
    their string: within one sign and binary exponent every step of _decimal
    floors or rounds one fixed scaling of |x|, so the value it prints is
    monotone in x, and equal at both ends it is equal between them.
    """
    if (lo_num > 0) != (hi_num > 0) or lo_num == 0 or hi_num == 0:
        return None
    if _binary_exponent(abs(lo_num), lo_den) != _binary_exponent(abs(hi_num), hi_den):
        return None
    text = _decimal(lo_num, lo_den, dps)
    return text if _decimal(hi_num, hi_den, dps) == text else None


def _decimal(n: int, d: int, dps: int) -> str:
    """n/d (d > 0, the pair need not be reduced) to dps significant digits,
    formatted as mpmath's nstr(n/d, dps) so classify output keeps its bytes:
    |n/d| is floored to a binary, then a decimal, fixed point of at least
    dps + 3 digits; the next digit rounds half up; notation is fixed for
    decimal exponents strictly between min(-(dps // 3), -5) and dps;
    trailing zeros are stripped down to ".0".  Every step depends only on
    the value n/d.
    """
    if n == 0:
        return "0.0"
    sign = "-" if n < 0 else ""
    n = abs(n)
    e = _binary_exponent(n, d)
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
