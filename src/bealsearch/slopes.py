"""Slopes of origin lines through candidate points, and their rationality.

A candidate (A, B, (A**X + B**Y)**(1/Z)) subtends a line through the origin
in each coordinate plane.  The two slopes involving the root are
(A**X + B**Y)**(1/Z) / B and ... / A; each is rational exactly when the
radicand (A**X + B**Y) / B**Z (resp. / A**Z) has perfect Z-th power
numerator and denominator, which for integers collapses to A**X + B**Y
being a perfect Z-th power.  A rational slope p/q meets its first
non-trivial lattice point at (q, p); an irrational slope meets none.

The tail of the module carries the common-factor decomposition
(A, B, C) = k * (a, b, c) and the generalized binomial partial sum that
re-derives the slopes from (a, b, k) when the term ratio is below 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .errors import Divergent
from .exact_arith import Radical, RadicalClass, iroot
from .intervals import DEFAULT_PRECISION_BITS, IntervalValue, enclose
from .triples import BealTriple


class SlopeSet(NamedTuple):
    """Slopes in the three planes; exact Fractions whenever rational."""

    m_cb: Fraction | Radical
    m_ca: Fraction | Radical
    m_ba: Fraction


class CommonFactorDecomposition(NamedTuple):
    k: int
    a: int
    b: int
    c: int


def _slope_radical(power_sum: int, base: int, Z: int) -> Radical:
    """The slope power_sum**(1/Z) / base, as the radical (power_sum / base**Z)**(1/Z)."""
    return Radical(1, Fraction(power_sum, base ** Z), Z)


def slope_set(triple: BealTriple) -> SlopeSet:
    """Exact slopes of the origin lines through the candidate point.

    On an equation-satisfying triple the two root-form slopes are rational
    and equal C/B and C/A exactly; m_ba is always the plain ratio B/A.  One
    integer root decides both: when A**X + B**Y = root**Z the slopes are
    root/B and root/A, and otherwise both are irrational Radicals.
    """
    s = triple.ax + triple.by
    root, exact = iroot(s, triple.Z)
    m_ba = Fraction(triple.B, triple.A)
    if exact:
        return SlopeSet(Fraction(root, triple.B), Fraction(root, triple.A), m_ba)
    return SlopeSet(_slope_radical(s, triple.B, triple.Z),
                    _slope_radical(s, triple.A, triple.Z), m_ba)


def slope_candidate(A: int, B: int, X: int, Y: int, Z: int) -> tuple[RadicalClass, RadicalClass]:
    """Classify the two root-form slopes for a candidate (A, B, X, Y, Z).

    Returns the classifications of (A**X + B**Y)**(1/Z) / B and
    (A**X + B**Y)**(1/Z) / A; rational results carry their exact values.
    """
    if A < 2 or B < 2:
        raise ValueError(f"bases must be >= 2, got A={A}, B={B}")
    if min(X, Y, Z) < 3:
        raise ValueError(f"exponents must be >= 3, got ({X}, {Y}, {Z})")
    s = A ** X + B ** Y
    return _slope_radical(s, B, Z).classification, _slope_radical(s, A, Z).classification


def smallest_lattice_point(m: Fraction) -> tuple[int, int]:
    """First non-trivial lattice point (x, y) on y = m*x for rational m > 0.

    With m = p/q in lowest terms that point is (q, p).
    """
    m = Fraction(m)
    if m.numerator <= 0:
        raise ValueError(f"slope must be > 0, got {m}")
    return m.denominator, m.numerator


def decompose_common_factor(triple: BealTriple) -> CommonFactorDecomposition:
    """Split (A, B, C) = k * (a, b, c) with k = gcd(A, B, C)."""
    k = triple.gcd_abc
    a, b, c = triple.A // k, triple.B // k, triple.C // k
    assert (a * k, b * k, c * k) == (triple.A, triple.B, triple.C)
    assert math.gcd(a, b, c) == 1
    return CommonFactorDecomposition(k=k, a=a, b=b, c=c)


def binomial_series_slope(a: int, b: int, k: int, X: int, Y: int, Z: int,
                          plane: str = "ca", terms: int = 80,
                          precision_bits: int = DEFAULT_PRECISION_BITS) -> IntervalValue:
    """Partial sum of the generalized binomial series for a slope.

    Evaluates prefactor * sum_{i=0}^{terms} binom(1/Z, i) * (bk)**(Y*i) / (ak)**(X*i)
    where the prefactor is (ak)**(X/Z - 1) in the CA plane and
    (ak)**(X/Z) / (bk) in the CB plane.  The binomial coefficients and the
    sum accumulate as exact rationals; the prefactor, enclosed to width
    2**-precision_bits when irrational, is applied once at the end.  Raises
    Divergent when (bk)**Y >= (ak)**X.
    """
    if min(a, b, k) < 1:
        raise ValueError(f"a, b, k must be >= 1, got ({a}, {b}, {k})")
    if terms < 0:
        raise ValueError(f"terms must be >= 0, got {terms}")
    if plane not in ("ca", "cb"):
        raise ValueError(f"plane must be 'ca' or 'cb', got {plane!r}")
    ak, bk = a * k, b * k
    if bk ** Y >= ak ** X:
        raise Divergent(f"({bk})^{Y} >= ({ak})^{X}: series ratio is not below 1")
    ratio = Fraction(bk ** Y, ak ** X)
    coefficient = Fraction(1)
    total = Fraction(1)
    power = Fraction(1)
    for i in range(1, terms + 1):
        coefficient *= (Fraction(1, Z) - (i - 1)) / i
        power *= ratio
        total += coefficient * power
    if plane == "ca":
        prefactor = enclose(Radical(1, Fraction(ak) ** (X - Z), Z), precision_bits)
    else:
        prefactor = enclose(Radical(1, Fraction(ak) ** X, Z), precision_bits) / bk
    return prefactor * total
