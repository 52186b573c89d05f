"""Two-parameter reparameterization of a power difference.

On a triple with A**X = C**Z - B**Y, the root A can be rewritten as
(C+B)*alpha - C*B*beta.  Fixing either parameter determines the other
exactly; the canonical choice pairs
    alpha = (C**(Z-X) - B**(Y-X))**(1/X)
    beta  = (C**(Z-2X) - B**(Y-2X))**(1/X)
and needs one scaling factor M to reconcile both at once:
    C**Z - B**Y = [(C+B)*M*alpha - C*B*M*beta]**X.
The CA plane swaps the roles of the bases, parameterizing B**Y from
(A, C) with degree Y.

scalar_m encloses an irrational M to a relative width on integers, in
rounds of growing precision.  classify prints only M's 30-digit decimal,
which scalar_estimate takes from one cheap 112-bit round whenever the ends
of that round decide it, and from scalar_m otherwise.

Rationality of the canonical pair is the interesting output: on a genuine
solution triple, a rational canonical alpha or beta goes hand in hand with
gcd(A,B,C) > 1, and that linkage is asserted by the test suite over every
search hit rather than assumed.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import NamedTuple

from .errors import DegenerateBeta, ZeroDenominator
from .exact_arith import Radical
from .intervals import (DEFAULT_PRECISION_BITS, IntervalValue, decided_decimal, enclose,
                        enclose_ints)
from .triples import BealTriple


class Plane(enum.Enum):
    CB = "cb"
    CA = "ca"


class ReparamPair(NamedTuple):
    """Canonical (alpha, beta) radicals for one plane."""

    alpha: Radical
    beta: Radical
    plane: Plane


def _plane_params(triple: BealTriple, plane: Plane) -> tuple[int, int, int, int]:
    """(first_base, second_base, degree, co_exponent) feeding the formulas."""
    if plane is Plane.CB:
        return triple.B, triple.C, triple.X, triple.Y
    return triple.A, triple.C, triple.Y, triple.X


def canonical_alpha_beta(triple: BealTriple, plane: Plane = Plane.CB) -> ReparamPair:
    """Build the canonical radical pair for the chosen plane.

    For plane CB: alpha**X = C**(Z-X) - B**(Y-X) and
    beta**X = C**(Z-2X) - B**(Y-2X), each kept as a signed exact rational
    radicand and classified lazily.  Plane CA swaps in (A, C, Y).
    """
    base, c, degree, co = _plane_params(triple, plane)
    z = triple.Z
    alpha = Radical.of(_power_difference(c, z - degree, base, co - degree), degree)
    beta = Radical.of(_power_difference(c, z - 2 * degree, base, co - 2 * degree), degree)
    return ReparamPair(alpha=alpha, beta=beta, plane=plane)


def _power_difference(c: int, e1: int, b: int, e2: int) -> Fraction:
    """c**e1 - b**e2 for exponents of either sign, built from integer powers."""
    n1, d1 = (c ** e1, 1) if e1 >= 0 else (1, c ** -e1)
    n2, d2 = (b ** e2, 1) if e2 >= 0 else (1, b ** -e2)
    return Fraction(n1 * d2 - n2 * d1, d1 * d2)


def solve_beta_given_alpha(B: int, C: int, rootA: Fraction, alpha: Fraction) -> Fraction:
    """Derive beta from a chosen alpha so (C+B)*alpha - C*B*beta = rootA.

    rootA is the caller-certified exact value of (C**Z - B**Y)**(1/X); on a
    solution triple that is just A.  Raises DegenerateBeta when the derived
    value is 0, which callers report rather than silently accept.
    """
    beta = (Fraction(rootA) - (C + B) * Fraction(alpha)) / (-C * B)
    if beta == 0:
        raise DegenerateBeta(beta)
    return beta


def solve_alpha_given_beta(B: int, C: int, rootA: Fraction, beta: Fraction) -> Fraction:
    """Derive alpha from a chosen beta so (C+B)*alpha - C*B*beta = rootA."""
    return (Fraction(rootA) + C * B * Fraction(beta)) / (C + B)


def _exact_operand(value) -> Fraction | None:
    """Exact rational content of an operand, or None if it is irrational."""
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    if isinstance(value, Radical):
        return value.exact_value
    return None


_MAX_ESCALATIONS = 5
# The precision of scalar_estimate's one round: 30 digits need about 100 bits.
_ESTIMATE_BITS = 112


def scalar_m(triple: BealTriple, pair: ReparamPair,
             precision_bits: int = DEFAULT_PRECISION_BITS) -> Fraction | IntervalValue:
    """The unique scaling factor M = root / ((C+B)*alpha - C*B*beta).

    root is the degree-th root of the plane's power difference (exactly A for
    plane CB on a solution triple, B for plane CA).  Returns an exact
    Fraction when the pair and the root are all rational; otherwise an
    interval whose width is at most 2**(1 - precision_bits) times its
    midpoint, with the endpoints _scalar_ends computes on integers.  Raises
    ZeroDenominator when the denominator still encloses 0 at the narrowest
    width _scalar_ends tries.
    """
    m = _scalar_ends(triple, pair, precision_bits, _MAX_ESCALATIONS)
    if isinstance(m, Fraction):
        return m
    lo_num, lo_den, hi_num, hi_den = m
    return IntervalValue(Fraction(lo_num, lo_den), Fraction(hi_num, hi_den))


def scalar_estimate(triple: BealTriple, pair: ReparamPair) -> Fraction | str:
    """M exactly, or the 30-digit decimal that scalar_m(triple, pair).decimal(30) prints.

    One round at _ESTIMATE_BITS decides the string when its two ends print
    it alike (intervals.decided_decimal).  That is enough: an enclosure at
    more bits lies inside one at fewer, since floor roots nest and the ends
    of M are the exact range of the formula over the enclosing box; so the
    default-precision midpoint lies between the two ends.  When the round
    encloses 0, misses the relative bound or leaves the string open, the
    result is scalar_m's at DEFAULT_PRECISION_BITS.  Raises as scalar_m.
    """
    try:
        m = _scalar_ends(triple, pair, _ESTIMATE_BITS, 1)
    except (ZeroDenominator, RuntimeError):  # scalar_m decides, or raises the same
        m = None
    if isinstance(m, Fraction):
        return m
    text = None if m is None else decided_decimal(*m, 30)
    return text if text is not None else scalar_m(triple, pair).decimal(30)


def _scalar_ends(triple: BealTriple, pair: ReparamPair, precision_bits: int,
                 rounds: int) -> Fraction | tuple[int, int, int, int]:
    """M as an exact Fraction, or the integer ends (lo_num, lo_den, hi_num,
    hi_den) of an enclosure [lo_num/lo_den, hi_num/hi_den], both dens > 0,
    whose width is at most 2**(1 - precision_bits) times its midpoint.

    Each round encloses root, alpha and beta as integers over a denominator
    (enclose_ints), the radicals to width 2**-bits with bits =
    precision_bits + the bit length of C*B (the plane's two bases), since
    the denominator multiplies their widths by C+B and C*B.  The
    denominator, the quotient's ends and the relative bound are all
    computed on integers.  There are at most rounds rounds, each at twice
    the bits of the one before, until the bound holds.  Raises
    ZeroDenominator when the denominator still encloses 0 in the last round,
    RuntimeError when the bound still fails there.
    """
    base, c, degree, co = _plane_params(triple, pair.plane)
    root = Radical.of(c ** triple.Z - base ** co, degree)
    s, prod = c + base, c * base

    exact_root = root.exact_value
    exact_alpha = _exact_operand(pair.alpha)
    exact_beta = _exact_operand(pair.beta)
    if exact_alpha is not None and exact_beta is not None:
        denominator = s * exact_alpha - prod * exact_beta
        if denominator == 0:
            raise ZeroDenominator("exact denominator (C+B)*alpha - C*B*beta is 0")
        if exact_root is not None:
            return exact_root / denominator

    first = precision_bits + prod.bit_length()
    zero_enclosed = False
    for bits in (first << k for k in range(rounds)):
        num_lo, num_hi, num_den = enclose_ints(root, bits)
        a_lo, a_hi, a_den = enclose_ints(pair.alpha, bits)
        b_lo, b_hi, b_den = enclose_ints(pair.beta, bits)
        # (C+B)*alpha - C*B*beta lies in [den_lo, den_hi] / (a_den * b_den)
        den_lo = s * a_lo * b_den - prod * b_hi * a_den
        den_hi = s * a_hi * b_den - prod * b_lo * a_den
        zero_enclosed = den_lo <= 0 <= den_hi
        if not zero_enclosed:
            if den_hi < 0:  # M = -root / -denominator, over a positive divisor
                num_lo, num_hi, den_lo, den_hi = -num_hi, -num_lo, -den_hi, -den_lo
            # each end of M is an end of root over the divisor end that extremizes it
            scale = a_den * b_den
            lo_num, lo_den = num_lo * scale, num_den * (den_hi if num_lo >= 0 else den_lo)
            hi_num, hi_den = num_hi * scale, num_den * (den_lo if num_hi >= 0 else den_hi)
            # width * 2**(precision_bits - 1) <= |midpoint|, over lo_den * hi_den
            lo_cross, hi_cross = lo_num * hi_den, hi_num * lo_den
            if (hi_cross - lo_cross) << precision_bits <= abs(hi_cross + lo_cross):
                return lo_num, lo_den, hi_num, hi_den
    if zero_enclosed:
        raise ZeroDenominator(
            f"denominator still encloses 0 at {bits} bits for {triple} ({pair.plane.value})")
    raise RuntimeError(
        f"could not certify relative error 2**{1 - precision_bits} at {bits} bits")


def reconstruct(B: int, C: int, X: int, alpha, beta, M=None,
                precision_bits: int = DEFAULT_PRECISION_BITS) -> Fraction | IntervalValue:
    """Evaluate [(C+B)*M*alpha - C*B*M*beta]**X (M defaults to 1).

    alpha, beta and M may each be exact (int/Fraction/rational Radical) or
    interval-valued (irrational Radical/IntervalValue).  The result is an
    exact Fraction whenever every operand is exact; otherwise each irrational
    radical is enclosed to width 2**-precision_bits and the result is the
    enclosure that follows exactly from those.
    """
    if M is None:
        M = Fraction(1)
    operands = [_exact_operand(v) for v in (alpha, beta, M)]
    if all(v is not None for v in operands):
        a, b, m = operands
        return ((C + B) * m * a - C * B * m * b) ** X
    m = enclose(M, precision_bits)
    return ((C + B) * m * enclose(alpha, precision_bits)
            - C * B * m * enclose(beta, precision_bits)) ** X
