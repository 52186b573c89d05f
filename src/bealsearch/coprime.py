"""Coprimality propagation on additive triples and exponent restrictions.

For a + b = c, any factor shared by two of the terms divides the third, so
3-way coprimality and pairwise coprimality coincide.  The report computes
both sides of that equivalence so tests can assert it rather than assume it.
On A^X + B^Y = C^Z a prime shared by two terms divides all three bases, so
the shared primes are those of gcd(A, B, C).  That is the number factored,
not the term gcd, which is a multiple of gcd(A, B, C)^min(X, Y).

The exponent predicate encodes the restriction that X and Y cannot both be
integer multiples of Z (that configuration collapses to three like powers,
which have no solution), and the orientation helper names which of X, Y can
serve as the exponent that is not a multiple of Z.
"""

from __future__ import annotations

import enum
import math
from typing import NamedTuple

from .errors import BudgetExceeded, NotAdditiveTriple
from .exact_arith import FactorList, factorize
from .triples import BealTriple


class CoprimalityReport(NamedTuple):
    gcd_ab: int
    gcd_ac: int
    gcd_bc: int
    gcd_abc: int
    pairwise_all_one: bool
    # per-pair shared prime factorizations; None when factorize gave up
    shared_primes: dict[str, FactorList | None]


def check_coprimality_propagation(triple: BealTriple) -> CoprimalityReport:
    """Populate all pairwise and 3-way gcds of the terms of A^X + B^Y = C^Z.

    Raises NotAdditiveTriple when the equation does not hold; the
    propagation facts only hold on genuine additive triples.  There
    gcd(A^X, B^Y) = gcd(A^X, C^Z) = gcd(B^Y, C^Z), and its primes are those
    of gcd(A, B, C): that is factored once, and each prime's multiplicity in
    the term gcd is read by division.  The shared_primes entries fall back
    to None (gcd-only reporting) when it resists factorization within
    factorize's step budget.
    """
    a, b, c = triple.ax, triple.by, triple.cz
    if a + b != c:
        raise NotAdditiveTriple(f"{a} + {b} != {c}")
    gcd_ab = math.gcd(a, b)
    gcd_ac = math.gcd(a, c)
    gcd_bc = math.gcd(b, c)
    gcd_abc = math.gcd(gcd_ab, c)
    shared: FactorList | None = []
    if gcd_ab > 1:
        try:
            shared = [(p, _multiplicity(p, gcd_ab)) for p, _ in factorize(triple.gcd_abc)]
        except BudgetExceeded:
            shared = None
    return CoprimalityReport(
        gcd_ab=gcd_ab,
        gcd_ac=gcd_ac,
        gcd_bc=gcd_bc,
        gcd_abc=gcd_abc,
        pairwise_all_one=(gcd_ab == gcd_ac == gcd_bc == 1),
        shared_primes={"ab": shared, "ac": shared, "bc": shared},
    )


def _multiplicity(p: int, n: int) -> int:
    """The exponent of the prime p in n >= 1."""
    count = 0
    while n % p == 0:
        n //= p
        count += 1
    return count


class Restriction(enum.Enum):
    PERMITTED = "permitted"
    VIOLATION = "violation"


def exponent_restriction(X: int, Y: int, Z: int) -> Restriction:
    """Violation iff Z divides both X and Y (three like powers, impossible)."""
    if min(X, Y, Z) < 3:
        raise ValueError(f"exponents must be >= 3, got ({X}, {Y}, {Z})")
    if X % Z == 0 and Y % Z == 0:
        return Restriction.VIOLATION
    return Restriction.PERMITTED


class Orientation(enum.Enum):
    USE_X = "use_x"
    USE_Y = "use_y"
    EITHER = "either"
    VIOLATION = "violation"


def exponent_orientation(X: int, Y: int, Z: int) -> Orientation:
    """Name which of X, Y can play the not-a-multiple-of-Z role.

    EITHER when neither is a multiple of Z; VIOLATION passes through the
    case where both are (a caller error, surfaced rather than raised).
    """
    if exponent_restriction(X, Y, Z) is Restriction.VIOLATION:
        return Orientation.VIOLATION
    x_multiple = X % Z == 0
    y_multiple = Y % Z == 0
    if not x_multiple and not y_multiple:
        return Orientation.EITHER
    return Orientation.USE_Y if x_multiple else Orientation.USE_X
