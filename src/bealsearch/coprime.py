"""Coprimality propagation on additive triples and exponent restrictions.

For a + b = c, any factor shared by two of the terms divides the third, so
3-way coprimality and pairwise coprimality coincide.  The report computes
both sides of that equivalence so tests can assert it rather than assume it.

The exponent predicate encodes the restriction that X and Y cannot both be
integer multiples of Z (that configuration collapses to three like powers,
which have no solution), and the orientation helper names which of X, Y can
serve as the exponent that is not a multiple of Z.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import BudgetExceeded, NotAdditiveTriple
from .exact_arith import DEFAULT_FACTOR_BUDGET, FactorList, factorize


@dataclass(frozen=True)
class CoprimalityReport:
    gcd_ab: int
    gcd_ac: int
    gcd_bc: int
    gcd_abc: int
    pairwise_all_one: bool
    # per-pair shared prime factorizations; None when the budget ran out
    shared_primes: dict[str, FactorList | None]


def check_coprimality_propagation(a: int, b: int, c: int,
                                  budget: int = DEFAULT_FACTOR_BUDGET) -> CoprimalityReport:
    """Populate all pairwise and 3-way gcds for an additive triple a + b = c.

    Raises NotAdditiveTriple when a + b != c; the propagation facts only
    hold on genuine additive triples.  There gcd(a, b) = gcd(a, c) =
    gcd(b, c), so the shared gcd is factored once for all three pairs; the
    shared_primes entries fall back to None (gcd-only reporting) when it
    resists factorization within the budget.
    """
    if a < 1 or b < 1 or c < 1:
        raise ValueError(f"terms must be >= 1, got ({a}, {b}, {c})")
    if a + b != c:
        raise NotAdditiveTriple(f"{a} + {b} != {c}")
    gcd_ab = math.gcd(a, b)
    gcd_ac = math.gcd(a, c)
    gcd_bc = math.gcd(b, c)
    gcd_abc = math.gcd(gcd_ab, c)
    shared: FactorList | None = []
    if gcd_ab > 1:
        try:
            shared = factorize(gcd_ab, budget=budget)
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
