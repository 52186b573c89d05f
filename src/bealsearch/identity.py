"""Exact verification of difference-of-powers expansion identities.

The two-term factoring
    p**v - q**w = (p+q)(p**(v-1) - q**(w-1)) - pq(p**(v-2) - q**(w-2))
generalizes to a binomial-weighted sum whose upper limit n is a free choice:
every non-negative n yields the same total, so general_expansion takes n as
its caller's argument.  Negative intermediate exponents are evaluated over
exact rationals rather than restricted, which is what makes the free upper
limit checkable verbatim.

A related table decomposes C**Z - B**Y into rows indexed by i, pairing the
shared coefficient binom(X,i)(C+B)**(X-i)(-CB)**i with the difference term
C**(Z-X-i) - B**(Y-X-i); the row products telescope back to C**Z - B**Y.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

FREE_LIMIT_RANGE = range(0, 11)
EXPONENT_RANGE = (-4, 12)
COEFFICIENT_LIMIT = 10


@dataclass(frozen=True)
class ExpansionInstance:
    """One (p, q, v, w) input; the free limit n is general_expansion's argument."""

    p: Fraction
    q: Fraction
    v: int
    w: int

    def __post_init__(self):
        object.__setattr__(self, "p", Fraction(self.p))
        object.__setattr__(self, "q", Fraction(self.q))
        if self.p == 0 or self.q == 0:
            raise ValueError("p and q must be non-zero")


@dataclass(frozen=True)
class ExpansionRow:
    """Row i of the telescoping table for C**Z - B**Y."""

    index: int
    common_factor: Fraction
    difference_term: Fraction
    monomial_exponents: tuple[int, int]

    @property
    def product(self) -> Fraction:
        return self.common_factor * self.difference_term


def expand_difference(inst: ExpansionInstance) -> tuple[Fraction, Fraction]:
    """Evaluate both sides of the two-term factoring; they must be equal.

    Returns (lhs, rhs) with lhs = p**v - q**w and rhs the factored form.
    """
    p, q, v, w = inst.p, inst.q, inst.v, inst.w
    lhs = p ** v - q ** w
    rhs = (p + q) * (p ** (v - 1) - q ** (w - 1)) - p * q * (p ** (v - 2) - q ** (w - 2))
    return lhs, rhs


def general_expansion(inst: ExpansionInstance, n: int) -> Fraction:
    """Binomial-weighted expansion of p**v - q**w with free upper limit n.

    Returns sum_{i=0}^{n} binom(n,i) (p+q)**(n-i) (-pq)**i (p**(v-n-i) - q**(w-n-i)),
    which equals p**v - q**w for every n >= 0.

    The sum is evaluated over plain integers on one common denominator and
    reduced once, into the returned Fraction, at the end.  It shares no
    arithmetic with p**v - q**w computed in Fraction, so the suite compares
    two independent paths.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    v, w = inst.v, inst.w
    a, b = inst.p.numerator, inst.p.denominator
    c, d = inst.q.numerator, inst.q.denominator
    # Exponents run from v-n down to v-2n.  Over the denominator a**ka * b**kb,
    # p**e is a**(e+ka) * b**(kb-e) with both powers >= 0 for every e reached;
    # a**ka keeps a's sign, which a negative base needs under an odd negative e.
    ka, kb = max(0, 2 * n - v), max(0, v - n)
    kc, kd = max(0, 2 * n - w), max(0, w - n)
    den_p, den_q = a ** ka * b ** kb, c ** kc * d ** kd
    plus, minus = a * d + b * c, -a * c  # (p+q) and -pq over b*d
    s = 0
    for i in range(n + 1):
        e, f = v - n - i, w - n - i
        difference = a ** (e + ka) * b ** (kb - e) * den_q - c ** (f + kc) * d ** (kd - f) * den_p
        s += math.comb(n, i) * plus ** (n - i) * minus ** i * difference
    return Fraction(s, (b * d) ** n * den_p * den_q)


def expansion_table(B: int, C: int, X: int, Y: int, Z: int) -> tuple[list[ExpansionRow], Fraction]:
    """Row-by-row decomposition of C**Z - B**Y at expansion depth X.

    Row i carries common factor binom(X,i)(C+B)**(X-i)(-CB)**i and difference
    term C**(Z-X-i) - B**(Y-X-i); the monomial_exponents field records the
    (X-i, i) powers the row maps to in the two-parameter form.  The returned
    total is the exact telescoped sum C**Z - B**Y.
    """
    if B < 2 or C < 2:
        raise ValueError(f"B and C must be >= 2, got B={B}, C={C}")
    if X < 1:
        raise ValueError(f"X must be >= 1, got {X}")
    b, c = Fraction(B), Fraction(C)
    rows = []
    total = Fraction(0)
    for i in range(X + 1):
        common = math.comb(X, i) * (c + b) ** (X - i) * (-c * b) ** i
        difference = c ** (Z - X - i) - b ** (Y - X - i)
        rows.append(ExpansionRow(i, common, difference, (X - i, i)))
        total += common * difference
    return rows, total


# --- randomized suite ----------------------------------------------------------

def _nonzero_fraction(rng: random.Random) -> Fraction:
    numerator = 0
    while numerator == 0:
        numerator = rng.randint(-COEFFICIENT_LIMIT, COEFFICIENT_LIMIT)
    return Fraction(numerator, rng.randint(1, COEFFICIENT_LIMIT))


def random_instances(count: int, seed: int = 0):
    """Deterministic stream of randomized expansion instances."""
    rng = random.Random(seed)
    lo, hi = EXPONENT_RANGE
    for _ in range(count):
        yield ExpansionInstance(
            p=_nonzero_fraction(rng),
            q=_nonzero_fraction(rng),
            v=rng.randint(lo, hi),
            w=rng.randint(lo, hi),
        )


def run_random_suite(cases: int, seed: int = 0) -> list[str]:
    """Check both identities on `cases` random instances with zero tolerance.

    For each instance the two-term factoring must match p**v - q**w exactly
    and the general expansion must reproduce it for every n in the free-limit
    range.  Returns failure descriptions (empty means everything held).
    """
    failures = []
    for inst in random_instances(cases, seed):
        lhs, rhs = expand_difference(inst)
        if lhs != rhs:
            failures.append(f"two-term factoring broke on {inst}: {lhs} != {rhs}")
            continue
        for n in FREE_LIMIT_RANGE:
            if general_expansion(inst, n) != lhs:
                failures.append(f"free-limit expansion broke on {inst} at n={n}")
                break
    return failures
