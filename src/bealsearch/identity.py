"""Exact verification of difference-of-powers expansion identities.

The two-term factoring
    p**v - q**w = (p+q)(p**(v-1) - q**(w-1)) - pq(p**(v-2) - q**(w-2))
is the n = 1 case of a binomial-weighted sum whose upper limit n is a free
choice: every non-negative n yields the same total, so general_expansion
takes n as its caller's argument, and expand_difference is general_expansion
at n = 1.  Negative intermediate exponents are evaluated over exact
rationals rather than restricted, which is what makes the free upper limit
checkable verbatim.

The expansion runs on plain integers.  Term i at limit n reads the
difference p**(v-j) - q**(w-j) only through j = n + i, so each
ExpansionInstance builds the differences j = 0..2n once, as numerators over
one common denominator, for the largest n asked so far; the suite builds
them for n = 0..10, 21 differences for 66 terms.  They are built from power
tables (base -> [base**k]) that run_random_suite shares among the instances
of one call and drops when it returns.  A call returns an unreduced pair
(numerator, denominator), which the suite compares with p**v - q**w,
computed in Fraction, by cross-multiplication.

A related table decomposes C**Z - B**Y into rows indexed by i, pairing the
shared coefficient binom(X,i)(C+B)**(X-i)(-CB)**i with the difference term
C**(Z-X-i) - B**(Y-X-i); the row products telescope back to C**Z - B**Y.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import accumulate, repeat
from math import comb
from operator import mul
from typing import NamedTuple

FREE_LIMIT_RANGE = range(0, 11)
_OTHER_LIMITS = tuple(n for n in FREE_LIMIT_RANGE if n != 1)
EXPONENT_RANGE = (-4, 12)
COEFFICIENT_LIMIT = 10


class ExpansionInstance:
    """One (p, q, v, w) input; the free limit n is general_expansion's argument.

    With p = a/b and q = c/d in lowest terms (b, d > 0), term i at limit n
    reads (a*d + b*c)**(n-i) and (-a*c)**i, the numerators of (p+q)**(n-i)
    and (-pq)**i over (b*d)**n, and the difference p**(v-j) - q**(w-j) at
    j = n + i.  _grow builds, for every limit up to the largest n asked so
    far, the power tables of those two numerators, each difference j as a
    numerator over one common denominator, and each limit's denominator.
    """

    __slots__ = ("p", "q", "v", "w", "_bases", "_plus", "_minus", "_diff", "_den")

    def __init__(self, p, q, v: int, w: int):
        self.p = p if isinstance(p, Fraction) else Fraction(p)
        self.q = q if isinstance(q, Fraction) else Fraction(q)
        self.v, self.w = v, w
        if self.p == 0 or self.q == 0:
            raise ValueError("p and q must be non-zero")
        a, b = self.p.numerator, self.p.denominator
        c, d = self.q.numerator, self.q.denominator
        self._bases = (a, b, c, d, a * d + b * c, -a * c)
        self._plus = self._minus = self._diff = self._den = ()

    def __repr__(self) -> str:
        return f"ExpansionInstance(p={self.p!r}, q={self.q!r}, v={self.v!r}, w={self.w!r})"

    def _grow(self, n: int, powers: dict[int, list[int]]) -> None:
        """Build what general_expansion reads at every limit 0..n, reading and
        extending the power tables in powers (base -> [base**k]).

        The differences j = 0..2n share the denominator D = a**ka * b**kb *
        c**kc * d**kd: p**(v-j) is a**(v-j+ka) * b**(kb-v+j) over a**ka *
        b**kb, with both powers in 0..ka+kb for every j, and q likewise.
        a**ka keeps a's sign, which a negative base needs under an odd
        negative exponent.  Limit m's denominator is (b*d)**m * D.
        """
        a, b, c, d, plus, minus = self._bases
        v, w, top = self.v, self.w, 2 * n
        ka, kb, kc, kd = max(top - v, 0), max(v, 0), max(top - w, 0), max(w, 0)
        ta, tb, tc, td = (_power_table(powers, base, reach) for base, reach in
                          ((a, ka + kb), (b, ka + kb), (c, kc + kd), (d, kc + kd)))
        den_p, den_q = ta[ka] * tb[kb], tc[kc] * td[kd]
        self._diff = [ta[v - j + ka] * tb[kb - v + j] * den_q
                      - tc[w - j + kc] * td[kd - w + j] * den_p for j in range(top + 1)]
        self._den = list(accumulate(repeat(b * d, n), mul, initial=den_p * den_q))
        self._plus, self._minus = _power_table(powers, plus, n), _power_table(powers, minus, n)


def _power_table(powers: dict[int, list[int]], base: int, top: int) -> list[int]:
    """powers[base], extended to hold base**0 .. base**top."""
    table = powers.setdefault(base, [1])
    if len(table) <= top:
        table += accumulate(repeat(base, top - len(table)), mul, initial=table[-1] * base)
    return table


class ExpansionRow(NamedTuple):
    """Row i of the telescoping table for C**Z - B**Y."""

    index: int
    common_factor: Fraction
    difference_term: Fraction
    monomial_exponents: tuple[int, int]

    @property
    def product(self) -> Fraction:
        return self.common_factor * self.difference_term


def expand_difference(inst: ExpansionInstance) -> tuple[Fraction, tuple[int, int]]:
    """Evaluate both sides of the two-term factoring; they must be equal.

    Returns (lhs, rhs): lhs = p**v - q**w in Fraction, the reference, and rhs
    the factored form, general_expansion at n = 1, as an unreduced pair.
    """
    return inst.p ** inst.v - inst.q ** inst.w, general_expansion(inst, 1)


def general_expansion(inst: ExpansionInstance, n: int) -> tuple[int, int]:
    """Binomial-weighted expansion of p**v - q**w with free upper limit n.

    Returns sum_{i=0}^{n} binom(n,i) (p+q)**(n-i) (-pq)**i (p**(v-n-i) - q**(w-n-i)),
    which equals p**v - q**w for every n >= 0, as an unreduced pair
    (numerator, denominator) with a non-zero denominator.  Every term is
    evaluated over plain integers on one common denominator, from the
    instance's differences and power tables.  The sum shares no arithmetic
    with p**v - q**w computed in Fraction, so the suite compares two
    independent paths.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    if len(inst._den) <= n:  # built for a smaller n, or not yet: tables of its own
        inst._grow(n, {})
    plus, minus, diff = inst._plus, inst._minus, inst._diff
    s = 0
    for i in range(n + 1):
        s += comb(n, i) * plus[n - i] * minus[i] * diff[n + i]
    return s, inst._den[n]


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
        common = comb(X, i) * (c + b) ** (X - i) * (-c * b) ** i
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
    powers = {}  # base -> [base**k], shared by this call's instances
    for inst in random_instances(cases, seed):
        inst._grow(FREE_LIMIT_RANGE[-1], powers)
        lhs, (num, den) = expand_difference(inst)
        lhs_num, lhs_den = lhs.numerator, lhs.denominator
        if num * lhs_den != lhs_num * den:
            failures.append(f"two-term factoring broke on {inst}: {lhs} != {Fraction(num, den)}")
            continue
        for n in _OTHER_LIMITS:  # n = 1 is the two-term factoring, checked above
            num, den = general_expansion(inst, n)
            if num * lhs_den != lhs_num * den:
                failures.append(f"free-limit expansion broke on {inst} at n={n}")
                break
    return failures
