"""Exact verification of difference-of-powers expansion identities.

The two-term factoring
    p**v - q**w = (p+q)(p**(v-1) - q**(w-1)) - pq(p**(v-2) - q**(w-2))
is the n = 1 case of a binomial-weighted sum whose upper limit n is a free
choice: every non-negative n yields the same total, so general_expansion
takes n as its caller's argument, and expand_difference is general_expansion
at n = 1.  Negative intermediate exponents are evaluated over exact
rationals rather than restricted, which is what makes the free upper limit
checkable verbatim.

The expansion runs on plain integers.  Each ExpansionInstance keeps the
power tables of its numerators and denominators, each grown only to the
highest power a call reads; the suite sizes them once for n = 0..10.  A call
returns an unreduced pair (numerator, denominator), which the suite compares
with p**v - q**w, computed in Fraction, by cross-multiplication.

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

    With p = a/b and q = c/d in lowest terms (b, d > 0), the instance keeps
    the power tables of a, b, c, d, a*d + b*c and -a*c (the numerators of p+q
    and -pq over b*d), each grown by _grow only as far as a call reads it.
    """

    __slots__ = ("p", "q", "v", "w", "_bases", "_tables")

    def __init__(self, p, q, v: int, w: int):
        self.p = p if isinstance(p, Fraction) else Fraction(p)
        self.q = q if isinstance(q, Fraction) else Fraction(q)
        self.v, self.w = v, w
        if self.p == 0 or self.q == 0:
            raise ValueError("p and q must be non-zero")
        a, b = self.p.numerator, self.p.denominator
        c, d = self.q.numerator, self.q.denominator
        self._bases = (a, b, c, d, a * d + b * c, -a * c)
        self._tables = [[] for _ in self._bases]

    def __repr__(self) -> str:
        return f"ExpansionInstance(p={self.p!r}, q={self.q!r}, v={self.v!r}, w={self.w!r})"

    def _grow(self, n: int) -> None:
        """Extend each table to the highest power general_expansion reads from it
        at a limit 0..n: ka + kb for a and b, kc + kd for c and d, n for p+q and -pq."""
        # ka + kb = max(2m-v, 0) + max(v-m, 0) is convex in m: over 0..n it peaks at 0 or n
        tp, tq = (max(abs(e), max(2 * n - e, 0) + max(e - n, 0)) for e in (self.v, self.w))
        for table, base, top in zip(self._tables, self._bases, (tp, tp, tq, tq, n, n)):
            if len(table) <= top:
                table += accumulate(repeat(base, top - len(table)), mul,
                                    initial=table[-1] * base if table else 1)


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
    evaluated over plain integers on one common denominator, read from the
    instance's power tables.  The sum shares no arithmetic with p**v - q**w
    computed in Fraction, so the suite compares two independent paths.
    """
    if n < 0:
        raise ValueError(f"n must be >= 0, got {n}")
    v, w = inst.v, inst.w
    # Exponents run from v-n down to v-2n.  Over the denominator a**ka * b**kb,
    # p**e is a**(e+ka) * b**(kb-e) with both powers in 0..ka+kb for every e
    # reached; a**ka keeps a's sign, which a negative base needs under an odd
    # negative e.  (Conditional expressions: max() costs a call per use here.)
    ka = 2 * n - v if 2 * n > v else 0
    kb = v - n if v > n else 0
    kc = 2 * n - w if 2 * n > w else 0
    kd = w - n if w > n else 0
    a, b, c, d, plus, minus = inst._tables
    if len(plus) <= n:  # the tables hold what every limit below len(plus) reads
        inst._grow(n)
    den_p, den_q = a[ka] * b[kb], c[kc] * d[kd]
    # term i reads p**(v-n-i) as a[ta - i] * b[tb + i], and q likewise
    ta, tb, tc, td = v - n + ka, kb - v + n, w - n + kc, kd - w + n
    s = 0
    for i in range(n + 1):
        s += comb(n, i) * plus[n - i] * minus[i] * (
            a[ta - i] * b[tb + i] * den_q - c[tc - i] * d[td + i] * den_p)
    # ka + kb >= n, so the tables reach b**n and d**n
    return s, b[n] * d[n] * den_p * den_q


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
    for inst in random_instances(cases, seed):
        inst._grow(FREE_LIMIT_RANGE[-1])
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
