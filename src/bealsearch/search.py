"""Bounded exhaustive search for A**X + B**Y = C**Z.

The main engine enumerates every reduced-base perfect power up to the bound
and finds each qualifying pair a + b = c (a <= b, c a right-side power) in
exactly one of two sweeps, split by whether b and c are both cubes.  A value
is a cube when its reduced exponent is divisible by 3.

Cube-difference sweep (b and c both cubes).  Then a = C**3 - B**3 =
d(3B**2 + 3dB + d**2) with d = C - B, so d divides a = A**X.  Since b >= a,
B >= a**(1/3) and a >= 3dB**2 >= 3d a**(2/3), so 27d**3 <= a; since c <=
bound, a <= 3dC**2 <= 3d bound**(2/3), so a**3 <= 27d**3 bound**2.  For
each a with 2a <= bound the divisors d in that range come from the prime
factors of A, read from a smallest-prime-factor table built once per
search, and each d fixes B exactly through one integer square root, with no
lookup per pair.  The sweep skips every a that is itself a cube, since a
sum of two cubes is never a cube (Fermat's Last Theorem for n = 3); so it
runs over the non-cube left values only, about bound**(1/4) of them.

Lookup sweep (every other pair).  For each c, the larger term b runs over a
sorted lane slice in [ceil(c/2), c) and c - b is found by one C-level set
intersection; in the asymmetric case a second intersection looks up the
low-only b = c - a from the high a <= c // 2.  When c is a cube, b runs over
the values that are not cubes only, so no pair of the first sweep is found
again.

Both sweeps are striped by index across workers (a for the first, c for
the second); the annotated hits are sorted by SearchHit.sort_key, so
reports are deterministic for any worker count.

A deliberately naive triple-enumeration oracle with its own power
enumeration (repeated multiplication, no root extraction, no sum index)
provides the independent cross-check used by the acceptance suite.

Exponent minimums apply to the unordered pair: a canonical hit (A**X <=
B**Y) qualifies when either orientation of its left side meets (min_x,
min_y), equivalently min(X, Y) >= min(min_x, min_y) and max(X, Y) >=
max(min_x, min_y).  Left values (exponent >= the smaller minimum) whose
exponent meets the larger minimum are high, the others low-only; a pair
qualifies when its larger term is high, or when it is low-only and the
smaller term is high.
"""

from __future__ import annotations

import multiprocessing
import time
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from math import isqrt
from operator import sub
from typing import NamedTuple

from .coprime import Restriction, exponent_restriction
from .errors import BoundTooLarge
from .exact_arith import RadicalClass, is_perfect_power
from .reparam import Plane, ReparamPair, canonical_alpha_beta
from .slopes import SlopeSet, slope_set
from .triples import BealTriple

ORACLE_MAX_BOUND = 10 ** 7


@dataclass(frozen=True)
class PowerEntry:
    value: int
    base: int
    exponent: int


@dataclass(frozen=True)
class SearchConfig:
    bound: int
    min_x: int = 3
    min_y: int = 3
    min_z: int = 3
    workers: int = 1
    seed: int = 0  # echoed in the JSON report only; the search is deterministic

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")
        if min(self.min_x, self.min_y, self.min_z) < 3:
            raise ValueError("exponent minimums must be >= 3")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")

    @property
    def minimums(self) -> tuple[int, int, int]:
        return self.min_x, self.min_y, self.min_z


@dataclass(frozen=True)
class VerificationRecord:
    """Per-check outcomes for one candidate hit; failures are data."""

    checks: dict[str, bool]
    gcd_abc: int

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]


@dataclass(frozen=True)
class SearchHit:
    triple: BealTriple
    gcd_abc: int
    alpha_class: RadicalClass
    beta_class: RadicalClass
    slopes: SlopeSet
    verification: VerificationRecord

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return self.triple.cz, self.triple.by, self.triple.ax


@dataclass
class SearchReport:
    config: SearchConfig
    hits: list[SearchHit]
    counts: dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)  # enumerate_s, scan_s, annotate_s

    @property
    def triples(self) -> list[BealTriple]:
        return [hit.triple for hit in self.hits]


def enumerate_powers(bound: int, min_exp: int = 3) -> list[PowerEntry]:
    """All reduced-base powers base**e <= bound with e >= min_exp, by value.

    Bases that are themselves perfect powers are skipped; their powers are
    reachable from the reduced base with a larger exponent, so every perfect
    power value below the bound appears exactly once.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if min_exp < 1:
        raise ValueError(f"min_exp must be >= 1, got {min_exp}")
    if min_exp >= bound.bit_length():  # 2**min_exp > bound: no powers, none built
        return []
    entries = []
    base = 2
    while base ** min_exp <= bound:
        if base < 4 or is_perfect_power(base) is None:
            value = base ** min_exp
            exponent = min_exp
            while value <= bound:
                entries.append(PowerEntry(value, base, exponent))
                exponent += 1
                value *= base
        base += 1
    entries.sort(key=lambda entry: entry.value)
    return entries


def _pairs_within(values: list[int], bound: int) -> int:
    """Count pairs i <= j of the sorted values with values[i] + values[j] <= bound."""
    return sum(bisect_right(values, bound - value) - i
               for i, value in enumerate(values) if 2 * value <= bound)


# Pool workers' lanes, set once per worker process by the pool initializer.
_LANES: tuple = ()


class _Lanes(NamedTuple):
    """What both sweeps read; every list is sorted by value."""

    bound: int
    minimums: tuple[int, int, int]  # (smaller left minimum, larger left minimum, min_z)
    power_index: dict[int, PowerEntry]
    small: list[PowerEntry]   # left entries A^X, not cubes, with 2 A^X <= bound
    spf: array                # smallest prime factor of each n <= the largest small base
    right_cubes: list[int]    # right values that are cubes
    right_other: list[int]    # the other right values
    left_set: set[int]
    high: list[int]           # left values with exponent >= the larger minimum
    high_other: list[int]     # high values that are not cubes
    low_set: set[int]         # left values with exponent below the larger minimum
    low_other: set[int]       # low values that are not cubes


def _init_lanes(lanes: _Lanes) -> None:
    global _LANES
    _LANES = lanes


def _match_in_worker(stripe: tuple[int, int]) -> list[tuple[int, int]]:
    return _match_stripe(_LANES, *stripe)


def _smallest_prime_factors(limit: int) -> array:
    """spf[n] is the smallest prime factor of n for 2 <= n <= limit (spf[1] = 1)."""
    spf = array("q", range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for n in range(p * p, limit + 1, p):
                if spf[n] == n:
                    spf[n] = p
    return spf


def _match_stripe(lanes: _Lanes, start: int, step: int) -> list[tuple[int, int]]:
    """All pairs (a, b), a <= b, a + b = c, from the stripes [start::step].

    The cube-difference sweep takes the values a = small[start::step], the
    lookup sweep the right values c[start::step].  The two sweeps find
    disjoint pair sets; see the module docstring.
    """
    return _cube_pairs(lanes, start, step) + _lookup_pairs(lanes, start, step)


def _cube_pairs(lanes: _Lanes, start: int, step: int) -> list[tuple[int, int]]:
    """Pairs (u, B**3) with u + B**3 = (B+d)**3, solved from the divisors d of u.

    d runs over the divisors of u = A**X with u**3 <= 27d**3 bound**2 and
    27d**3 <= u (see the module docstring).  For each, 3d(B**2 + dB) =
    u - d**3 fixes B: with q = (u - d**3) / 3d, (2B + d)**2 = 4q + d**2.
    """
    spf, power_index = lanes.spf, lanes.power_index
    lo_exp, hi_exp, min_z = lanes.minimums
    scale = 27 * lanes.bound ** 2
    found: list[tuple[int, int]] = []
    for entry in lanes.small[start::step]:
        u = entry.value
        most_cube = u // 27
        least_cube = -(-u ** 3 // scale)  # the least d**3 that can reach the bound
        divisors = [1]
        n = entry.base
        while n > 1:
            p = spf[n]
            k = 0
            while spf[n] == p:
                n //= p
                k += 1
            grown = []
            for d in divisors:
                for _ in range(k * entry.exponent):
                    d *= p
                    if d * d * d > most_cube:
                        break
                    grown.append(d)
            divisors += grown
        for d in divisors:
            cube = d * d * d
            if cube < least_cube:
                continue
            q, r = divmod(u - cube, 3 * d)
            if r:
                continue
            square = 4 * q + d * d
            root = isqrt(square)
            if root * root != square:
                continue
            base = (root - d) >> 1  # root**2 = d**2 mod 4, so root - d is even
            b = base * base * base
            b_entry = power_index.get(b)
            c_entry = power_index.get((base + d) ** 3)
            if (b > u and b_entry and c_entry and c_entry.exponent >= min_z
                    and b_entry.exponent >= lo_exp
                    and max(b_entry.exponent, entry.exponent) >= hi_exp):
                found.append((u, b))
    return found


def _lookup_pairs(lanes: _Lanes, start: int, step: int) -> list[tuple[int, int]]:
    """The pairs not found by _cube_pairs, one C-level set lookup per lane slice.

    For each right value c: a high larger term b in [ceil(c/2), c) with
    c - b any left value; then, in the asymmetric case, a high smaller term
    a <= c // 2 with c - a low-only.  When c is a cube the larger term
    runs over the values that are not cubes only.
    """
    left_set, high = lanes.left_set, lanes.high
    found: list[tuple[int, int]] = []
    for right, larger, low_only in ((lanes.right_other, high, lanes.low_set),
                                    (lanes.right_cubes, lanes.high_other, lanes.low_other)):
        for c in right[start::step]:
            first = bisect_left(larger, c - c // 2)
            last = bisect_left(larger, c, first)
            found.extend((a, c - a) for a in
                         left_set.intersection(map(sub, repeat(c), larger[first:last])))
            if low_only:
                last = bisect_right(high, c // 2)
                found.extend((c - b, b) for b in
                             low_only.intersection(map(sub, repeat(c), high[:last])))
    return found


def verify_hit(triple: BealTriple, minimums: tuple[int, int, int] = (3, 3, 3),
               require_reduced: bool = True, *, slopes: SlopeSet | None = None,
               pair: ReparamPair | None = None) -> VerificationRecord:
    """Run every hit-level check on a candidate triple.

    Checks: exact equation, reduced bases (>= 2, not perfect powers),
    canonical ordering, orientation-aware exponent minimums, common factor
    > 1, the divisibility restriction on (X, Y, Z), rational root-form
    slopes matching C/B and C/A, and rational-canonical-parameter /
    common-factor consistency.  Failures are recorded, not raised.

    slopes and pair, when given, must be slope_set(triple) and
    canonical_alpha_beta(triple, Plane.CB); they are computed when omitted.
    """
    min_x, min_y, min_z = minimums
    checks: dict[str, bool] = {}
    checks["equation_exact"] = triple.equation_holds

    reduced = all(
        base >= 2 and is_perfect_power(base) is None
        for base in (triple.A, triple.B, triple.C)
    )
    checks["bases_reduced"] = reduced or not require_reduced
    checks["canonical_order"] = triple.ax <= triple.by
    lo, hi = min(min_x, min_y), max(min_x, min_y)
    checks["exponent_minimums"] = (
        min(triple.X, triple.Y) >= lo
        and max(triple.X, triple.Y) >= hi
        and triple.Z >= min_z
    )
    gcd_abc = triple.gcd_abc
    checks["common_factor_present"] = gcd_abc > 1
    if min(triple.X, triple.Y, triple.Z) >= 3:
        checks["exponent_restriction"] = (
            exponent_restriction(triple.X, triple.Y, triple.Z) is Restriction.PERMITTED
        )
    else:
        checks["exponent_restriction"] = False

    if slopes is None:
        slopes = slope_set(triple)
    checks["slopes_rational"] = (
        isinstance(slopes.m_cb, Fraction)
        and isinstance(slopes.m_ca, Fraction)
        and slopes.m_cb == Fraction(triple.C, triple.B)
        and slopes.m_ca == Fraction(triple.C, triple.A)
    )

    if pair is None:
        pair = canonical_alpha_beta(triple, Plane.CB)
    rational_parameter = (
        pair.alpha.classification.is_rational or pair.beta.classification.is_rational
    )
    checks["rational_parameters_imply_common_factor"] = (not rational_parameter) or gcd_abc > 1

    return VerificationRecord(checks=checks, gcd_abc=gcd_abc)


def annotate_hit(triple: BealTriple, minimums: tuple[int, int, int] = (3, 3, 3)) -> SearchHit:
    """Attach gcd, canonical parameter classes, slopes, and verification."""
    pair = canonical_alpha_beta(triple, Plane.CB)
    slopes = slope_set(triple)
    return SearchHit(
        triple=triple,
        gcd_abc=triple.gcd_abc,
        alpha_class=pair.alpha.classification,
        beta_class=pair.beta.classification,
        slopes=slopes,
        verification=verify_hit(triple, minimums, slopes=slopes, pair=pair),
    )


def _report(config: SearchConfig, triples: list[BealTriple], powers_enumerated: int,
            pairs_tested: int, started: float, enumerated: float) -> SearchReport:
    """Annotate and order the found triples; the one report path of both engines.

    started and enumerated are the perf_counter readings at the start and
    at the end of power enumeration; the scan phase runs until this call.
    """
    scanned = time.perf_counter()
    hits = sorted((annotate_hit(triple, config.minimums) for triple in triples),
                  key=lambda hit: hit.sort_key)
    counts = {"powers_enumerated": powers_enumerated, "pairs_tested": pairs_tested,
              "hits": len(hits)}
    done = time.perf_counter()
    phases = {"enumerate_s": enumerated - started, "scan_s": scanned - enumerated,
              "annotate_s": done - scanned}
    return SearchReport(config, hits, counts, done - started, phases)


def search_solutions(config: SearchConfig) -> SearchReport:
    """Find every in-bound solution, annotated and deterministically sorted."""
    started = time.perf_counter()
    lo_exp = min(config.min_x, config.min_y)
    hi_exp = max(config.min_x, config.min_y)
    entries = enumerate_powers(config.bound, min_exp=min(lo_exp, config.min_z))
    enumerated = time.perf_counter()

    power_index = {entry.value: entry for entry in entries}
    right = [entry for entry in entries if entry.exponent >= config.min_z]
    left = [entry for entry in entries if entry.exponent >= lo_exp]
    high = [entry for entry in left if entry.exponent >= hi_exp]
    low = [entry for entry in left if entry.exponent < hi_exp]
    # The cube sweep's A^X are never cubes: a sum of two cubes is never a
    # cube (Fermat's Last Theorem for n = 3, proved by Euler).
    small = [entry for entry in left if entry.exponent % 3 and 2 * entry.value <= config.bound]
    lanes = _Lanes(
        bound=config.bound,
        minimums=(lo_exp, hi_exp, config.min_z),
        power_index=power_index,
        small=small,
        spf=_smallest_prime_factors(max((entry.base for entry in small), default=1)),
        right_cubes=[entry.value for entry in right if entry.exponent % 3 == 0],
        right_other=[entry.value for entry in right if entry.exponent % 3],
        left_set={entry.value for entry in left},
        high=[entry.value for entry in high],
        high_other=[entry.value for entry in high if entry.exponent % 3],
        low_set={entry.value for entry in low},
        low_other={entry.value for entry in low if entry.exponent % 3})

    if config.workers == 1 or not right:
        results = [_match_stripe(lanes, 0, 1)]
    else:
        stripes = [(w, config.workers) for w in range(config.workers)]
        with multiprocessing.Pool(processes=config.workers, initializer=_init_lanes,
                                  initargs=(lanes,)) as pool:
            results = pool.map(_match_in_worker, stripes)

    triples = []
    for found in results:
        for va, vb in found:
            a = power_index[va]
            b = power_index[vb]
            c = power_index[va + vb]
            triples.append(BealTriple(a.base, a.exponent, b.base, b.exponent,
                                      c.base, c.exponent))

    # The qualifying pair space (A^X <= B^Y, sum <= bound, either orientation
    # meeting the minimums): all left pairs minus the pairs of two low values.
    pairs_tested = (_pairs_within([entry.value for entry in left], config.bound)
                    - _pairs_within([entry.value for entry in low], config.bound))
    return _report(config, triples, len(entries), pairs_tested, started, enumerated)


def _oracle_powers(bound: int, min_exp: int) -> list[tuple[int, int, int]]:
    """Power table for the oracle, by repeated multiplication only.

    A base is kept when it is not itself a power of a smaller integer, which
    is detected by enumerating all small powers rather than extracting roots.
    """
    if min_exp >= bound.bit_length():  # 2**min_exp > bound: no powers, none built
        return []
    small_powers = set()
    base = 2
    while base * base <= bound:
        value = base * base
        while value <= bound:
            small_powers.add(value)
            value *= base
        base += 1
    table = []
    base = 2
    while base ** min_exp <= bound:
        if base not in small_powers:
            value = base ** min_exp
            exponent = min_exp
            while value <= bound:
                table.append((value, base, exponent))
                exponent += 1
                value *= base
        base += 1
    table.sort()
    return table


def brute_force_oracle(bound: int, minimums: tuple[int, int, int] = (3, 3, 3)) -> SearchReport:
    """Direct triple enumeration without any sum index.

    Intentionally naive; refuses bounds above 10**7.
    """
    if bound > ORACLE_MAX_BOUND:
        raise BoundTooLarge(f"oracle bound {bound} exceeds {ORACLE_MAX_BOUND}")
    min_x, min_y, min_z = minimums
    config = SearchConfig(bound=bound, min_x=min_x, min_y=min_y, min_z=min_z)
    started = time.perf_counter()
    table = _oracle_powers(bound, min(minimums))
    enumerated = time.perf_counter()
    found = []
    pairs_tested = 0
    for i, (va, a_base, a_exp) in enumerate(table):
        if 2 * va > bound:
            break
        for j in range(i, len(table)):
            vb, b_base, b_exp = table[j]
            s = va + vb
            if s > bound:
                break
            if not ((a_exp >= min_x and b_exp >= min_y)
                    or (b_exp >= min_x and a_exp >= min_y)):
                continue
            pairs_tested += 1
            for vc, c_base, c_exp in table:
                if vc > s:
                    break
                if vc == s and c_exp >= min_z:
                    found.append(
                        BealTriple(a_base, a_exp, b_base, b_exp, c_base, c_exp))
    return _report(config, found, len(table), pairs_tested, started, enumerated)
