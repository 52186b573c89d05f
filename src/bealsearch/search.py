"""Bounded exhaustive search for A**X + B**Y = C**Z.

The main engine finds each qualifying pair a + b = c (a <= b, c a
right-side power) of reduced-base perfect powers up to the bound exactly
once.  Its reduced exponent puts each value in one of three classes:

  K  a cube: 3 divides the exponent;
  Q  the exponent is a power of two, so the value is a 4th power;
  H  any other exponent, which then has a prime factor >= 5.

No pair is K + K = K (a sum of two cubes is never a cube: Fermat's Last
Theorem for n = 3, proved by Euler) and none is Q + Q = Q (Fermat's own
n = 4).  So the scan runs over the non-cube values v only, about
bound**(1/4) of them, and finds each pair from one v, its owner:

1. Two cubes: v, the third term, is one identity v = x**3 + y**3, solved
   from each divisor s = x + y of v = A**X with s**3 <= 4v (the divisors
   come from the prime factors of A in a smallest-prime-factor table):
   xy = (s**2 - v/s)/3 and (x - y)**2 = s**2 - 4xy, and one integer square
   root fixes x and y.  The sign of y picks the case.  y < 0 (s**3 < v) is
   a difference, v + |y|**3 = x**3, with v a left value; v <= 3s x**2 <=
   3s bound**(2/3) leaves only s with v**3 <= 27 s**3 bound**2.  y > 0
   (s**3 > v) is a sum of the left cubes x**3 and y**3, with v a right
   value.  The divisors are walked between the integer cube roots of the
   two bounds on s**3, so the walk takes no cube.  A v outside the 25
   residues of x**3 + y**3 mod 63 (CUBE_SUM_RESIDUES; -1 is a cube, so a
   difference of cubes has the same residues) is skipped before any
   divisor: that is about 45% of the non-cube values, and a skipped v adds
   nothing to the scan's probe count (at 10**12 the skip lowers it from
   411,448 to 404,352).
2. c is the one cube: v = a, over the non-cube b >= a.
3. a or b is the one cube: v = c, over the non-cube x < c (the other term).
4. No cube, c in H: v = c, over the non-cube x in [c/2, c).
5. No cube, c in Q: then a or b is in H, and v = h is that term, over the
   non-cube y; a y in H with y < h is skipped, as that pair is found from y.

Sweeps 2, 3 and 5 keep only the partners whose sum or difference can be a
cube or a 4th power: cubes fall in the 9 residues {0, 1, 8, 27, 28, 35, 36,
55, 62} mod 63 and 4th powers in the 4 residues {0, 1, 16, 65} mod 80.  The
partners are built once per search as 63 + 80 sorted lists, keyed by the
residue of v, so each sweep is one bisect and one C-level set intersection
per value.

Only a cube of reduced exponent 3 can have a base above bound**(1/4), and
the scan reads cubes only as set members.  So those cubes are plain values
n**3, and a PowerEntry table (a sieve over the bases, no root per base) holds
the powers of exponent >= 4: at 10**18, 37,112 entries beside 999,999 cube
values.  A hit's term that the table lacks is such a cube, of base its root.

The scan is striped by index of v across workers; the annotated hits are
sorted by SearchHit.sort_key, so reports are deterministic for any worker
count.  A deliberately naive triple-enumeration oracle with its own power
enumeration (repeated multiplication, no root extraction, no sum index)
provides the independent cross-check used by the acceptance suite.

Exponent minimums apply to the unordered pair: a canonical hit (A**X <=
B**Y) qualifies when either orientation of its left side meets (min_x,
min_y), equivalently min(X, Y) >= min(min_x, min_y) and max(X, Y) >=
max(min_x, min_y).  Left values have exponent >= the smaller minimum; the
scan finds the pairs of left values, and the rule on the larger minimum is
applied once, where the triples are built.
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
from operator import add, sub
from typing import NamedTuple

from .coprime import Restriction, exponent_restriction
from .errors import BoundTooLarge
from .exact_arith import iroot, is_perfect_power
from .reparam import Plane, ReparamPair, canonical_alpha_beta
from .slopes import SlopeSet, slope_set
from .triples import BealTriple

ORACLE_MAX_BOUND = 10 ** 7
# About 120 bytes per power, mostly the cube values and their set (141 MB peak RSS
# for the 1,036,001 powers to 10**18): about 260 MB.  10**21 needs about 10**7.
MAX_POWERS = 2 * 10 ** 6


class PowerEntry(NamedTuple):
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
class SearchHit:
    """One verified candidate: per-check outcomes, with the slopes and CB pair they read."""

    triple: BealTriple
    checks: dict[str, bool]
    slopes: SlopeSet
    pair: ReparamPair

    @property
    def passed(self) -> bool:
        return all(self.checks.values())

    def failed_checks(self) -> list[str]:
        return [name for name, ok in self.checks.items() if not ok]

    @property
    def sort_key(self) -> tuple[int, int, int]:
        return self.triple.cz, self.triple.by, self.triple.ax


@dataclass
class SearchReport:
    config: SearchConfig
    hits: list[SearchHit]
    counts: dict[str, int] = field(default_factory=dict)
    wall_time_s: float = 0.0
    phases: dict[str, float] = field(default_factory=dict)  # seconds, see _report
    scan_probes: int | None = None  # set probes of the pair scan; None for the oracle

    @property
    def triples(self) -> list[BealTriple]:
        return [hit.triple for hit in self.hits]


def enumerate_powers(bound: int, min_exp: int = 3) -> list[PowerEntry]:
    """All reduced-base powers base**e <= bound with e >= min_exp, by value,
    as (value, base, exponent) tuples.

    Bases that are themselves perfect powers are skipped; their powers are
    reachable from the reduced base with a larger exponent, so every perfect
    power value below the bound appears exactly once.  Each reduced base
    marks its own powers in a sieve over the bases, so a base is reduced
    exactly when no smaller base has marked it.
    """
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    if min_exp < 1:
        raise ValueError(f"min_exp must be >= 1, got {min_exp}")
    if min_exp >= bound.bit_length():  # 2**min_exp > bound: no powers, none built
        return []
    limit = iroot(bound, min_exp)[0]
    marked = bytearray(limit + 1)
    entries = []
    for base in range(2, limit + 1):
        if marked[base]:
            continue
        power = base * base
        while power <= limit:
            marked[power] = 1
            power *= base
        value = base ** min_exp
        exponent = min_exp
        while value <= bound:
            entries.append(PowerEntry(value, base, exponent))
            exponent += 1
            value *= base
    entries.sort()  # the values are distinct, so this orders by value
    return entries


def _pairs_within(values: list[int], bound: int) -> int:
    """Count pairs i <= j of the sorted values with values[i] + values[j] <= bound."""
    half = bisect_right(values, bound // 2)  # the values i can take: 2 * values[i] <= bound
    # pair i has bisect_right(values, bound - values[i]) - i partners j >= i
    return (sum(map(bisect_right, repeat(values), map(sub, repeat(bound), values[:half])))
            - half * (half - 1) // 2)


# Pool workers' lanes, set once per worker process by the pool initializer.
_LANES: tuple = ()


# The residues of the cubes mod 63 and of the 4th powers mod 80.
CUBE_RESIDUES = frozenset(pow(n, 3, 63) for n in range(63))      # 9 of 63
QUARTIC_RESIDUES = frozenset(pow(n, 4, 80) for n in range(80))   # {0, 1, 16, 65}
# The residues mod 63 of x**3 + y**3, 25 of 63; as -1 is a cube, of x**3 - y**3 too.
CUBE_SUM_RESIDUES = frozenset((x + y) % 63 for x in CUBE_RESIDUES for y in CUBE_RESIDUES)


def _is_quartic(exponent: int) -> bool:
    """A non-cube reduced exponent >= 3 is in class Q: a power of two."""
    return exponent & (exponent - 1) == 0


def _partner_lists(values: list[int], modulus: int, residues: frozenset) -> list[list[int]]:
    """lists[r] holds, in order, the values y with (r + y) % modulus in residues."""
    lists: list[list[int]] = [[] for _ in range(modulus)]
    for y in values:
        for t in residues:
            lists[(t - y) % modulus].append(y)
    return lists


class _Lanes(NamedTuple):
    """What the scan reads; every list is sorted by value.  Only the
    non-cubes are PowerEntry tuples; every cube is a plain value."""

    bound: int
    lo_exp: int                 # the smaller left minimum
    min_z: int
    non_cubes: list[PowerEntry]  # the table's entries that are not cubes
    spf: array                  # smallest prime factor of each n <= the largest such base
    left_other: list[int]       # left values that are not cubes
    left_other_set: set[int]
    left_h: set[int]            # left values in class H
    left_cubes: set[int]        # left cube values: every n**3 when lo_exp is 3
    right_cubes: set[int]       # right cube values: every n**3 when min_z is 3
    right_quartics: set[int]    # right values in class Q
    cube_partners: list[list[int]]     # _partner_lists(left_other, 63, CUBE_RESIDUES)
    quartic_partners: list[list[int]]  # _partner_lists(left_other, 80, QUARTIC_RESIDUES)


def _init_lanes(lanes: _Lanes) -> None:
    global _LANES
    _LANES = lanes


def _match_in_worker(stripe: tuple[int, int]) -> tuple[list[tuple[int, int]], int]:
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


def _match_stripe(lanes: _Lanes, start: int, step: int) -> tuple[list[tuple[int, int]], int]:
    """The unordered pairs (a, b) of left values with a + b a right value
    whose owner (see the module docstring) is one of the non-cube values
    non_cubes[start::step], and the number of set probes made: the
    partners tried in set intersections plus the divisors _cube_pairs tried.
    """
    bound, lo_exp, min_z = lanes.bound, lanes.lo_exp, lanes.min_z
    left_other, left_other_set, left_h = lanes.left_other, lanes.left_other_set, lanes.left_h
    left_cubes, right_cubes, right_quartics = (lanes.left_cubes, lanes.right_cubes,
                                               lanes.right_quartics)
    cube_partners, quartic_partners = lanes.cube_partners, lanes.quartic_partners
    found: list[tuple[int, int]] = []
    probes = 0
    # Almost every intersection is empty, so the pairs are built only for the rest.
    for entry in lanes.non_cubes[start::step]:
        v = entry.value
        left, right = entry.exponent >= lo_exp, entry.exponent >= min_z
        in_h = not _is_quartic(entry.exponent)
        if left and 2 * v <= bound:  # v = a, c a cube
            partners = cube_partners[v % 63]
            first = bisect_left(partners, v)
            last = bisect_right(partners, bound - v, first)
            probes += last - first
            sums = right_cubes.intersection(map(add, repeat(v), partners[first:last]))
            if sums:
                found.extend((v, c - v) for c in sums)
        if right:  # v = c, one of a, b a cube
            partners = cube_partners[-v % 63]
            last = bisect_left(partners, v)
            probes += last
            terms = left_cubes.intersection(map(sub, repeat(v), partners[:last]))
            if terms:
                found.extend((v - x, x) for x in terms)
        if right and in_h:  # v = c in H, no cube
            first = bisect_left(left_other, v - v // 2)
            last = bisect_left(left_other, v, first)
            probes += last - first
            terms = left_other_set.intersection(map(sub, repeat(v), left_other[first:last]))
            if terms:
                found.extend((v - x, x) for x in terms)
        if left and in_h:  # v in H, no cube, c in Q
            partners = quartic_partners[v % 80]
            last = bisect_right(partners, bound - v)
            probes += last
            sums = right_quartics.intersection(map(add, repeat(v), partners[:last]))
            if sums:
                found.extend((v, c - v) for c in sums if c - v >= v or c - v not in left_h)
        pairs, tried = _cube_pairs(lanes, entry, left, right)
        found += pairs
        probes += tried
    return found, probes


def _cube_pairs(lanes: _Lanes, entry: PowerEntry, left: bool,
                right: bool) -> tuple[list[tuple[int, int]], int]:
    """The pairs whose other two terms are cubes, for the non-cube v = entry.value
    as a left term (left) and as the sum (right), and the number of divisors
    s = x + y of v tried, one solve of v = x**3 + y**3 each (module docstring).

    A v whose residue mod 63 is not in CUBE_SUM_RESIDUES is no sum or
    difference of two cubes, and tries no divisor.  The divisors are walked
    between the integer cube roots of the bounds on s**3, so the walk takes
    no cube.
    """
    v = entry.value
    if v % 63 not in CUBE_SUM_RESIDUES:
        return [], 0
    spf, left_cubes, right_cubes = lanes.spf, lanes.left_cubes, lanes.right_cubes
    least = -(-v ** 3 // (27 * lanes.bound ** 2)) if left else v + 1  # s**3 >= least
    most = 4 * v if right else v - 1                                     # s**3 <= most
    low, exact = iroot(least, 3)
    low += not exact  # the ceiling cube root: s >= low
    high = iroot(most, 3)[0]  # s <= high
    divisors = [1]
    n = entry.base
    while n > 1:
        p = spf[n]
        k = 0
        while spf[n] == p:
            n //= p
            k += 1
        grown = []
        for s in divisors:
            for _ in range(k * entry.exponent):
                s *= p
                if s > high:
                    break
                grown.append(s)
        divisors += grown
    tried = [s for s in divisors if s >= low]
    found: list[tuple[int, int]] = []
    for s in tried:
        xy, r = divmod(s * s - v // s, 3)
        square = s * s - 4 * xy  # (x - y)**2
        if r or (root := isqrt(square)) * root != square:
            continue
        x, y = (s + root) >> 1, (s - root) >> 1  # root**2 = s**2 mod 4: same parity
        if y < 0:
            if (-y) ** 3 in left_cubes and x ** 3 in right_cubes:
                found.append((v, (-y) ** 3))
        elif y ** 3 in left_cubes and x ** 3 in left_cubes:
            found.append((y ** 3, x ** 3))
    return found, len(tried)


def verify_hit(triple: BealTriple, minimums: tuple[int, int, int] = (3, 3, 3)) -> SearchHit:
    """Run every hit-level check on a candidate triple.

    Checks: exact equation, reduced bases (>= 2, not perfect powers),
    canonical ordering, orientation-aware exponent minimums, common factor
    > 1, the divisibility restriction on (X, Y, Z), rational root-form
    slopes matching C/B and C/A, and rational-canonical-parameter /
    common-factor consistency.  Failures are recorded, not raised.  The
    slopes and canonical pair the checks read are kept on the hit.
    """
    min_x, min_y, min_z = minimums
    checks: dict[str, bool] = {}
    checks["equation_exact"] = triple.equation_holds
    checks["bases_reduced"] = all(
        base >= 2 and is_perfect_power(base) is None
        for base in (triple.A, triple.B, triple.C)
    )
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

    slopes = slope_set(triple)
    checks["slopes_rational"] = (
        isinstance(slopes.m_cb, Fraction)
        and isinstance(slopes.m_ca, Fraction)
        and slopes.m_cb == Fraction(triple.C, triple.B)
        and slopes.m_ca == Fraction(triple.C, triple.A)
    )

    pair = canonical_alpha_beta(triple, Plane.CB)
    rational_parameter = (
        pair.alpha.classification.is_rational or pair.beta.classification.is_rational
    )
    checks["rational_parameters_imply_common_factor"] = (not rational_parameter) or gcd_abc > 1

    return SearchHit(triple, checks, slopes, pair)


def annotate_hit(triple: BealTriple, minimums: tuple[int, int, int] = (3, 3, 3)) -> SearchHit:
    """The verified hit for a found triple; the per-hit step a search report times."""
    return verify_hit(triple, minimums)


def _report(config: SearchConfig, triples: list[BealTriple], powers_enumerated: int,
            pairs_tested: int, started: float, enumerated: float,
            indexed: float, scan_probes: int | None = None) -> SearchReport:
    """Annotate and order the found triples; the one report path of both engines.

    started, enumerated and indexed are the perf_counter readings at the
    start, at the end of power enumeration and at the end of the index
    build; the scan phase runs until this call.
    """
    scanned = time.perf_counter()
    hits = sorted((annotate_hit(triple, config.minimums) for triple in triples),
                  key=lambda hit: hit.sort_key)
    counts = {"powers_enumerated": powers_enumerated, "pairs_tested": pairs_tested,
              "hits": len(hits)}
    done = time.perf_counter()
    phases = {"enumerate_s": enumerated - started, "index_s": indexed - enumerated,
              "scan_s": scanned - indexed, "annotate_s": done - scanned}
    return SearchReport(config, hits, counts, done - started, phases, scan_probes)


def search_solutions(config: SearchConfig) -> SearchReport:
    """Find every in-bound solution, annotated and deterministically sorted.

    Raises BoundTooLarge before building anything when the power table, as
    counted from one integer root per exponent, would exceed MAX_POWERS.
    """
    started = time.perf_counter()
    lo_exp = min(config.min_x, config.min_y)
    hi_exp = max(config.min_x, config.min_y)
    min_exp = min(lo_exp, config.min_z)
    powers = 0
    for e in range(min_exp, config.bound.bit_length()):
        powers += iroot(config.bound, e)[0] - 1
        if powers > MAX_POWERS:
            raise BoundTooLarge(f"bound {config.bound} needs more than the "
                                f"{MAX_POWERS} powers a search builds")
    table = enumerate_powers(config.bound, max(min_exp, 4))  # no cube of exponent 3
    # The cube values of reduced exponent >= each minimum; for 3, every n**3.
    cubes = {least: [entry.value for entry in table
                     if entry.exponent % 3 == 0 and entry.exponent >= least]
             for least in {lo_exp, config.min_z} - {3}}
    if min_exp == 3:
        cubes[3] = [n * n * n for n in range(2, iroot(config.bound, 3)[0] + 1)]
    enumerated = time.perf_counter()

    index = {entry.value: entry for entry in table}
    non_cubes = [entry for entry in table if entry.exponent % 3]
    left_other = [entry.value for entry in non_cubes if entry.exponent >= lo_exp]
    left = sorted(cubes[lo_exp] + left_other)  # two disjoint sorted runs: timsort merges them
    # A left value the table does not hold has exponent 3 < hi_exp.
    low = ([v for v in left if v not in index or index[v].exponent < hi_exp]
           if hi_exp > lo_exp else [])
    # The qualifying pair space (A^X <= B^Y, sum <= bound, either orientation
    # meeting the minimums): all left pairs minus the pairs of two low values.
    pairs_tested = _pairs_within(left, config.bound) - _pairs_within(low, config.bound)
    left_cubes = set(cubes[lo_exp])
    lanes = _Lanes(
        bound=config.bound,
        lo_exp=lo_exp,
        min_z=config.min_z,
        non_cubes=non_cubes,
        spf=_smallest_prime_factors(max((entry.base for entry in non_cubes), default=1)),
        left_other=left_other,
        left_other_set=set(left_other),
        left_h={entry.value for entry in non_cubes
                if entry.exponent >= lo_exp and not _is_quartic(entry.exponent)},
        left_cubes=left_cubes,
        right_cubes=left_cubes if config.min_z == lo_exp else set(cubes[config.min_z]),
        right_quartics={entry.value for entry in non_cubes
                        if entry.exponent >= config.min_z and _is_quartic(entry.exponent)},
        cube_partners=_partner_lists(left_other, 63, CUBE_RESIDUES),
        quartic_partners=_partner_lists(left_other, 80, QUARTIC_RESIDUES))
    indexed = time.perf_counter()

    if config.workers == 1 or config.min_z >= config.bound.bit_length():  # no right value
        results = [_match_stripe(lanes, 0, 1)]
    else:
        stripes = [(w, config.workers) for w in range(config.workers)]
        with multiprocessing.Pool(processes=config.workers, initializer=_init_lanes,
                                  initargs=(lanes,)) as pool:
            results = pool.map(_match_in_worker, stripes)

    def base_exponent(value: int) -> tuple[int, int]:  # a value the table lacks is n**3
        return index[value][1:] if value in index else (iroot(value, 3)[0], 3)

    triples = []
    for found, _ in results:
        for pair in found:
            (a, x), (b, y) = map(base_exponent, sorted(pair))
            if max(x, y) >= hi_exp:
                triples.append(BealTriple(a, x, b, y, *base_exponent(sum(pair))))
    return _report(config, triples, len(non_cubes) + len(cubes[min_exp]), pairs_tested,
                   started, enumerated, indexed, sum(probes for _, probes in results))


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
    return _report(config, found, len(table), pairs_tested, started, enumerated,
                   enumerated)
