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
bound**(1/4) of them, and finds each pair from one v, its owner, in one of
five sweeps (named as in SWEEPS):

1. Two cubes (two_cubes): v, the third term, is one identity
   v = x**3 + y**3, solved from each divisor s = x + y of v = A**X with
   s**3 <= 4v (the divisors come from the prime factors of A in a
   smallest-prime-factor table):
   xy = (s**2 - v/s)/3 and (x - y)**2 = s**2 - 4xy, and one integer square
   root fixes x and y.  The sign of y picks the case.  y < 0 (s**3 < v) is
   a difference, v + |y|**3 = x**3, with v a left value; v <= 3s x**2 <=
   3s bound**(2/3) leaves only s with v**3 <= 27 s**3 bound**2.  y > 0
   (s**3 > v) is a sum of the cubes x**3 and y**3, with v a right
   value.  The divisors are built up to the integer cube root of the upper
   bound on s**3, so the walk takes no cube.  The cofactor q = v/s =
   x**2 - xy + y**2 is a norm from Z[w], w a cube root of unity (Ireland and
   Rosen, ch. 9).  With g = gcd(x, y), gcd(s/g, q/g**2) divides 3, and a
   prime p = 2 mod 3 stays prime in Z[w], so it does not divide the norm
   q/g**2 of the coprime x/g + (y/g) w.  These two facts fix which exponents
   of each prime of v the divisor s can have (_divisor_exponents), and the
   walk builds only those divisors (at 10**12, 807 against 13,471; each is
   v mod 6, as 6 divides n**3 - n).  A v outside the 25 residues of
   x**3 + y**3 mod 63 (CUBE_SUM_RESIDUES; -1 is a cube, so a difference of
   cubes has the same residues) is skipped before any divisor: that is
   about 45% of the non-cube values, and a skipped v adds nothing to the
   scan's probe count.  The skip stays mod 63: mod 13 every residue is a
   sum of two cubes, so mod 819 it would pass the same share of values.
2. c is the one cube (cube_c): v = a, over the non-cube b >= a.
3. a or b is the one cube (cube_a_or_b): v = c, over the non-cube x < c
   (the other term).
4. No cube, c in H (no_cube_c_in_h): v = c, over the non-cube x in [c/2, c).
5. No cube, c in Q (no_cube_c_in_q): then a or b is in H, and v = h is that
   term, over the non-cube y; a y in H with y < h is skipped, as that pair
   is found from y.

Sweeps 2 and 3 probe only the partners whose sum or difference with v is a
cube residue mod each of CUBE_SIEVE (9 and the primes p = 1 mod 3 up to 61),
and sweep 5 those whose sum is a 4th-power residue mod each of QUARTIC_SIEVE
(16 and the primes p = 1 mod 4 up to 41).  A k-th power is a k-th power
residue for every modulus, so the sieve drops no pair.  It passes about 3 in
10,000 residues for cubes and 1 in 10,000 for 4th powers; since 819 = 9 * 7
* 13 and 1040 = 16 * 5 * 13, it passes no value that a filter mod 819 or
1040 would drop.  At 10**12 sweeps 2, 3 and 5 probe 253, 527 and 150
partners.  The sieve is a bitset over left_other, built once per search: per
modulus m and shift a < m, one Python int whose bit i is set when
(a + left_other[i]) % m is a residue (_sieve_masks; 378 ints of
len(left_other) bits).  Per value and sweep, the scan ANDs the bits of the
partners' index range with the mask of v mod m (-v mod m in sweep 3; -1 is a
cube) for each m, then probes the few set bits.

The scan takes an explicit list of non-cube entries and runs the five
sweeps as five passes over it, in SWEEPS order.  Each pass picks the values
it applies to (sweep 1 every value; sweep 2 the left values v with 2v <=
bound; sweep 3 the right values; sweep 4 the right values in H; sweep 5 the
left values in H), takes the bounds of all their partners' index ranges at
once with C-level bisects, and then probes value by value.  Per sweep the
scan counts the probes it made and the pairs it found (how much its pass
grew the pair list), and times its pass.

The search holds no list of cubes n**3: one exact test (_cube_test) says
whether a value is a cube term, one exact count (_cubes_upto) how many lie
up to a value.  Only a cube of reduced exponent 3 can have a base above
bound**(1/4), so a PowerEntry table (a sieve over the bases, no root per
base) holds the powers of exponent >= 4: at 10**18, 37,112 entries and none
of the 999,999 cubes.  A hit's term that the table lacks is such a cube; the
triples are built with its base from one integer cube root (cube_term).

The scan is striped by index of v across workers, stripe i the entry list
non_cubes[i::workers]: the search scans stripe 0 itself and forks one child
per other stripe, which reads the lanes from the fork's copy of memory and
sends back what _match_stripe returns, (pairs, tally): its pairs and, per
sweep, its probes, pairs and seconds (marshal, through a pipe).  A search
with no right value forks as any other; its stripes find nothing.  The
annotated hits are sorted by SearchHit.sort_key, so reports are
deterministic for any worker count.  A deliberately naive
triple-enumeration oracle with its own power enumeration (repeated
multiplication, no root extraction, no sum index) provides the independent
cross-check used by the acceptance suite.

Exponent minimums apply to the unordered pair: a canonical hit (A**X <=
B**Y) qualifies when either orientation of its left side meets (min_x,
min_y), equivalently min(X, Y) >= lo and max(X, Y) >= hi, with lo and hi
the smaller and the larger of min_x and min_y, and when Z >= min_z.  All
three are applied once, where the triples are built.  The scan only
prunes: a non-cube is a left value when its exponent is >= lo and a right
value when it is >= min_z, but every cube of exponent >= min(lo, min_z)
serves as either, so a pair found with a cube that misses its minimum is
dropped at the build.  The report's pairs_tested is the size of the
qualifying pair space, the pairs of left values within the bound with at
least one high (exponent >= hi), counted with no list of them (_pairs_tested):
with lo = 3 the left values are the non-cube ones and every n**3.
"""

from __future__ import annotations

import marshal
import os
import time
from array import array
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import partial
from itertools import chain, compress, repeat
from math import gcd, isqrt
from operator import add, mod, sub
from typing import Callable, NamedTuple

from .coprime import Restriction, exponent_restriction
from .errors import BoundTooLarge, ScanWorkerFailed
from .exact_arith import iroot, is_perfect_power
from .reparam import Plane, ReparamPair, canonical_alpha_beta
from .slopes import SlopeSet, slope_set
from .triples import BealTriple

ORACLE_MAX_BOUND = 10 ** 7
# Mostly cubes, which the search counts and never holds: peak RSS 35 MB for 1,036,001
# powers to 10**18, 45 MB for 1,997,936 (to about 7.3 * 10**18).  10**21 needs about 10**7.
MAX_POWERS = 2 * 10 ** 6


class PowerEntry(NamedTuple):
    value: int
    base: int
    exponent: int


class _SearchConfig(NamedTuple):
    bound: int
    min_x: int = 3
    min_y: int = 3
    min_z: int = 3
    workers: int = 1
    seed: int = 0  # echoed in the JSON report only; the search is deterministic


class SearchConfig(_SearchConfig):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.bound < 1:
            raise ValueError(f"bound must be >= 1, got {self.bound}")
        if min(self.min_x, self.min_y, self.min_z) < 3:
            raise ValueError("exponent minimums must be >= 3")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    @property
    def minimums(self) -> tuple[int, int, int]:
        return self.min_x, self.min_y, self.min_z


class SearchHit(NamedTuple):
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


# The five sweeps of the scan (module docstring), in order.
SWEEPS = ("two_cubes", "cube_c", "cube_a_or_b", "no_cube_c_in_h", "no_cube_c_in_q")


class SearchReport:
    """What a search or the oracle found: the ordered hits, counts and timings."""

    def __init__(self, config: SearchConfig, hits: list[SearchHit], counts: dict[str, int],
                 wall_time_s: float, phases: dict[str, float],
                 sweeps: dict[str, dict[str, int]] | None,
                 sweep_seconds: dict[str, float] | None = None):
        self.config = config
        self.hits = hits
        self.counts = counts
        self.wall_time_s = wall_time_s
        self.phases = phases  # seconds, see _report
        # per sweep name, its probes and the pairs it found; None for the oracle
        self.sweeps = sweeps
        self.scan_probes = (None if sweeps is None  # probes of the whole pair scan
                            else sum(sweep["probes"] for sweep in sweeps.values()))
        # per sweep name, its seconds summed over the stripes; None for the oracle
        self.sweep_seconds = sweep_seconds

    @property
    def triples(self) -> list[BealTriple]:
        return [hit.triple for hit in self.hits]

    @property
    def verification_failures(self) -> dict[str, int]:
        """Per check name, the hits that failed it; {} when every hit passed."""
        return dict(Counter(name for hit in self.hits for name in hit.failed_checks()))


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
    half = bisect_right(values, bound // 2)  # the j < half have 2 * values[j] <= bound
    # A j < half pairs with every i <= j.  A j >= half has bound - values[j] <
    # values[half], so its partners i all lie below half.
    return half * (half + 1) // 2 + sum(map(
        bisect_right, repeat(values), map(sub, repeat(bound), values[half:]),
        repeat(0), repeat(half)))


# The residue sieve of sweeps 2, 3 and 5 (module docstring): 9 and the primes
# p = 1 mod 3 up to 61 for cubes, 16 and the primes p = 1 mod 4 up to 41 for
# 4th powers.  Each modulus is below 256, so a residue fits in a byte.
CUBE_SIEVE = (9, 7, 13, 19, 31, 37, 43, 61)
QUARTIC_SIEVE = (16, 5, 13, 17, 29, 37, 41)
# The residues mod 63 of x**3 + y**3, 25 of 63; as -1 is a cube, of x**3 - y**3 too.
_CUBES_MOD_63 = frozenset(pow(n, 3, 63) for n in range(63))  # 9
CUBE_SUM_RESIDUES = frozenset((x + y) % 63 for x in _CUBES_MOD_63 for y in _CUBES_MOD_63)


def _is_quartic(exponent: int) -> bool:
    """A non-cube reduced exponent >= 3 is in class Q: a power of two."""
    return exponent & (exponent - 1) == 0


def _sieve_masks(values: list[int], moduli: tuple[int, ...],
                 power: int) -> list[tuple[int, list[int]]]:
    """Per modulus m of moduli (each below 256), (m, masks): bit i of masks[a]
    is set exactly when (a + values[i]) % m is a power-th power residue mod m.
    The residues mod m are one byte string, last value first, that each
    shift a translates to the binary digits of its mask."""
    sieve = []
    for m in moduli:
        residues = {pow(n, power, m) for n in range(m)}
        admits = bytes(b"01"[r in residues] for r in range(m))  # as digits, per residue
        digits = bytes(map(mod, reversed(values), repeat(m)))
        sieve.append((m, [int(digits.translate((admits[a:] + admits[:a]).ljust(256, b"0"))
                              or b"0", 2) for a in range(m)]))
    return sieve


class _Lanes(NamedTuple):
    """What the scan reads; every list is sorted by value.  It holds the
    non-cubes as PowerEntry tuples, and in index the cubes of exponent >= 6
    too, but no cube of exponent 3: is_cube tests a value."""

    bound: int
    lo_exp: int                 # the smaller left minimum: a non-cube of it is a left value
    min_z: int                  # a non-cube of exponent >= min_z is a right value
    non_cubes: list[PowerEntry]  # the table's entries that are not cubes
    spf: array                  # smallest prime factor of each n <= the largest such base
    left_other: list[int]       # left values that are not cubes
    left_other_set: set[int]    # left_other, for sweep 4's membership test
    index: dict[int, PowerEntry]  # every table value to its entry
    is_cube: Callable[[int], bool]  # _cube_test: a cube that serves as left and right
    # _sieve_masks(left_other, CUBE_SIEVE, 3) and (left_other, QUARTIC_SIEVE, 4):
    # per modulus m, the masks over left_other indexed by a shift mod m
    cube_sieve: list[tuple[int, list[int]]]
    quartic_sieve: list[tuple[int, list[int]]]
    cube_cut: int               # 27 * bound**2: a left v tries the s with s**3 * cube_cut >= v**3


def _cube_test(bound: int, min_exp: int,
               index: dict[int, PowerEntry]) -> Callable[[int], bool]:
    """Whether c is a cube of reduced exponent >= min_exp up to bound: the
    scan's one cube test, for left and right values alike.  With min_exp 3
    every n**3 (n >= 2) is one.  MAX_POWERS keeps such a bound below 2**63,
    where x ** (1/3) errs by under 2**-49 relatively (float(x), the float
    1/3, pow), so by under 2**-28 on a root below 2**21: it rounds to n for
    x = n**3 and to n or n + 1 below (n + 1)**3, so cubing it back decides
    exactly, here and in _cubes_upto.  Past 3 a cube is a table entry (index)
    of an exponent 3 divides, found with no float: those values may pass
    2**1024."""
    if min_exp == 3:
        return lambda c: 8 <= c <= bound and round(c ** (1 / 3)) ** 3 == c
    return lambda c: (entry := index.get(c)) is not None and entry.exponent % 3 == 0


def _cubes_upto(x: int) -> int:
    """How many n**3 (n >= 2) are at most x, exact as _cube_test argues."""
    n = round(x ** (1 / 3)) if x >= 8 else 2  # below 8, 2**3 > x leaves none
    return n - 1 - (n * n * n > x)


def _smallest_prime_factors(limit: int) -> array:
    """spf[n] is the smallest prime factor of n for 2 <= n <= limit (spf[1] = 1)."""
    spf = array("q", range(limit + 1))
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == p:
            for n in range(p * p, limit + 1, p):
                if spf[n] == n:
                    spf[n] = p
    return spf


_BIT_FLAGS = bytes.maketrans(b"01", b"\0\1")  # binary digits to compress selectors


def _sieved(values: list[int], sieve: list[tuple[int, list[int]]], r: int,
            first: int, last: int) -> list[int]:
    """The values[first:last] whose bit is set in the mask of r mod m for
    each modulus m of sieve.  The few bits left are read from the top, each
    step shortening the int; past 1,024 (a sieve with no modulus) one
    C-level pass over the binary digits costs less."""
    candidates = (1 << last) - (1 << first)
    for m, masks in sieve:
        candidates &= masks[r % m]
    if candidates.bit_count() > 1024:
        return list(compress(values, bin(candidates)[:1:-1].encode().translate(_BIT_FLAGS)))
    found = []
    while candidates:
        i = candidates.bit_length() - 1
        found.append(values[i])
        candidates ^= 1 << i
    return found


def _match_stripe(lanes: _Lanes, entries: list[PowerEntry]) -> tuple[
        list[tuple[int, int]], list[tuple[int, int, float]]]:
    """(pairs, tally): the unordered pairs (a, b) of left values with a + b a
    right value whose owner (see the module docstring) is one of the
    non-cube entries, where any cube that lanes.is_cube admits counts as
    left and as right; and, per sweep in SWEEPS order, (probes, pairs,
    seconds): the number of probes made (the partners the sieve passed, or
    the divisors _cube_pairs tried), how much its pass grew the pair list
    and the seconds of that pass.

    Each sweep is one pass over the entries it applies to, which takes the
    partners' index bounds of all of them at once, at C level.  Most sieves
    pass no partner and most probes find nothing, so each step runs only on
    what the last one left.
    """
    bound, lo_exp, min_z = lanes.bound, lanes.lo_exp, lanes.min_z
    left_other, left_other_set, index = lanes.left_other, lanes.left_other_set, lanes.index
    is_cube, cube_sieve, quartic_sieve = lanes.is_cube, lanes.cube_sieve, lanes.quartic_sieve
    found: list[tuple[int, int]] = []
    tally: list[tuple[int, int, float]] = []  # per sweep: probes, pairs, seconds

    # v a sum or difference of two cubes
    started, probed, before = time.perf_counter(), 0, len(found)
    for entry in entries:
        owned, tried = _cube_pairs(lanes, entry, entry.exponent >= lo_exp, entry.exponent >= min_z)
        found += owned
        probed += tried
    tally.append((probed, len(found) - before, time.perf_counter() - started))

    # v = a, c a cube
    started, probed, before = time.perf_counter(), 0, len(found)
    half = bound // 2
    values = [entry.value for entry in entries if entry.exponent >= lo_exp and entry.value <= half]
    firsts = list(map(bisect_left, repeat(left_other), values))
    lasts = map(bisect_right, repeat(left_other), map(sub, repeat(bound), values), firsts)
    for v, first, last in zip(values, firsts, lasts):
        partners = _sieved(left_other, cube_sieve, v, first, last)
        probed += len(partners)
        if partners:
            found.extend((v, c - v) for c in filter(is_cube, map(add, repeat(v), partners)))
    tally.append((probed, len(found) - before, time.perf_counter() - started))

    # v = c, one of a, b a cube; -1 a cube
    started, probed, before = time.perf_counter(), 0, len(found)
    values = [entry.value for entry in entries if entry.exponent >= min_z]
    for v, last in zip(values, map(bisect_left, repeat(left_other), values)):
        partners = _sieved(left_other, cube_sieve, -v, 0, last)
        probed += len(partners)
        if partners:
            found.extend((v - x, x) for x in filter(is_cube, map(sub, repeat(v), partners)))
    tally.append((probed, len(found) - before, time.perf_counter() - started))

    # v = c in H, no cube
    started, probed, before = time.perf_counter(), 0, len(found)
    values = [entry.value for entry in entries
              if entry.exponent >= min_z and not _is_quartic(entry.exponent)]
    firsts = list(map(bisect_left, repeat(left_other), [v - v // 2 for v in values]))
    lasts = map(bisect_left, repeat(left_other), values, firsts)
    for v, first, last in zip(values, firsts, lasts):
        probed += last - first
        if terms := left_other_set.intersection(map(sub, repeat(v), left_other[first:last])):
            found.extend((v - x, x) for x in terms)
    tally.append((probed, len(found) - before, time.perf_counter() - started))

    # v in H, no cube, c in Q
    started, probed, before = time.perf_counter(), 0, len(found)
    values = [entry.value for entry in entries
              if entry.exponent >= lo_exp and not _is_quartic(entry.exponent)]
    lasts = map(bisect_right, repeat(left_other), map(sub, repeat(bound), values))
    for v, last in zip(values, lasts):
        partners = _sieved(left_other, quartic_sieve, v, 0, last)
        probed += len(partners)
        if partners and (sums := index.keys() & map(add, repeat(v), partners)):
            found.extend((v, c - v) for c in sums if (z := index[c].exponent) >= min_z and
                         _is_quartic(z) and (c - v >= v or _is_quartic(index[c - v].exponent)))
    tally.append((probed, len(found) - before, time.perf_counter() - started))
    return found, tally


def _match_forked(lanes: _Lanes, workers: int) -> list[tuple]:
    """_match_stripe over every stripe of workers, in stripe order, stripe i
    the entries lanes.non_cubes[i::workers]: stripe 0 here, each other
    stripe in a forked child that sees the lanes through
    the fork's copy of memory and sends its result back through a pipe.

    Raises ScanWorkerFailed when a child raises, exits non-zero or dies.
    Every child's pipe is read to its end and every child is reaped before
    this returns or raises.  A fork copies only the calling thread, so a
    caller that runs threads of its own should search with one worker.
    """
    children = []  # (stripe, pid, read end of its pipe)
    try:
        for stripe in range(1, workers):
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except OSError:  # no child to hand the pipe to
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:  # the child: it never returns, nor runs the parent's exit code
                code = 1
                try:
                    os.close(read_fd)
                    with open(write_fd, "wb") as pipe:
                        pipe.write(marshal.dumps(
                            _match_stripe(lanes, lanes.non_cubes[stripe::workers])))
                    code = 0
                except BaseException:  # not re-raised: that would run the parent's code here
                    import traceback  # only a failing child pays for this import
                    traceback.print_exc()
                finally:
                    os._exit(code)
            os.close(write_fd)
            children.append((stripe, pid, open(read_fd, "rb")))
        results = [_match_stripe(lanes, lanes.non_cubes[::workers])]
    finally:
        outputs, failed = [], []
        for stripe, pid, pipe in children:
            with pipe:
                outputs.append(pipe.read())
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if code:
                how = f"exited with code {code}" if code > 0 else f"died of signal {-code}"
                failed.append(f"stripe {stripe} of {workers} {how}")
    if failed:
        raise ScanWorkerFailed(f"scan worker failed: {'; '.join(failed)}")
    return results + [marshal.loads(data) for data in outputs]


def _divisor_exponents(p: int, e: int) -> tuple[range, ...]:
    """The exponents j that the prime p can have in s = x + y when
    v = x**3 + y**3 and p**e exactly divides v, as at most two ascending,
    disjoint ranges.  The two-cube walk reads this name at each call.

    With g = gcd(x, y), s = g s' and q = v/s = g**2 q', where gcd(s', q')
    divides 3 and q' is the norm of the coprime x/g + (y/g) w in Z[w], which
    no prime p = 2 mod 3 divides and 3 divides at most once.  So with
    i = v_p(g) <= e/3, e = 3i + v_p(s') + v_p(q') and j = i + v_p(s'):
      p = 1 mod 3: j = i < e/3 (p divides q', not s') or j = e - 2i (p does
        not divide q');
      p = 2 mod 3: j = e - 2i;
      p = 3: j = e/3 (3 divides neither s' nor q') or j = e - 1 - 2i with
        3i + 2 <= e (3 divides q' once and s' at least once).
    """
    third = e // 3
    if p == 3:
        return range(third, third + (e % 3 == 0)), range(e - 1 - 2 * ((e - 2) // 3), e, 2)
    outside_q = range(e - 2 * third, e + 1, 2)
    return (range((e + 2) // 3), outside_q) if p % 3 == 1 else (outside_q,)


def _cube_pairs(lanes: _Lanes, entry: PowerEntry, left: bool,
                right: bool) -> tuple[list[tuple[int, int]], int]:
    """The pairs whose other two terms are cubes, for the non-cube v = entry.value
    as a left term (left) and as the sum (right), and the number of divisors
    s = x + y of v tried, one solve of v = x**3 + y**3 each (module docstring).

    A v whose residue mod 63 is not in CUBE_SUM_RESIDUES is no sum or
    difference of two cubes, and tries no divisor.  The walk builds only the
    divisors whose exponent of each prime p of v is one of
    _divisor_exponents(p, v_p(v)), each at most the integer cube root of the
    upper bound on s**3, so it takes no cube, and builds the powers of p in
    ascending order until one passes that root.
    """
    v = entry.value
    if v % 63 not in CUBE_SUM_RESIDUES:
        return [], 0
    spf, is_cube = lanes.spf, lanes.is_cube
    least = -(-v ** 3 // lanes.cube_cut) if left else v + 1  # s**3 >= least
    high = iroot(4 * v if right else v - 1, 3)[0]                      # s <= high
    divisors = [1]
    n = entry.base
    while n > 1 and divisors:  # a prime with no allowed exponent leaves no divisor
        p = spf[n]
        k = 0
        while spf[n] == p:
            n //= p
            k += 1
        grown = []
        for exponents in _divisor_exponents(p, k * entry.exponent):
            if not exponents:
                continue
            first = p ** exponents.start
            if first > high:  # the ranges ascend: so do the later ones
                break
            step = p ** exponents.step
            for s in divisors:
                s *= first
                for _ in exponents:
                    if s > high:
                        break
                    grown.append(s)
                    s *= step
        divisors = grown
    tried = [s for s in divisors if s * s * s >= least]
    found: list[tuple[int, int]] = []
    for s in tried:
        xy, r = divmod(s * s - v // s, 3)
        square = s * s - 4 * xy  # (x - y)**2
        if r or (root := isqrt(square)) * root != square:
            continue
        x, y = (s + root) >> 1, (s - root) >> 1  # root**2 = s**2 mod 4: same parity
        if is_cube(y_cube := abs(y) ** 3) and is_cube(x_cube := x ** 3):
            found.append((v, y_cube) if y < 0 else (y_cube, x_cube))
    return found, len(tried)


def verify_hit(triple: BealTriple, minimums: tuple[int, int, int] = (3, 3, 3),
               reduced: dict | None = None) -> SearchHit:
    """Run every hit-level check on a candidate triple.

    Checks: exact equation, reduced bases (>= 2, not perfect powers),
    canonical ordering, orientation-aware exponent minimums, common factor
    > 1, the divisibility restriction on (X, Y, Z), rational root-form
    slopes matching C/B and C/A, and rational-canonical-parameter /
    common-factor consistency.  Failures are recorded, not raised.  The
    slopes and canonical pair the checks read are kept on the hit.

    Every check reads the triple alone, never the power table that found it:
    a check that read the table would not check it.  reduced maps each base
    tested so far to whether it is reduced; the hits of one search share it
    (_report), so each base is tested once.
    """
    A, X, B, Y, C, Z = triple
    min_x, min_y, min_z = minimums
    if reduced is None:
        reduced = {}
    for base in (A, B, C):
        if base not in reduced:
            reduced[base] = base >= 2 and is_perfect_power(base) is None
    ax, by, gcd_abc = A ** X, B ** Y, gcd(A, B, C)
    checks = {
        "equation_exact": ax + by == C ** Z,
        "bases_reduced": reduced[A] and reduced[B] and reduced[C],
        "canonical_order": ax <= by,
        "exponent_minimums": (min(X, Y) >= min(min_x, min_y)
                              and max(X, Y) >= max(min_x, min_y) and Z >= min_z),
        "common_factor_present": gcd_abc > 1,
        "exponent_restriction": (min(X, Y, Z) >= 3 and exponent_restriction(X, Y, Z)
                                 is Restriction.PERMITTED),
    }

    slopes = slope_set(triple)
    m_cb, m_ca, _ = slopes
    checks["slopes_rational"] = (  # m_cb == C/B and m_ca == C/A, cross-multiplied
        isinstance(m_cb, Fraction)
        and isinstance(m_ca, Fraction)
        and m_cb.numerator * B == C * m_cb.denominator
        and m_ca.numerator * A == C * m_ca.denominator
    )

    pair = canonical_alpha_beta(triple, Plane.CB)
    checks["rational_parameters_imply_common_factor"] = gcd_abc > 1 or not (
        pair.alpha.classification.is_rational or pair.beta.classification.is_rational)

    return SearchHit(triple, checks, slopes, pair)


def annotate_hit(triple: BealTriple, minimums: tuple[int, int, int] = (3, 3, 3),
                 reduced: dict | None = None) -> SearchHit:
    """The verified hit for a found triple; the per-hit step a search report times."""
    return verify_hit(triple, minimums, reduced)


def _pairs_tested(bound: int, lo_exp: int, hi_exp: int, table: list[PowerEntry],
                  left_other: list[int]) -> int:
    """pairs_tested (module docstring), every n**3 counted by _cubes_upto."""
    left, cubes_upto = left_other, _cubes_upto
    if lo_exp > 3:  # the table holds every left value: no cube is counted apart
        left = [entry.value for entry in table if entry.exponent >= lo_exp]
        cubes_upto = partial(bisect_right, [])
    if hi_exp > lo_exp:  # pairs of two high values, then of a high h and a low value <= bound - h
        high = [entry.value for entry in table if entry.exponent >= hi_exp]
        partners = list(map(sub, repeat(bound), high))
        return (_pairs_within(high, bound) + sum(map(cubes_upto, partners))
                + sum(map(bisect_right, repeat(left), partners))
                - sum(map(bisect_right, repeat(high), partners)))
    # pairs within left, of two cubes up to bound/2, and of each v in left or each
    # larger cube with the cubes up to bound - v
    half, last = cubes_upto(bound // 2), cubes_upto(bound)
    larger = map(pow, range(half + 2, last + 2), repeat(3))
    return (_pairs_within(left, bound) + half * (half + 1) // 2
            + sum(map(cubes_upto, map(sub, repeat(bound), chain(left, larger)))))


def _report(config: SearchConfig, triples: list[BealTriple], powers_enumerated: int,
            pairs_tested: int, started: float, enumerated: float, indexed: float,
            sweeps: dict[str, dict[str, int]] | None = None,
            sweep_seconds: dict[str, float] | None = None) -> SearchReport:
    """Annotate and order the found triples; the one report path of both engines.

    The hits share one verify_hit reduced dict for this call only: at 10**12
    only 359 of their 594 bases are distinct.

    started, enumerated and indexed are the perf_counter readings at the
    start, at the end of power enumeration and at the end of the index
    build; the scan phase runs until this call.
    """
    scanned = time.perf_counter()
    reduced = {}
    hits = sorted((annotate_hit(triple, config.minimums, reduced) for triple in triples),
                  key=lambda hit: hit.sort_key)
    counts = {"powers_enumerated": powers_enumerated, "pairs_tested": pairs_tested,
              "hits": len(hits)}
    done = time.perf_counter()
    phases = {"enumerate_s": enumerated - started, "index_s": indexed - enumerated,
              "scan_s": scanned - indexed, "annotate_s": done - scanned}
    return SearchReport(config, hits, counts, done - started, phases, sweeps, sweep_seconds)


def search_solutions(config: SearchConfig) -> SearchReport:
    """Find every in-bound solution, annotated and deterministically sorted.

    Raises BoundTooLarge before building anything when the power table, as
    counted from one integer root per exponent, would exceed MAX_POWERS.
    """
    started = time.perf_counter()
    lo_exp, hi_exp = sorted((config.min_x, config.min_y))
    min_exp = min(lo_exp, config.min_z)
    powers = 0
    for e in range(min_exp, config.bound.bit_length()):
        powers += iroot(config.bound, e)[0] - 1
        if powers > MAX_POWERS:
            raise BoundTooLarge(f"bound {config.bound} needs more than the "
                                f"{MAX_POWERS} powers a search builds")
    table = enumerate_powers(config.bound, max(min_exp, 4))  # no cube of exponent 3
    enumerated = time.perf_counter()

    index = {entry.value: entry for entry in table}
    non_cubes = [entry for entry in table if entry.exponent % 3]
    powers_enumerated = (len(table) if min_exp > 3  # past 3 the table holds every power
                         else len(non_cubes) + iroot(config.bound, 3)[0] - 1)  # n**3, n >= 2
    left_other = [entry.value for entry in non_cubes if entry.exponent >= lo_exp]
    pairs_tested = _pairs_tested(config.bound, lo_exp, hi_exp, table, left_other)
    lanes = _Lanes(
        bound=config.bound,
        lo_exp=lo_exp,
        min_z=config.min_z,
        non_cubes=non_cubes,
        spf=_smallest_prime_factors(max((entry.base for entry in non_cubes), default=1)),
        left_other=left_other,
        left_other_set=set(left_other),
        index=index,
        is_cube=_cube_test(config.bound, min_exp, index),
        cube_sieve=_sieve_masks(left_other, CUBE_SIEVE, 3),
        quartic_sieve=_sieve_masks(left_other, QUARTIC_SIEVE, 4),
        cube_cut=27 * config.bound ** 2)
    indexed = time.perf_counter()

    results = _match_forked(lanes, config.workers)

    def cube_term(value: int) -> tuple[int, int, int]:  # a term the table lacks: n**3, base n
        return value, iroot(value, 3)[0], 3

    # per sweep, its probes, found pairs and seconds, each summed over the stripes
    totals = [list(map(sum, zip(*stripes))) for stripes in zip(*(tally for _, tally in results))]
    sweeps = {name: {"probes": probes, "pairs": pairs}
              for name, (probes, pairs, _) in zip(SWEEPS, totals)}
    sweep_seconds = {name: seconds for name, (_, _, seconds) in zip(SWEEPS, totals)}
    triples = []
    for found, _ in results:
        for a, b in map(sorted, found):
            _, c, z = index.get(a + b) or cube_term(a + b)
            _, a, x = index.get(a) or cube_term(a)
            _, b, y = index.get(b) or cube_term(b)
            if min(x, y) >= lo_exp and max(x, y) >= hi_exp and z >= config.min_z:
                triples.append(BealTriple(a, x, b, y, c, z))
    return _report(config, triples, powers_enumerated, pairs_tested,
                   started, enumerated, indexed, sweeps, sweep_seconds)


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
