"""Bounded exhaustive search for A**X + B**Y = C**Z.

The main engine enumerates every reduced-base perfect power up to the bound
and anchors the scan on the right-hand side: for each candidate C**Z = c it
looks up c - B**Y among the left-side powers, with the larger term B**Y
running over the sorted powers in [ceil(c/2), c).  Each lookup is one C-level
set intersection over a lane slice, so no Python bytecode runs per pair.  The
right-side values are striped by index across workers; found pairs are
merged and sorted before annotation, so reports are deterministic for any
worker count.

A deliberately naive triple-enumeration oracle with its own power
enumeration (repeated multiplication, no root extraction, no sum index)
provides the independent cross-check used by the acceptance suite.

Exponent minimums apply to the unordered pair: a canonical hit (A**X <=
B**Y) qualifies when either orientation of its left side meets (min_x,
min_y), equivalently min(X, Y) >= min(min_x, min_y) and max(X, Y) >=
max(min_x, min_y).
"""

from __future__ import annotations

import multiprocessing
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import repeat
from operator import sub

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


def _init_lanes(right, left_set, high, low_set) -> None:
    global _LANES
    _LANES = (right, left_set, high, low_set)


def _match_in_worker(stripe: tuple[int, int]) -> list[tuple[int, int]]:
    return _match_stripe(_LANES, *stripe)


def _match_stripe(lanes: tuple, start: int, step: int) -> list[tuple[int, int]]:
    """All pairs (a, b), a <= b, a + b = c, for right values c[start::step].

    The larger term b is at least ceil(c/2).  When it is a high-exponent
    value, the smaller term c - b may be any left value; otherwise b is
    low-only and the smaller term a = c - b must be high, with a <= c // 2.
    With symmetric minimums every left value is high and the low-only set is
    empty.  The two cases are disjoint, so each qualifying unordered pair is
    found exactly once, and each lookup is a C-level set intersection.
    """
    right, left_set, high, low_set = lanes
    found: list[tuple[int, int]] = []
    for c in right[start::step]:
        first = bisect_left(high, c - c // 2)
        last = bisect_left(high, c, first)
        found.extend((a, c - a) for a in
                     left_set.intersection(map(sub, repeat(c), high[first:last])))
        if low_set:
            last = bisect_right(high, c // 2)
            found.extend((c - b, b) for b in
                         low_set.intersection(map(sub, repeat(c), high[:last])))
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


def search_solutions(config: SearchConfig) -> SearchReport:
    """Find every in-bound solution, annotated and deterministically sorted."""
    started = time.perf_counter()
    lo_exp = min(config.min_x, config.min_y)
    hi_exp = max(config.min_x, config.min_y)
    entries = enumerate_powers(config.bound, min_exp=min(lo_exp, config.min_z))

    power_index = {entry.value: entry for entry in entries}
    right = [entry.value for entry in entries if entry.exponent >= config.min_z]
    left = [entry.value for entry in entries if entry.exponent >= lo_exp]
    high = [entry.value for entry in entries if entry.exponent >= hi_exp]
    low = [entry.value for entry in entries if lo_exp <= entry.exponent < hi_exp]
    lanes = (right, set(left), high, set(low))

    if config.workers == 1 or not right:
        results = [_match_stripe(lanes, 0, 1)]
    else:
        stripes = [(w, config.workers) for w in range(config.workers)]
        with multiprocessing.Pool(processes=config.workers, initializer=_init_lanes,
                                  initargs=lanes) as pool:
            results = pool.map(_match_in_worker, stripes)

    raw_pairs = [pair for found in results for pair in found]
    raw_pairs.sort(key=lambda p: (p[0] + p[1], p[1], p[0]))

    hits = []
    for va, vb in raw_pairs:
        a = power_index[va]
        b = power_index[vb]
        c = power_index[va + vb]
        triple = BealTriple(a.base, a.exponent, b.base, b.exponent, c.base, c.exponent)
        hits.append(annotate_hit(triple, config.minimums))

    # The qualifying pair space (A^X <= B^Y, sum <= bound, either orientation
    # meeting the minimums): all left pairs minus the pairs of two low values.
    pairs_tested = _pairs_within(left, config.bound) - _pairs_within(low, config.bound)
    counts = {
        "powers_enumerated": len(entries),
        "pairs_tested": pairs_tested,
        "hits": len(hits),
    }
    return SearchReport(
        config=config,
        hits=hits,
        counts=counts,
        wall_time_s=time.perf_counter() - started,
    )


def _oracle_powers(bound: int, min_exp: int) -> list[tuple[int, int, int]]:
    """Power table for the oracle, by repeated multiplication only.

    A base is kept when it is not itself a power of a smaller integer, which
    is detected by enumerating all small powers rather than extracting roots.
    """
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
    if bound < 1:
        raise ValueError(f"bound must be >= 1, got {bound}")
    min_x, min_y, min_z = minimums
    started = time.perf_counter()
    lo_exp = min(minimums)
    table = _oracle_powers(bound, lo_exp)
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
    found.sort(key=lambda t: (t.cz, t.by, t.ax))
    hits = [annotate_hit(triple, minimums) for triple in found]
    config = SearchConfig(bound=bound, min_x=min_x, min_y=min_y, min_z=min_z)
    counts = {
        "powers_enumerated": len(table),
        "pairs_tested": pairs_tested,
        "hits": len(hits),
    }
    return SearchReport(
        config=config,
        hits=hits,
        counts=counts,
        wall_time_s=time.perf_counter() - started,
    )
