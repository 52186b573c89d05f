"""Search engine: enumeration, oracle equivalence, determinism, verification."""

import hashlib
import os
import random
from bisect import bisect_left, bisect_right
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import repeat
from math import gcd, lcm, prod
from operator import sub

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bealsearch.search as search_mod
from bealsearch.errors import BoundTooLarge
from bealsearch.exact_arith import factorize, iroot, is_perfect_power
from bealsearch.records import canonical_json
from bealsearch.search import (ORACLE_MAX_BOUND, PowerEntry, SearchConfig, annotate_hit,
                               brute_force_oracle, enumerate_powers, search_solutions,
                               verify_hit)
from bealsearch.triples import BealTriple


def test_enumerate_powers_examples():
    entries = enumerate_powers(100, 3)
    assert [entry.value for entry in entries] == [8, 16, 27, 32, 64, 81]
    assert [entry.value for entry in enumerate_powers(8, 3)] == [8]
    assert enumerate_powers(7, 3) == []


def test_enumerate_powers_bases_are_reduced():
    for entry in enumerate_powers(10 ** 6, 3):
        base, exponent = entry.base, entry.exponent
        assert base ** exponent == entry.value
        assert exponent >= 3
        # base is not a perfect power: no smaller-base representation exists
        assert all(b ** e != base for b in range(2, 32) for e in range(2, 21)
                   if b ** e <= base)


def _reference_powers(bound: int, min_exp: int) -> list[PowerEntry]:
    """enumerate_powers built from is_perfect_power, one root extraction per base."""
    entries = []
    base = 2
    while base ** min_exp <= bound:
        if is_perfect_power(base) is None:
            value, exponent = base ** min_exp, min_exp
            while value <= bound:
                entries.append(PowerEntry(value, base, exponent))
                value, exponent = value * base, exponent + 1
        base += 1
    return sorted(entries, key=lambda entry: entry.value)


def test_enumerate_powers_matches_perfect_power_reference():
    # Every threshold of enumerate_powers (2**min_exp, each n**min_exp that
    # moves its base limit, each value it appends) is a reference value, so
    # its table changes only at a reference value v: the bounds v - 1, v and
    # v + 1, and 1 and the top, meet every distinct table and both sides of
    # each cut-off.  For min_exp 1 every n >= 2 is a value, so that is every
    # bound, and its top is 300 (3,000 tables of up to 3,000 took 2 s); then
    # the one table at 3,000.
    for min_exp, top in ((1, 300), (2, 3000), (3, 3000), (4, 3000)):
        reference = _reference_powers(top, min_exp)
        values = [entry.value for entry in reference]
        bounds = {1, top} | {b for v in values for b in (v - 1, v, v + 1) if 1 <= b <= top}
        for bound in sorted(bounds):
            expected = reference[:bisect_right(values, bound)]
            assert enumerate_powers(bound, min_exp) == expected, (bound, min_exp)
    assert enumerate_powers(3000, 1) == _reference_powers(3000, 1)
    for bound in (10 ** 12, 10 ** 13):
        entries = enumerate_powers(bound, 3)
        assert all(type(entry) is PowerEntry for entry in entries), bound
        assert entries == _reference_powers(bound, 3), bound


def test_power_entry_is_a_tuple_in_field_order():
    entry = PowerEntry(8, 2, 3)
    assert entry == (8, 2, 3) and (entry.value, entry.base, entry.exponent) == (8, 2, 3)
    value, base, exponent = enumerate_powers(100, 3)[-1]
    assert (value, base, exponent) == (81, 3, 4)


def test_search_examples():
    report = search_solutions(SearchConfig(bound=20))
    assert report.triples == [BealTriple(2, 3, 2, 3, 2, 4)]
    assert search_solutions(SearchConfig(bound=10)).hits == []
    report = search_solutions(SearchConfig(bound=3000))
    triples = report.triples
    assert BealTriple(3, 3, 6, 3, 3, 5) in triples
    assert BealTriple(7, 3, 7, 4, 14, 3) in triples
    assert all(hit.triple.gcd_abc > 1 for hit in report.hits)


def test_search_hits_are_sorted_and_verified():
    report = search_solutions(SearchConfig(bound=10 ** 5))
    keys = [hit.sort_key for hit in report.hits]
    assert keys == sorted(keys)
    assert all(hit.passed for hit in report.hits)
    assert all(hit.triple.equation_holds for hit in report.hits)


def test_completeness_spot_checks():
    report = search_solutions(SearchConfig(bound=2 ** 40))
    triples = set(report.triples)
    for k in range(3, 40):
        assert BealTriple(2, k, 2, k, 2, k + 1) in triples, k
    assert BealTriple(3, 3, 6, 3, 3, 5) in triples
    assert BealTriple(3, 6, 18, 3, 3, 8) in triples      # 729 + 5832 = 6561
    assert BealTriple(7, 3, 7, 4, 14, 3) in triples
    assert BealTriple(33, 5, 66, 5, 33, 6) in triples    # 33^5 + 66^5 = 33^6
    # B^Y and C^Z both cubes: the first hits where the larger term is a cube
    # and the smaller a difference of two cubes
    assert BealTriple(13, 5, 91, 3, 104, 3) in triples   # 13^5 + 91^3 = 104^3
    assert BealTriple(61, 4, 244, 3, 305, 3) in triples  # 61^4 + 244^3 = 305^3


def test_each_cube_pattern_has_a_named_hit():
    # One hit per class of the scan, by which terms are cubes and the class
    # of C^Z (see the search module docstring); removing any branch loses one.
    triples = set(search_solutions(SearchConfig(bound=10 ** 10)).triples)
    assert BealTriple(2, 3, 2, 3, 2, 4) in triples      # cube + cube = non-cube
    assert BealTriple(7, 3, 7, 4, 14, 3) in triples     # cube + non-cube = cube
    assert BealTriple(13, 5, 91, 3, 104, 3) in triples  # non-cube + cube = cube
    assert BealTriple(31, 5, 31, 6, 62, 5) in triples   # non-cube + cube = non-cube
    assert BealTriple(2, 5, 2, 5, 2, 6) in triples      # non-cube + non-cube = cube
    assert BealTriple(2, 4, 2, 4, 2, 5) in triples      # no cube, C^Z in H
    assert BealTriple(2, 7, 2, 7, 2, 8) in triples      # no cube, C^Z in Q


def test_oracle_equivalence_small_bounds():
    # pairs_tested is the size of the qualifying pair space, which both
    # engines count the same way: A^X <= B^Y, A^X + B^Y <= bound and either
    # orientation meeting the minimums.
    cases = (((3, 3, 3), 10 ** 4, 594), ((3, 3, 3), 10 ** 5, 2440),
             ((3, 3, 3), 10 ** 6, 10262), ((4, 3, 3), 10 ** 5, 1848),
             ((4, 4, 3), 10 ** 5, 637))
    for minimums, bound, pairs in cases:
        min_x, min_y, min_z = minimums
        fast = search_solutions(SearchConfig(bound=bound, min_x=min_x, min_y=min_y,
                                             min_z=min_z))
        slow = brute_force_oracle(bound, minimums)
        assert fast.triples == slow.triples, (minimums, bound)
        counts = (fast.counts["pairs_tested"], slow.counts["pairs_tested"])
        assert counts == (pairs, pairs), (minimums, bound)


def test_oracle_equivalence_at_the_oracle_ceiling():
    # Below 10^6 no hit has B^Y and C^Z both cubes (the first is
    # 13^5 + 91^3 = 104^3), so the random property above cannot see a
    # difference of cubes whose cube is the larger term; at 10^7 the oracle
    # still runs in about a second.
    for minimums, workers in (((3, 3, 3), (1, 2)), ((4, 3, 3), (1,))):
        slow = brute_force_oracle(ORACLE_MAX_BOUND, minimums)
        for w in workers:
            min_x, min_y, min_z = minimums
            fast = search_solutions(SearchConfig(bound=ORACLE_MAX_BOUND, min_x=min_x,
                                                 min_y=min_y, min_z=min_z, workers=w))
            assert fast.triples == slow.triples, (minimums, w)
            assert fast.counts["pairs_tested"] == slow.counts["pairs_tested"]
        assert BealTriple(13, 5, 91, 3, 104, 3) in slow.triples


@cache
def _lookup_reference(bound: int, minimums: tuple[int, int, int]) -> list[BealTriple]:
    """The plain right-anchored scan: for each C^Z, look up C^Z - B^Y over
    every left value B^Y in [C^Z/2, C^Z), one Python-level lookup per pair.
    Cached, as several tests read the same bound; callers must not mutate it."""
    min_x, min_y, min_z = minimums
    lo, hi = sorted((min_x, min_y))
    entries = enumerate_powers(bound, min(lo, min_z))
    left = {entry.value: entry for entry in entries if entry.exponent >= lo}
    values = sorted(left)
    found = []
    for c in entries:
        if c.exponent < min_z:
            continue
        for vb in values[bisect_left(values, c.value - c.value // 2):
                         bisect_left(values, c.value)]:
            a, b = left.get(c.value - vb), left[vb]
            if a is not None and max(a.exponent, b.exponent) >= hi:
                found.append(BealTriple(a.base, a.exponent, b.base, b.exponent,
                                        c.base, c.exponent))
    return sorted(found, key=lambda t: (t.cz, t.by, t.ax))


# The search module's names that switch its exact filters off: the residue
# sieve has no modulus, every v may be a sum of two cubes, and the two-cube
# walk builds every divisor, each prime with every exponent.  A scan with
# them set shares no filter with the real one, so it checks the filters past
# the oracle's ceiling (bench/run.py --completeness sets them at 10**16).
_FILTER_FREE = {"CUBE_SIEVE": (), "QUARTIC_SIEVE": (),
                "CUBE_SUM_RESIDUES": frozenset(range(63)),
                "_divisor_exponents": lambda p, e: (range(e + 1),)}


def test_filter_free_scan_finds_the_same_hits(monkeypatch):
    filtered = search_solutions(SearchConfig(10 ** 14))
    for name, value in _FILTER_FREE.items():
        monkeypatch.setattr(search_mod, name, value)
    free = search_solutions(SearchConfig(10 ** 14))
    assert free.triples == filtered.triples and len(free.triples) == 416
    assert free.scan_probes > filtered.scan_probes
    # each filtered sweep probes more without its filter; no_cube_c_in_h has none
    for name in search_mod.SWEEPS:
        probes, free_probes = filtered.sweeps[name]["probes"], free.sweeps[name]["probes"]
        assert free_probes == probes if name == "no_cube_c_in_h" else free_probes > probes, name
        assert free.sweeps[name]["pairs"] == filtered.sweeps[name]["pairs"], name


def _pairs_reference(bound: int, minimums: tuple[int, int, int],
                     entries: list[PowerEntry] | None = None) -> int:
    """pairs_tested counted from the full power table (entries: the powers of
    exponent >= min(minimums) up to bound, by default built here with
    enumerate_powers(bound, min(minimums))): each left value a with its
    partners b >= a, a + b <= bound, where either orientation of (a, b)
    meets (min_x, min_y): every left b for a high a, and a high b for a low
    a.  Only an a with 2a <= bound has any."""
    min_x, min_y, _ = minimums
    lo, hi = sorted((min_x, min_y))
    if entries is None:
        entries = enumerate_powers(bound, min(minimums))
    left = [entry for entry in entries if entry.exponent >= lo]
    values = [entry.value for entry in left]
    high = [entry.value for entry in left if entry.exponent >= hi]
    low = [entry.value for entry in left if entry.exponent < hi]
    count = 0
    for smaller, partners in ((high, values), (low, high)):
        smaller = smaller[:bisect_right(smaller, bound // 2)]
        starts = map(bisect_left, repeat(partners), smaller)
        ends = map(bisect_right, repeat(partners), map(sub, repeat(bound), smaller))
        count += sum(max(0, end - start) for start, end in zip(starts, ends))
    return count


@pytest.mark.parametrize("minimums", [(3, 3, 3), (3, 4, 3), (3, 5, 4), (4, 4, 3),
                                      (3, 3, 4), (3, 5, 3), (4, 3, 3), (3, 3, 6),
                                      (5, 5, 5)])
def test_search_matches_plain_lookup_past_the_oracle(minimums):
    min_x, min_y, min_z = minimums
    report = search_solutions(SearchConfig(bound=10 ** 10, min_x=min_x, min_y=min_y,
                                           min_z=min_z))
    assert report.triples == _lookup_reference(10 ** 10, minimums)
    # The search counts its powers and pairs without building the full table.
    assert report.counts["powers_enumerated"] == len(enumerate_powers(10 ** 10, min(minimums)))
    assert report.counts["pairs_tested"] == _pairs_reference(10 ** 10, minimums)


def test_search_counts_its_powers_and_pairs_with_no_cube_list(monkeypatch):
    # The counts only, with the scan and its sieves stubbed out, against the
    # full table of exponent >= 3 to the largest bound, cut at each bound.
    # 10**12 is a cube; 2**40 and 10**16 = (10**4)**4 are non-cube left values
    # equal to the bound, whose bound - v = 0 must count no cube.  The
    # minimums take both branches of _pairs_tested, equal and unequal.
    monkeypatch.setattr(search_mod, "_match_forked", lambda lanes, workers: [])
    monkeypatch.setattr(search_mod, "_sieve_masks", lambda values, moduli, power: [])
    bounds = (1, 7, 8, 9, 16, 17, 2 ** 40, 10 ** 12, 10 ** 16 - 1, 10 ** 16, 10 ** 16 + 1)
    table = enumerate_powers(max(bounds), 3)
    values = [entry.value for entry in table]
    for bound in bounds:
        entries = table[:bisect_right(values, bound)]
        for minimums in ((3, 3, 3), (4, 3, 3), (3, 5, 4), (4, 4, 3), (6, 6, 3)):
            counts = search_solutions(SearchConfig(bound, *minimums)).counts
            # every minimum here is 3 or more and one of them is 3
            assert counts["powers_enumerated"] == len(entries), (bound, minimums)
            assert counts["pairs_tested"] == _pairs_reference(bound, minimums, entries), (
                bound, minimums)


@pytest.mark.parametrize("bound, minimums, pairs", [(10 ** 12, (3, 3, 3), 56_872_575),
                                                     (10 ** 13, (4, 3, 3), 50_162_473)])
def test_pairs_tested_at_the_benchmark_sizes(bound, minimums, pairs):
    # 10**13 with minimums 4,3,3 counts the pairs with a high value: of two
    # high values, and of a high value with a low one
    assert search_solutions(SearchConfig(bound, *minimums)).counts["pairs_tested"] == pairs


def _reduced(base: int, exponent: int) -> tuple[int, int]:
    """(r, exponent * k) for base = r**k with k as large as it goes."""
    for k in range(base.bit_length(), 1, -1):
        root, exact = iroot(base, k)
        if exact:
            return root, exponent * k
    return base, exponent


def _common_factor_family(bound: int) -> set[BealTriple]:
    """The classical common-factor solutions up to bound, with no power table:
    from a**x + b**y = s (a, b >= 1, x, y >= 3) and a common multiple m of x
    and y with z | m + 1, z >= 3,
        (a * s**(m/x))**x + (b * s**(m/y))**y = (s**((m + 1)/z))**z,
    with reduced bases and the smaller left term first.  As m + 1 >= 4,
    s <= bound**(1/4); a base a or b of 1 allows any exponent."""
    found = set()
    s_max = iroot(bound, 4)[0]
    for x in range(3, bound.bit_length()):
        for y in range(x, bound.bit_length()):
            for a in range(1, iroot(s_max - 1, x)[0] + 1):
                for b in range(1, iroot(s_max - a ** x, y)[0] + 1):
                    s = a ** x + b ** y
                    m = lcm(x, y)
                    while s ** (m + 1) <= bound:
                        for z in range(3, m + 2):
                            if (m + 1) % z == 0:
                                left = sorted([_reduced(a * s ** (m // x), x),
                                               _reduced(b * s ** (m // y), y)],
                                              key=lambda term: term[0] ** term[1])
                                found.add(BealTriple(*left[0], *left[1],
                                                     *_reduced(s ** ((m + 1) // z), z)))
                        m += lcm(x, y)
    return found


def _scaled_family(bound: int) -> set[BealTriple]:
    """The solutions scaled from a**x + b**y = t * c**z (1 <= a, b <= 100,
    t >= 2, 3 <= x, y, z <= 7, gcd(lcm(x, y), z) = 1) up to bound, with no
    power table: with N >= 1 the least N = 0 mod lcm(x, y) and N = -1 mod z,
        (a * t**(N/x))**x + (b * t**(N/y))**y = (c * t**((N + 1)/z))**z,
    with reduced bases and the smaller left term first.  The sum is
    s * t**N for s = a**x + b**y, so t <= (bound / s)**(1/N)."""
    found = set()
    for x in range(3, 8):
        for y in range(x, 8):
            m = lcm(x, y)
            for z in range(3, 8):
                if gcd(m, z) > 1:
                    continue
                n = next(n for n in range(m, m * z + 1, m) if (n + 1) % z == 0)
                for a in range(1, 101):
                    for b in range(a if x == y else 1, 101):
                        s = a ** x + b ** y
                        if s << n > bound:  # t >= 2
                            continue
                        t_max = iroot(bound // s, n)[0]
                        # t = s / c**z <= t_max: c**z >= s / t_max, and t >= 2
                        c_low, exact = iroot(-(-s // t_max), z)
                        for c in range(c_low + (not exact), iroot(s // 2, z)[0] + 1):
                            t, r = divmod(s, c ** z)
                            if r == 0:
                                left = sorted([_reduced(a * t ** (n // x), x),
                                               _reduced(b * t ** (n // y), y)],
                                              key=lambda term: term[0] ** term[1])
                                found.add(BealTriple(*left[0], *left[1],
                                                     *_reduced(c * t ** ((n + 1) // z), z)))
    return found


def test_common_factor_family_is_among_the_hits():
    small = _common_factor_family(10 ** 6)
    assert small <= set(brute_force_oracle(10 ** 6).triples)
    # 8 + 8 = 2**4 (a = b = 1, s = 2) and 9**3 + 18**3 = 9**4 (1 + 8 = 9), reduced
    assert {BealTriple(2, 3, 2, 3, 2, 4), BealTriple(3, 6, 18, 3, 3, 8)} <= small
    family = _common_factor_family(10 ** 14)
    hits = search_solutions(SearchConfig(10 ** 14)).triples
    assert family <= set(hits)
    # the family is 150 of the 416 hits (36%); the rest need no such construction
    assert (len(family), len(hits)) == (150, 416)


def test_scaled_family_is_among_the_hits():
    small = _scaled_family(10 ** 6)
    assert small <= set(brute_force_oracle(10 ** 6).triples)
    # 1 + 1 = 2 * 1**7 (t = 2, c = 1, N = 6): 4**3 + 4**3 = 2**7, reduced
    assert BealTriple(2, 6, 2, 6, 2, 7) in small
    family = _scaled_family(10 ** 14)
    # 8**3 + 19**3 = 3**4 * 91 (t = 91, c = 3, N = 3): 728**3 + 1729**3 = 273**4,
    # a two-cube hit
    assert BealTriple(728, 3, 1729, 3, 273, 4) in family
    hits = search_solutions(SearchConfig(10 ** 14)).triples
    assert all(triple.equation_holds for triple in family)
    assert family <= set(hits)
    # with the common-factor family, 199 of the 416 hits (48%)
    assert (len(family), len(family | _common_factor_family(10 ** 14))) == (171, 199)


def _scan_lanes(monkeypatch, config):
    """The lanes search_solutions hands to the scan, caught on their way in."""
    caught = []
    real = search_mod._match_stripe

    def catching(lanes, entries):
        caught.append(lanes)
        return real(lanes, entries)

    monkeypatch.setattr(search_mod, "_match_stripe", catching)
    search_solutions(config)
    monkeypatch.undo()
    return caught[0]


@pytest.mark.parametrize("bound, minimums, named", [
    (10 ** 12, (3, 3, 3), []),
    # 129^7 + 258^7 = 129^8: two H terms with c in Q, found from 129^7 and
    # skipped from 258^7
    (10 ** 17, (5, 5, 5), [(129 ** 7, 258 ** 7)])])
def test_scan_finds_each_pair_once(monkeypatch, bound, minimums, named):
    # Each pair has one owner among the five sweeps of the module docstring,
    # however the non-cubes are split into the entry lists the scan takes.
    lanes = _scan_lanes(monkeypatch, SearchConfig(bound, *minimums))
    reference = sorted((t.ax, t.by) for t in _lookup_reference(bound, minimums))
    assert set(named) <= set(reference)
    entries = lanes.non_cubes
    _, whole = search_mod._match_stripe(lanes, entries)
    assert len(whole) == len(search_mod.SWEEPS)
    size = -(-len(entries) // 4)
    shuffled = entries[:]
    random.Random(30).shuffle(shuffled)
    splits = {f"strided {step}": [entries[start::step] for start in range(step)]
              for step in (1, 2, 3)}
    splits["contiguous"] = [entries[i:i + size] for i in range(0, len(entries), size)]
    splits["random 5"] = [shuffled[k::5] for k in range(5)]
    splits["one entry"] = [[entry] for entry in entries]
    for name, split in splits.items():
        assert sorted(entry for part in split for entry in part) == entries, name
        results = [search_mod._match_stripe(lanes, part) for part in split]
        found = [tuple(sorted(pair)) for pairs, _ in results for pair in pairs]
        assert len(found) == len(set(found)), name
        assert sorted(found) == reference, name
        for pairs, tally in results:  # a sweep's pairs are what its pass added
            assert sum(count for _, count, _ in tally) == len(pairs), name
        # the per-sweep counts add up to those of the whole list
        for k, (probes, count, _) in enumerate(whole):
            assert sum(tally[k][0] for _, tally in results) == probes, name
            assert sum(tally[k][1] for _, tally in results) == count, name


def test_sweep_5_keeps_only_sums_that_are_right_values(monkeypatch):
    # Sweep 5 reads the sums' exponents from the table's value index, which
    # also holds 4th powers below min_z: at 10^11 with minimums 3,3,3 the
    # sweep finds 7 pairs, 5 of them with a sum of exponent 4.
    def sweep_5_sums(minimums):
        lanes = _scan_lanes(monkeypatch, SearchConfig(10 ** 11, *minimums))
        found, tally = search_mod._match_stripe(lanes, lanes.non_cubes)
        return sorted(lanes.index[a + b].exponent for a, b in found[len(found) - tally[4][1]:])

    assert sweep_5_sums((3, 3, 3)) == [4, 4, 4, 4, 4, 8, 32]
    assert sweep_5_sums((3, 3, 5)) == [8, 32]


def _is_residue(r: int, modulus: int, power: int) -> bool:
    return any(pow(n, power, modulus) == r % modulus for n in range(modulus))


def test_scan_reads_the_sieves_of_its_left_values(monkeypatch):
    lanes = _scan_lanes(monkeypatch, SearchConfig(10 ** 12))
    assert search_mod.CUBE_SIEVE == (9, 7, 13, 19, 31, 37, 43, 61)
    assert search_mod.QUARTIC_SIEVE == (16, 5, 13, 17, 29, 37, 41)
    assert lanes.cube_sieve == search_mod._sieve_masks(lanes.left_other, search_mod.CUBE_SIEVE, 3)
    assert lanes.quartic_sieve == search_mod._sieve_masks(lanes.left_other,
                                                          search_mod.QUARTIC_SIEVE, 4)
    # 378 masks of at most one bit per left value
    masks = [mask for sieve in (lanes.cube_sieve, lanes.quartic_sieve) for _, ms in sieve
             for mask in ms]
    assert len(masks) == 378 and max(masks).bit_length() <= len(lanes.left_other)


@pytest.mark.parametrize("moduli, power", [((9, 7, 13, 19, 31, 37, 43, 61), 3),
                                           ((16, 5, 13, 17, 29, 37, 41), 4),
                                           ((63, 80, 255, 2), 3), ((255, 1), 4)],
                         ids=["cube-sieve", "quartic-sieve", "63-80-255-2", "255-1"])
def test_sieve_masks_match_their_definition(moduli, power):
    rng = random.Random(sum(moduli))
    for size, bits in ((0, 8), (1, 8), (50, 12), (400, 40), (300, 90)):
        # distinct values, past 2^64 at 90 bits
        values = sorted({rng.getrandbits(bits) + 1 for _ in range(size)})
        sieve = search_mod._sieve_masks(values, moduli, power)
        assert [m for m, _ in sieve] == list(moduli)
        for m, masks in sieve:
            admitted = {pow(n, power, m) for n in range(m)}
            assert len(masks) == m
            for a, mask in enumerate(masks):
                bits_set = [i for i in range(size) if mask >> i & 1]
                assert bits_set == [i for i, y in enumerate(values)
                                    if (a + y) % m in admitted], (size, bits, m, a)
                assert mask < 1 << len(values)
    assert search_mod._sieve_masks([], (9, 16), 3) == [(9, [0] * 9), (16, [0] * 16)]
    assert search_mod._sieve_masks([5, 8], (), 3) == []


def test_sieved_keeps_the_range_values_every_modulus_admits():
    # With the cube sieve a few bits survive and are cleared one at a time;
    # with no modulus every bit of a range past 1,024 values is read in one pass.
    rng = random.Random(31)
    for size in (0, 1, 64, 3000):
        values = sorted({rng.getrandbits(90) for _ in range(size)})  # past 2^64
        size = len(values)
        for moduli in (search_mod.CUBE_SIEVE, (9, 7), ()):
            sieve = search_mod._sieve_masks(values, moduli, 3)
            cubes = {m: {pow(n, 3, m) for n in range(m)} for m in moduli}
            for r in (0, 1, -5, rng.getrandbits(70), -rng.getrandbits(70)):
                for first, last in {(0, size), (0, size // 2), (size // 3, size), (size, size)}:
                    expected = [y for y in values[first:last]
                                if all((r + y) % m in cubes[m] for m in moduli)]
                    found = search_mod._sieved(values, sieve, r, first, last)
                    assert sorted(found) == expected, (size, moduli, r, first, last)


def test_sieves_pass_no_value_the_old_filters_drop():
    # 819 = 9 * 7 * 13 and 1040 = 16 * 5 * 13, each factor a sieve modulus:
    # so by the Chinese remainder theorem a residue that passes every
    # modulus of a sieve is a cube (4th-power) residue mod 819 (1040), and
    # the sieve probes no partner that a filter mod 819 (1040) would skip.
    for moduli, power, old in ((search_mod.CUBE_SIEVE, 3, 819),
                               (search_mod.QUARTIC_SIEVE, 4, 1040)):
        assert all(gcd(m, n) == 1 for i, m in enumerate(moduli) for n in moduli[i + 1:])
        assert all(m < 256 for m in moduli)
        factors = [m for m in moduli if old % m == 0]
        assert sorted(factors) == ([7, 9, 13] if power == 3 else [5, 13, 16])
        assert prod(factors) == old
        old_residues = {pow(n, power, old) for n in range(old)}
        passed = {r for r in range(old) if all(_is_residue(r, m, power) for m in factors)}
        assert passed == old_residues, old
    # each modulus is 9, 16 or a prime with a proper subgroup of k-th powers
    for moduli, power in ((search_mod.CUBE_SIEVE, 3), (search_mod.QUARTIC_SIEVE, 4)):
        for m in moduli:
            assert m in (9, 16) or (m % power == 1 and factorize(m) == [(m, 1)]), m
    # a k-th power is a residue for every modulus, so the sieve drops no power
    bases = random.Random(29).sample(range(10 ** 12), 500)
    for moduli, power in ((search_mod.CUBE_SIEVE, 3), (search_mod.QUARTIC_SIEVE, 4)):
        assert all(_is_residue(n ** power, m, power) for n in bases for m in moduli)


def _largest_admitted_bound() -> int:
    """The largest bound whose table of powers of exponent >= 3 MAX_POWERS admits."""
    def powers(bound: int) -> int:  # as search_solutions counts them
        return sum(iroot(bound, e)[0] - 1 for e in range(3, bound.bit_length()))

    low, high = 8, 2 ** 64  # powers(low) <= MAX_POWERS < powers(high)
    while high - low > 1:
        middle = (low + high) // 2
        low, high = (middle, high) if powers(middle) <= search_mod.MAX_POWERS else (low, middle)
    return low


def test_cube_test_is_exact_at_the_largest_admitted_bound(monkeypatch):
    def no_table(bound, min_exp=3):
        raise _Built(bound, min_exp)

    bound = _largest_admitted_bound()
    monkeypatch.setattr(search_mod, "enumerate_powers", no_table)
    with pytest.raises(_Built):  # admitted: it reaches the table
        search_solutions(SearchConfig(bound))
    with pytest.raises(BoundTooLarge):
        search_solutions(SearchConfig(bound + 1))
    assert bound < 2 ** 63
    is_cube = search_mod._cube_test(bound, 3, {})
    n = iroot(bound, 3)[0]
    assert is_cube(n ** 3) and is_cube(8) and is_cube(27)
    assert not any(map(is_cube, (n ** 3 - 1, n ** 3 + 1, (n + 1) ** 3, 0, 1, 7, 9)))
    # the cubes just below the largest and their neighbours, and seeded values
    for k in range(n - 2000, n + 1):
        assert is_cube(k ** 3) and not is_cube(k ** 3 - 1) and not is_cube(k ** 3 + 1), k
    rng = random.Random(40)
    for c in (rng.randrange(8, bound + 1) for _ in range(20_000)):
        assert is_cube(c) == iroot(c, 3)[1], c
    # the count of the cubes n**3 (n >= 2) that pairs_tested reads, by the same argument
    cubes_upto = search_mod._cubes_upto
    assert [cubes_upto(x) for x in range(10)] == [0] * 8 + [1, 1]
    assert cubes_upto(bound) == n - 1
    for k in range(n - 2000, n + 1):
        assert (cubes_upto(k ** 3 - 1), cubes_upto(k ** 3), cubes_upto(k ** 3 + 1)) == (
            k - 2, k - 1, k - 1), k
    rng = random.Random(41)
    for x in (rng.randrange(1, bound + 1) for _ in range(20_000)):
        assert cubes_upto(x) == iroot(x, 3)[0] - 1, x


def test_cube_test_past_3_reads_the_table_with_no_float():
    bound = 2 ** 1100
    table = enumerate_powers(bound, 300)
    index = {entry.value: entry for entry in table}
    is_cube = search_mod._cube_test(bound, 300, index)
    assert [entry for entry in table if is_cube(entry.value)] == [
        entry for entry in table if entry.exponent % 3 == 0]
    # values past float range that the table lacks, and the cube of a table
    # base whose exponent is below the minimum
    assert not any(map(is_cube, (2 ** 1101, 3 ** 900 + 1, 7 ** 3, 1, 8)))


def test_search_past_float_range_finds_its_pinned_hits():
    # Its cube terms pass 2**1024, where a float cube root would raise.
    report = search_solutions(SearchConfig(2 ** 1100, 300, 300, 300))
    assert len(report.hits) == 800 and report.sweeps["two_cubes"]["pairs"] == 267
    assert max(t.cz for t in report.triples).bit_length() == 1101
    assert hashlib.sha256(canonical_json(report).encode()).hexdigest() == (
        "4026023625dcd8c1be60ee1173a27a546cf7d2d6d677801391e3dfb698bedf56")


def _pairs_within_reference(values, bound):
    return sum(1 for j, b in enumerate(values) for a in values[:j + 1] if a + b <= bound)


def test_pairs_within_counts_every_pair_once():
    pairs_within = search_mod._pairs_within
    assert pairs_within([], 10) == 0
    assert pairs_within([5, 8, 13], 9) == 0      # below every sum
    assert pairs_within([5, 8, 13], 13) == 2     # equal to the sum 5 + 8, not to 5 + 13
    assert pairs_within([7], 13) == 0 and pairs_within([7], 14) == 1  # 2v for one value
    assert pairs_within([7, 20], 14) == 1
    rng = random.Random(5)
    for size in (2, 3, 10, 60):
        values = sorted(rng.sample(range(1, 200), size))
        for bound in {0, 1, 2 * values[0], values[0] + values[-1], 2 * values[-1],
                      *rng.sample(range(400), 20)}:
            assert pairs_within(values, bound) == _pairs_within_reference(values, bound)


def test_cube_sum_residues_are_those_of_sums_and_differences_of_cubes():
    sums = {(x ** 3 + y ** 3) % 63 for x in range(63) for y in range(63)}
    assert search_mod.CUBE_SUM_RESIDUES == sums
    assert {(x ** 3 - y ** 3) % 63 for x in range(63) for y in range(63)} == sums
    assert len(sums) == 25


def test_two_cube_pairs_have_a_cube_sum_residue():
    # Every reference pair with exactly two cube terms has its third term in
    # a residue class mod 63 that the two-cube solve does not skip.
    two_cubes = 0
    for t in _lookup_reference(10 ** 12, (3, 3, 3)):
        terms = ((t.ax, t.X), (t.by, t.Y), (t.cz, t.Z))
        others = [value for value, exponent in terms if exponent % 3]
        if len(others) == 1:
            two_cubes += 1
            assert others[0] % 63 in search_mod.CUBE_SUM_RESIDUES, t
    assert two_cubes >= 10


def test_cube_sum_skip_loses_no_pair(monkeypatch):
    # At 10^14, past the plain reference's reach, the two-cube solve finds
    # the same pairs with and without the mod-63 skip.
    lanes = _scan_lanes(monkeypatch, SearchConfig(10 ** 14))

    def solve_all():
        found, tried = [], 0
        for entry in lanes.non_cubes:
            pairs, probes = search_mod._cube_pairs(lanes, entry, entry.exponent >= lanes.lo_exp,
                                                    entry.exponent >= lanes.min_z)
            assert not pairs or entry.value % 63 in search_mod.CUBE_SUM_RESIDUES, entry
            found += pairs
            tried += probes
        return sorted(found), tried

    skipped, skipped_tried = solve_all()
    monkeypatch.setattr(search_mod, "CUBE_SUM_RESIDUES", frozenset(range(63)))
    unskipped, unskipped_tried = solve_all()
    assert skipped == unskipped and len(skipped) >= 10
    assert skipped_tried < unskipped_tried


def test_cube_sum_is_the_sum_of_its_terms_mod_6():
    rng = random.Random(6)
    signed = [*range(-40, 41), *(rng.randrange(-2 ** 80, 2 ** 80) for _ in range(200))]
    for x in signed:
        for y in signed[::7]:
            assert (x ** 3 + y ** 3 - x - y) % 6 == 0, (x, y)


def _valuation(n: int, p: int) -> int:
    k = 0
    while n % p == 0:
        n //= p
        k += 1
    return k


def test_divisor_exponents_hold_every_sum_and_difference_of_cubes():
    # Every x**3 + y**3 and every x**3 - y**3 > 0 with 1 <= x, y <= 150, shared
    # factors included: each prime p of v has v_p(x + y), or v_p(x - y), among
    # the exponents _divisor_exponents allows for v_p(v).
    checks = 0
    for x in range(1, 151):
        for y in range(1, 151):
            for v, s in ((x ** 3 + y ** 3, x + y), (x ** 3 - y ** 3, x - y)):
                if v <= 0:
                    continue
                for p, e in factorize(v):
                    exponents = search_mod._divisor_exponents(p, e)
                    assert any(_valuation(s, p) in js for js in exponents), (x, y, p, e)
                    checks += 1
    assert checks == 114_963
    # The exponent ranges ascend and are disjoint, and each lies in 0..e.
    for p in (2, 3, 5, 7, 11, 13):
        for e in range(40):
            ranges = [js for js in search_mod._divisor_exponents(p, e) if js]
            flat = [j for js in ranges for j in js]
            assert flat == sorted(set(flat)) and all(0 <= j <= e for j in flat), (p, e)
    # Every divisor built from the allowed exponents is v mod 6, so the walk
    # needs no residue filter; a v with 3 exactly once has no such divisor.
    rng = random.Random(28)
    for _ in range(2000):
        primes = rng.sample([2, 3, 5, 7, 11, 13, 17, 19, 23, 29], rng.randrange(1, 5))
        exponents = [rng.randrange(1, 13) for _ in primes]
        v = 1
        for p, e in zip(primes, exponents):
            v *= p ** e
        divisors = [1]
        for p, e in zip(primes, exponents):
            divisors = [s * p ** j for s in divisors
                        for js in search_mod._divisor_exponents(p, e) for j in js]
        assert all(s % 6 == v % 6 for s in divisors), v
        assert not divisors or _valuation(v, 3) != 1, v


def test_divisor_filter_loses_no_pair(monkeypatch):
    # At 10^14 the two-cube solve finds the same pairs whether it walks only
    # the divisors with allowed exponents or every divisor, and tries far fewer.
    lanes = _scan_lanes(monkeypatch, SearchConfig(10 ** 14))

    def solve_all():
        found, tried = [], 0
        for entry in lanes.non_cubes:
            pairs, probes = search_mod._cube_pairs(lanes, entry, entry.exponent >= lanes.lo_exp,
                                                    entry.exponent >= lanes.min_z)
            for pair in pairs:  # s = x + y, from the cube roots of the two cube terms
                cubes = [t for t in (*pair, sum(pair)) if t != entry.value]
                x, y = (iroot(t, 3)[0] for t in cubes)
                s = x + y if sum(pair) == entry.value else max(x, y) - min(x, y)
                # a consequence of the allowed exponents, no longer a filter
                assert entry.value % s == 0 and s % 6 == entry.value % 6, (entry, pair)
            found += pairs
            tried += probes
        return sorted(found), tried

    filtered, filtered_tried = solve_all()
    monkeypatch.setattr(search_mod, "_divisor_exponents", _FILTER_FREE["_divisor_exponents"])
    unfiltered, unfiltered_tried = solve_all()
    assert filtered == unfiltered and len(filtered) == 343
    assert (filtered_tried, unfiltered_tried) == (2_809, 55_352)


def test_scan_probes_are_counted_and_few():
    reports = [search_solutions(SearchConfig(bound=10 ** 12, workers=w)) for w in (1, 2)]
    assert reports[0].scan_probes == reports[1].scan_probes
    assert 0 < reports[0].scan_probes < reports[0].counts["pairs_tested"] // 20
    assert brute_force_oracle(10 ** 4).scan_probes is None


@pytest.mark.parametrize("bound, minimums", [(10 ** 12, (3, 3, 3)), (10 ** 13, (4, 3, 3))])
def test_sweep_counts_add_up_and_do_not_depend_on_workers(bound, minimums):
    reports = [search_solutions(SearchConfig(bound, *minimums, workers=w)) for w in (1, 2, 3)]
    sweeps = reports[0].sweeps
    assert list(sweeps) == list(search_mod.SWEEPS)
    assert all(report.sweeps == sweeps for report in reports)
    assert sum(sweep["probes"] for sweep in sweeps.values()) == reports[0].scan_probes
    # every sweep finds pairs; the larger minimum then drops some, never adds one
    assert all(sweep["pairs"] > 0 for sweep in sweeps.values())
    assert sum(sweep["pairs"] for sweep in sweeps.values()) >= reports[0].counts["hits"]
    assert brute_force_oracle(10 ** 4).sweeps is None


def test_sweep_seconds_are_per_sweep_and_within_the_scan():
    for workers in (1, 2):
        report = search_solutions(SearchConfig(10 ** 12, workers=workers))
        assert list(report.sweep_seconds) == list(search_mod.SWEEPS)
        assert all(seconds >= 0 for seconds in report.sweep_seconds.values())
        if workers == 1:  # with more, the stripes' seconds overlap
            assert sum(report.sweep_seconds.values()) <= report.phases["scan_s"]
    assert brute_force_oracle(10 ** 4).sweep_seconds is None


@settings(max_examples=20, deadline=None)
@given(bound=st.integers(min_value=1, max_value=10 ** 6),
       minimums=st.tuples(*[st.integers(min_value=3, max_value=6)] * 3),
       workers=st.sampled_from([1, 2]))
def test_search_matches_oracle_property(bound, minimums, workers):
    min_x, min_y, min_z = minimums
    config = SearchConfig(bound=bound, min_x=min_x, min_y=min_y, min_z=min_z,
                          workers=workers)
    fast = search_solutions(config)
    slow = brute_force_oracle(bound, minimums)
    assert fast.triples == slow.triples
    assert fast.counts["pairs_tested"] == slow.counts["pairs_tested"]


class _UnbuildableExponent(int):
    """An exponent minimum whose power 2**m must never be built."""

    def __rpow__(self, base, modulo=None):
        raise AssertionError(f"{base}**{int(self)} was built")


def test_huge_exponent_minimums_build_no_power():
    huge = _UnbuildableExponent(10 ** 7)
    assert enumerate_powers(10 ** 12, huge) == []
    assert search_mod._oracle_powers(10 ** 6, huge) == []
    report = search_solutions(SearchConfig(bound=10 ** 12, min_x=huge, min_y=huge,
                                           min_z=huge))
    assert report.hits == [] and report.counts["powers_enumerated"] == 0
    assert brute_force_oracle(10 ** 6, (huge, huge, huge)).hits == []
    # the cut-off is exact: 2**39 <= 10**12 < 2**40
    assert enumerate_powers(10 ** 12, 39)[0].value == 2 ** 39
    assert enumerate_powers(10 ** 12, 40) == []


def test_search_builds_no_entry_for_a_cube_of_exponent_3(monkeypatch):
    # The cubes n**3 of exponent 3 are plain values: the table starts at exponent 4.
    calls = []
    real = search_mod.enumerate_powers

    def recording(bound, min_exp=3):
        calls.append(min_exp)
        return real(bound, min_exp)

    monkeypatch.setattr(search_mod, "enumerate_powers", recording)
    for minimums in ((3, 3, 3), (4, 3, 3), (3, 3, 4), (5, 4, 6), (5, 5, 5)):
        assert search_solutions(SearchConfig(10 ** 8, *minimums)).hits
    assert calls == [4, 4, 4, 4, 5]


class _Built(Exception):
    """Raised by a stand-in enumerate_powers: the bound passed the ceiling."""


def test_search_refuses_a_power_table_that_cannot_fit(monkeypatch):
    def no_table(bound, min_exp=3):
        raise _Built(bound, min_exp)

    monkeypatch.setattr(search_mod, "enumerate_powers", no_table)
    for minimums in ((3, 3, 3), (4, 3, 3), (3, 3, 4)):
        with pytest.raises(BoundTooLarge, match="powers a search builds"):
            search_solutions(SearchConfig(10 ** 21, *minimums))
    # 10**18 (1,036,001 powers) and 10**21 with exponents >= 4 reach the table
    with pytest.raises(_Built):
        search_solutions(SearchConfig(10 ** 18))
    with pytest.raises(_Built):
        search_solutions(SearchConfig(10 ** 21, 4, 4, 4))


def test_oracle_rejects_large_bounds():
    with pytest.raises(BoundTooLarge):
        brute_force_oracle(10 ** 7 + 1)


def test_oracle_trivial_bounds():
    assert brute_force_oracle(20).triples == [BealTriple(2, 3, 2, 3, 2, 4)]
    assert brute_force_oracle(10).hits == []


def test_worker_determinism():
    reports = [search_solutions(SearchConfig(bound=10 ** 5, workers=w)) for w in (1, 2, 8)]
    assert reports[0].triples == reports[1].triples == reports[2].triples
    assert (reports[0].counts["pairs_tested"]
            == reports[1].counts["pairs_tested"]
            == reports[2].counts["pairs_tested"])


def test_search_with_no_right_value_scans_with_every_worker(monkeypatch):
    # min_z = 20 >= (10**6).bit_length(): no power is a right value, so no
    # stripe finds a pair, yet the scan still forks as the workers say.
    config = SearchConfig(bound=10 ** 6, min_z=20)
    assert config.min_z >= config.bound.bit_length()
    calls = []
    real = search_mod._match_forked

    def recording(lanes, workers):
        calls.append(workers)
        return real(lanes, workers)

    monkeypatch.setattr(search_mod, "_match_forked", recording)
    reports = [search_solutions(config._replace(workers=w)) for w in (1, 2)]
    assert calls == [1, 2]
    assert [report.hits for report in reports] == [[], []]
    one, two = map(canonical_json, reports)  # the config echo differs in workers only
    assert two.replace('"workers": 2', '"workers": 1') == one


@pytest.mark.parametrize("workers", [1, 2])
def test_search_leaves_no_module_state_and_no_child(workers):
    before = dict(vars(search_mod))
    report = search_solutions(SearchConfig(bound=10 ** 8, workers=workers))
    assert report.counts["hits"] > 0
    assert vars(search_mod).keys() == before.keys()
    assert all(vars(search_mod)[name] is value for name, value in before.items())
    with pytest.raises(ChildProcessError):  # every forked child was reaped
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open fds from /proc")
def test_failed_fork_leaves_no_open_pipe(monkeypatch):
    def no_fork():
        raise BlockingIOError("fork: resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    open_fds = os.listdir("/proc/self/fd")
    with pytest.raises(BlockingIOError):
        search_solutions(SearchConfig(bound=10 ** 8, workers=2))
    assert os.listdir("/proc/self/fd") == open_fds


def test_asymmetric_minimums_accept_either_orientation():
    # 7^3 + 7^4 = 14^3 qualifies for min_x=4 because the 7^4 side can play X
    report = search_solutions(SearchConfig(bound=3000, min_x=4))
    triples = report.triples
    assert BealTriple(7, 3, 7, 4, 14, 3) in triples
    # 3^3 + 6^3 = 3^5 has no exponent >= 4 on the left side
    assert BealTriple(3, 3, 6, 3, 3, 5) not in triples
    assert BealTriple(2, 3, 2, 3, 2, 4) not in triples
    assert BealTriple(2, 4, 2, 4, 2, 5) in triples


def test_min_z_filter():
    report = search_solutions(SearchConfig(bound=20, min_z=5))
    assert report.hits == []  # 2^4 = 16 fails min_z
    report = search_solutions(SearchConfig(bound=40, min_z=5))
    assert report.triples == [BealTriple(2, 4, 2, 4, 2, 5)]


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(bound=-5)
    with pytest.raises(ValueError):
        SearchConfig(bound=100, min_x=2)
    with pytest.raises(ValueError):
        SearchConfig(bound=100, workers=0)
    with pytest.raises(ValueError):
        SearchConfig(bound=100)._replace(workers=0)
    assert repr(SearchConfig(100)) == ("SearchConfig(bound=100, min_x=3, min_y=3, min_z=3, "
                                       "workers=1, seed=0)")


def test_beal_triple_checks_its_fields():
    triple = BealTriple(3, 3, 6, 3, 3, 5)
    assert repr(triple) == "BealTriple(A=3, X=3, B=6, Y=3, C=3, Z=5)"
    with pytest.raises(ValueError, match="B must be a positive integer, got 0"):
        BealTriple(3, 3, 0, 3, 3, 5)
    with pytest.raises(ValueError, match="Z must be a positive integer, got -1"):
        triple._replace(Z=-1)
    with pytest.raises(ValueError, match="X must be a positive integer, got 0"):
        BealTriple(3, 0, 6, -2, 3, 5)  # the first bad field is named
    assert BealTriple(A=3, X=3, B=6, Y=3, C=3, Z=5) == triple
    with pytest.raises(TypeError):
        BealTriple(3, 3, 6, 3, 3)


def test_verify_hit_examples():
    hit = verify_hit(BealTriple(3, 3, 6, 3, 3, 5))
    assert hit.passed and hit.triple.gcd_abc == 3

    hit = verify_hit(BealTriple(2, 3, 2, 3, 2, 5))
    assert not hit.passed
    assert "equation_exact" in hit.failed_checks()


def test_verify_hit_slopes_rational_means_the_slopes_are_c_over_b_and_c_over_a():
    names = ["equation_exact", "bases_reduced", "canonical_order", "exponent_minimums",
             "common_factor_present", "exponent_restriction", "slopes_rational",
             "rational_parameters_imply_common_factor"]
    hit = verify_hit(BealTriple(3, 3, 6, 3, 3, 5))
    assert list(hit.checks) == names and hit.checks["slopes_rational"]
    # 2^3 + 2^3 = 2^4, not 3^4: both slopes are 2/2, rational but not 3/2
    hit = verify_hit(BealTriple(2, 3, 2, 3, 3, 4))
    assert hit.slopes.m_cb == hit.slopes.m_ca == Fraction(1)
    assert list(hit.checks) == names and not hit.checks["slopes_rational"]
    # 2^3 + 3^3 = 35 is no cube: both slopes are irrational
    hit = verify_hit(BealTriple(2, 3, 3, 3, 5, 3))
    assert not isinstance(hit.slopes.m_cb, Fraction) and not isinstance(hit.slopes.m_ca, Fraction)
    assert list(hit.checks) == names and not hit.checks["slopes_rational"]


def test_verify_hit_relaxed_reduction():
    # 4^3 + 4^3 = 2^7 is a solution on unreduced bases: every other check holds
    hit = verify_hit(BealTriple(4, 3, 4, 3, 2, 7))
    assert hit.failed_checks() == ["bases_reduced"]
    assert hit.triple.canonical() == BealTriple(2, 6, 2, 6, 2, 7)


def test_verify_hit_orientation_aware_minimums():
    hit = verify_hit(BealTriple(7, 3, 7, 4, 14, 3), minimums=(4, 3, 3))
    assert hit.checks["exponent_minimums"]
    hit = verify_hit(BealTriple(3, 3, 6, 3, 3, 5), minimums=(4, 3, 3))
    assert not hit.checks["exponent_minimums"]


def test_annotate_hit_bundle():
    hit = annotate_hit(BealTriple(3, 3, 6, 3, 3, 5))
    assert hit.triple.gcd_abc == 3
    assert hit.pair.alpha.classification.value == 2
    assert hit.pair.beta.classification.kind == "irrational"
    assert hit.slopes.m_cb == hit.triple.C / hit.triple.B == 0.5
    assert hit.passed


def test_annotate_hit_computes_slopes_and_pair_once(monkeypatch):
    import bealsearch.search as search_mod

    calls = Counter()

    def counting(name):
        real = getattr(search_mod, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("slope_set", "canonical_alpha_beta"):
        monkeypatch.setattr(search_mod, name, counting(name))
    for triple, minimums in ((BealTriple(3, 3, 6, 3, 3, 5), (3, 3, 3)),
                             (BealTriple(7, 3, 7, 4, 14, 3), (4, 3, 3)),
                             (BealTriple(3, 3, 6, 3, 3, 5), (4, 3, 3))):
        calls.clear()
        hit = annotate_hit(triple, minimums)
        assert calls == {"slope_set": 1, "canonical_alpha_beta": 1}
        assert hit == verify_hit(triple, minimums)


@pytest.mark.parametrize("config", [SearchConfig(10 ** 12),
                                    SearchConfig(10 ** 13, 4, 3, 3, workers=2)])
def test_search_hits_are_what_verify_hit_gives_alone(config):
    hits = search_solutions(config).hits
    assert len(hits) > 190
    for hit in hits:
        assert hit == verify_hit(hit.triple, config.minimums)


# Non-reduced bases (4, 8, 9, 27) and a base of 1, each in several triples and
# positions, among solutions and non-solutions.
_SHARED_BASE_TRIPLES = [BealTriple(*t) for t in (
    (4, 3, 4, 3, 2, 7), (2, 6, 2, 6, 2, 7), (8, 2, 8, 2, 2, 7), (2, 3, 2, 3, 4, 2),
    (9, 3, 18, 3, 9, 4), (9, 3, 18, 3, 3, 8), (27, 3, 8, 3, 9, 5), (8, 3, 4, 3, 27, 3),
    (1, 3, 2, 3, 3, 2), (3, 3, 6, 3, 3, 5), (2, 3, 3, 3, 5, 3), (4, 3, 4, 3, 2, 7),
    (7, 3, 7, 4, 14, 3), (3, 4, 27, 3, 4, 4))]


def _shared_report(triples, minimums=(3, 3, 3)):
    started = 0.0
    return search_mod._report(SearchConfig(10 ** 12, *minimums), triples, 0, 0,
                              started, started, started)


@pytest.mark.parametrize("minimums", [(3, 3, 3), (4, 3, 3)])
def test_shared_verification_gives_each_hit_its_own_checks(minimums):
    hits = _shared_report(_SHARED_BASE_TRIPLES, minimums).hits
    assert Counter(hit.triple for hit in hits) == Counter(_SHARED_BASE_TRIPLES)
    for hit in hits:
        assert hit.checks == verify_hit(hit.triple, minimums).checks
    assert {hit.checks["bases_reduced"] for hit in hits} == {True, False}


def test_is_perfect_power_runs_once_per_distinct_base_in_a_report(monkeypatch):
    calls = Counter()
    real = search_mod.is_perfect_power
    monkeypatch.setattr(search_mod, "is_perfect_power",
                        lambda n: calls.update([n]) or real(n))
    bases = {base for t in _SHARED_BASE_TRIPLES for base in (t.A, t.B, t.C) if base >= 2}
    _shared_report(_SHARED_BASE_TRIPLES)
    assert calls == Counter(bases)
    # the answers live for one report only: a second report asks again
    _shared_report(_SHARED_BASE_TRIPLES)
    assert calls == Counter(dict.fromkeys(bases, 2))


def test_rational_parameters_imply_common_factor_over_hits():
    report = search_solutions(SearchConfig(bound=10 ** 6))
    for hit in report.hits:
        if (hit.pair.alpha.classification.is_rational
                or hit.pair.beta.classification.is_rational):
            assert hit.triple.gcd_abc > 1, hit.triple
