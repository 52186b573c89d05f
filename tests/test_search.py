"""Search engine: enumeration, oracle equivalence, determinism, verification."""

from bisect import bisect_left, bisect_right
from collections import Counter
from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bealsearch.search as search_mod
from bealsearch.errors import BoundTooLarge
from bealsearch.exact_arith import is_perfect_power
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
    for min_exp in range(1, 5):
        reference = _reference_powers(3000, min_exp)
        values = [entry.value for entry in reference]
        for bound in range(1, 3001):
            expected = reference[:bisect_right(values, bound)]
            assert enumerate_powers(bound, min_exp) == expected, (bound, min_exp)
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


def _pairs_reference(bound: int, minimums: tuple[int, int, int]) -> int:
    """pairs_tested counted from the full power table: each value a with its
    partners b >= a, a + b <= bound, where either orientation of (a, b)
    meets (min_x, min_y)."""
    min_x, min_y, _ = minimums
    entries = enumerate_powers(bound, min(minimums))
    left = [entry for entry in entries if entry.exponent >= min(min_x, min_y)]
    values = [entry.value for entry in left]
    high = [entry.value for entry in left if entry.exponent >= max(min_x, min_y)]
    count = 0
    for a in left:
        # a low value (exponent below both minimums' maximum) needs a high partner
        partners = values if a.exponent >= max(min_x, min_y) else high
        count += max(0, bisect_right(partners, bound - a.value) - bisect_left(partners, a.value))
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


def _scan_lanes(monkeypatch, config):
    """The lanes search_solutions hands to the scan, caught on their way in."""
    caught = []
    real = search_mod._match_stripe

    def catching(lanes, start, step):
        caught.append(lanes)
        return real(lanes, start, step)

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
    # Each pair has one owner among the five sweeps of the module docstring.
    lanes = _scan_lanes(monkeypatch, SearchConfig(bound, *minimums))
    reference = sorted((t.ax, t.by) for t in _lookup_reference(bound, minimums))
    assert set(named) <= set(reference)
    for step in (1, 2, 3):
        found = [tuple(sorted(pair))
                 for start in range(step)
                 for pair in search_mod._match_stripe(lanes, start, step)[0]]
        assert len(found) == len(set(found)), step
        assert sorted(found) == reference, step


def test_partner_lists_hold_the_admissible_residues(monkeypatch):
    lanes = _scan_lanes(monkeypatch, SearchConfig(10 ** 12))
    for partners, modulus, residues, lists_per_value in (
            (lanes.cube_partners, 63, {0, 1, 8, 27, 28, 35, 36, 55, 62}, 9),
            (lanes.quartic_partners, 80, {0, 1, 16, 65}, 4)):
        assert len(partners) == modulus
        assert Counter(y for values in partners for y in values) == dict.fromkeys(
            lanes.left_other, lists_per_value)
        for r, values in enumerate(partners):
            assert values == sorted(values)
            assert values == [y for y in lanes.left_other if (r + y) % modulus in residues]


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


def test_scan_probes_are_counted_and_few():
    reports = [search_solutions(SearchConfig(bound=10 ** 12, workers=w)) for w in (1, 2)]
    assert reports[0].scan_probes == reports[1].scan_probes
    assert 0 < reports[0].scan_probes < reports[0].counts["pairs_tested"] // 20
    assert brute_force_oracle(10 ** 4).scan_probes is None


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


def test_serial_search_leaves_no_module_state():
    assert search_mod._LANES == ()
    assert search_solutions(SearchConfig(bound=10 ** 8)).counts["hits"] > 0
    assert search_mod._LANES == ()


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


def test_verify_hit_examples():
    hit = verify_hit(BealTriple(3, 3, 6, 3, 3, 5))
    assert hit.passed and hit.triple.gcd_abc == 3

    hit = verify_hit(BealTriple(2, 3, 2, 3, 2, 5))
    assert not hit.passed
    assert "equation_exact" in hit.failed_checks()


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


def test_rational_parameters_imply_common_factor_over_hits():
    report = search_solutions(SearchConfig(bound=10 ** 6))
    for hit in report.hits:
        if (hit.pair.alpha.classification.is_rational
                or hit.pair.beta.classification.is_rational):
            assert hit.triple.gcd_abc > 1, hit.triple
