"""Search engine: enumeration, oracle equivalence, determinism, verification."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bealsearch.search as search_mod
from bealsearch.errors import BoundTooLarge
from bealsearch.search import (SearchConfig, annotate_hit, brute_force_oracle,
                               enumerate_powers, search_solutions, verify_hit)
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


def test_search_examples():
    report = search_solutions(SearchConfig(bound=20))
    assert report.triples == [BealTriple(2, 3, 2, 3, 2, 4)]
    assert search_solutions(SearchConfig(bound=10)).hits == []
    report = search_solutions(SearchConfig(bound=3000))
    triples = report.triples
    assert BealTriple(3, 3, 6, 3, 3, 5) in triples
    assert BealTriple(7, 3, 7, 4, 14, 3) in triples
    assert all(hit.gcd_abc > 1 for hit in report.hits)


def test_search_hits_are_sorted_and_verified():
    report = search_solutions(SearchConfig(bound=10 ** 5))
    keys = [hit.sort_key for hit in report.hits]
    assert keys == sorted(keys)
    assert all(hit.verification.passed for hit in report.hits)
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
    record = verify_hit(BealTriple(3, 3, 6, 3, 3, 5))
    assert record.passed and record.gcd_abc == 3

    record = verify_hit(BealTriple(2, 3, 2, 3, 2, 5))
    assert not record.passed
    assert "equation_exact" in record.failed_checks()

    record = verify_hit(BealTriple(4, 3, 4, 3, 2, 7))
    assert "bases_reduced" in record.failed_checks()
    assert BealTriple(4, 3, 4, 3, 2, 7).canonical() == BealTriple(2, 6, 2, 6, 2, 7)


def test_verify_hit_relaxed_reduction():
    record = verify_hit(BealTriple(4, 3, 4, 3, 2, 7), require_reduced=False)
    assert "bases_reduced" not in record.failed_checks()


def test_verify_hit_orientation_aware_minimums():
    record = verify_hit(BealTriple(7, 3, 7, 4, 14, 3), minimums=(4, 3, 3))
    assert record.checks["exponent_minimums"]
    record = verify_hit(BealTriple(3, 3, 6, 3, 3, 5), minimums=(4, 3, 3))
    assert not record.checks["exponent_minimums"]


def test_annotate_hit_bundle():
    hit = annotate_hit(BealTriple(3, 3, 6, 3, 3, 5))
    assert hit.gcd_abc == 3
    assert hit.alpha_class.value == 2
    assert hit.beta_class.kind == "irrational"
    assert hit.slopes.m_cb == hit.triple.C / hit.triple.B == 0.5
    assert hit.verification.passed


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
        assert hit.verification == verify_hit(triple, minimums)


def test_rational_parameters_imply_common_factor_over_hits():
    report = search_solutions(SearchConfig(bound=10 ** 6))
    for hit in report.hits:
        if hit.alpha_class.is_rational or hit.beta_class.is_rational:
            assert hit.gcd_abc > 1, hit.triple
