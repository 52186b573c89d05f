"""Coprimality propagation and the exponent restriction predicate."""

import math
import random

import pytest

from bealsearch.coprime import (Orientation, Restriction,
                                check_coprimality_propagation,
                                exponent_orientation, exponent_restriction)
from bealsearch.errors import NotAdditiveTriple


def test_propagation_examples():
    report = check_coprimality_propagation(8, 27, 35)
    assert report.pairwise_all_one and report.gcd_abc == 1
    assert report.shared_primes == {"ab": [], "ac": [], "bc": []}

    report = check_coprimality_propagation(6, 10, 16)
    assert report.gcd_abc == 2
    assert min(report.gcd_ab, report.gcd_ac, report.gcd_bc) >= 2
    assert report.shared_primes["ab"] == [(2, 1)]

    report = check_coprimality_propagation(4, 9, 13)
    assert report.pairwise_all_one


def test_propagation_rejects_non_triples():
    with pytest.raises(NotAdditiveTriple):
        check_coprimality_propagation(2, 3, 6)
    with pytest.raises(ValueError):
        check_coprimality_propagation(0, 3, 3)


def test_propagation_random_triples():
    # One shared factor anywhere forces it everywhere: pairwise coprimality
    # and 3-way coprimality coincide on additive triples.
    rng = random.Random(5)
    for _ in range(10 ** 4):
        a = rng.randint(1, 10 ** 9)
        b = rng.randint(1, 10 ** 9)
        report = check_coprimality_propagation(a, b, a + b)
        if report.gcd_ab == 1:
            assert report.gcd_ac == 1 and report.gcd_bc == 1
        assert (report.gcd_abc == 1) == report.pairwise_all_one
        assert report.gcd_ab % report.gcd_abc == 0
        assert report.gcd_ac % report.gcd_abc == 0
        assert report.gcd_bc % report.gcd_abc == 0


def test_propagation_on_power_triples():
    from bealsearch.search import SearchConfig, search_solutions

    for hit in search_solutions(SearchConfig(bound=10 ** 4)).hits:
        t = hit.triple
        report = check_coprimality_propagation(t.ax, t.by, t.cz)
        assert (report.gcd_abc > 1) == (math.gcd(t.A, t.B, t.C) > 1)
        assert report.gcd_abc > 1  # no coprime hit at this scale


def test_propagation_factors_the_shared_gcd_once(monkeypatch):
    import bealsearch.coprime as coprime_mod

    calls = []
    real = coprime_mod.factorize
    monkeypatch.setattr(coprime_mod, "factorize",
                        lambda n, **kwargs: calls.append(n) or real(n, **kwargs))
    report = check_coprimality_propagation(3 ** 3, 6 ** 3, 3 ** 5)  # 3^3 + 6^3 = 3^5
    assert calls == [27]
    assert report.gcd_ab == report.gcd_ac == report.gcd_bc == 27
    assert report.shared_primes == {"ab": [(3, 3)], "ac": [(3, 3)], "bc": [(3, 3)]}


def test_propagation_budget_degrades_to_gcd_only():
    hard = (2 ** 127 - 1) * (2 ** 521 - 1)
    report = check_coprimality_propagation(hard, hard, 2 * hard, budget=4)
    assert report.gcd_ab == hard
    assert report.shared_primes["ab"] is None  # factorization gave up
    assert report.gcd_abc == hard              # gcd reporting still intact


def test_exponent_restriction_examples():
    assert exponent_restriction(6, 9, 3) is Restriction.VIOLATION
    assert exponent_restriction(4, 3, 3) is Restriction.PERMITTED
    assert exponent_restriction(3, 3, 3) is Restriction.VIOLATION


def test_exponent_restriction_validation():
    with pytest.raises(ValueError):
        exponent_restriction(2, 3, 3)


def test_orientation_examples():
    assert exponent_orientation(4, 3, 3) is Orientation.USE_X
    assert exponent_orientation(3, 4, 3) is Orientation.USE_Y
    assert exponent_orientation(4, 5, 3) is Orientation.EITHER
    # precondition violation surfaces as a passthrough value, not an exception
    assert exponent_orientation(6, 9, 3) is Orientation.VIOLATION


def test_orientation_consistency_sweep():
    for x in range(3, 13):
        for y in range(3, 13):
            for z in range(3, 13):
                orientation = exponent_orientation(x, y, z)
                if orientation is Orientation.VIOLATION:
                    assert x % z == 0 and y % z == 0
                elif orientation is Orientation.USE_X:
                    assert x % z != 0 and y % z == 0
                elif orientation is Orientation.USE_Y:
                    assert y % z != 0 and x % z == 0
                else:
                    assert x % z != 0 and y % z != 0
