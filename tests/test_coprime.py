"""Coprimality propagation and the exponent restriction predicate."""

import math
import random

import pytest

from bealsearch import exact_arith
from bealsearch.coprime import (Orientation, Restriction,
                                check_coprimality_propagation,
                                exponent_orientation, exponent_restriction)
from bealsearch.errors import NotAdditiveTriple
from bealsearch.exact_arith import factorize
from bealsearch.triples import BealTriple


def test_propagation_examples():
    report = check_coprimality_propagation(BealTriple(8, 1, 27, 1, 35, 1))
    assert report.pairwise_all_one and report.gcd_abc == 1
    assert report.shared_primes == {"ab": [], "ac": [], "bc": []}

    report = check_coprimality_propagation(BealTriple(6, 1, 10, 1, 16, 1))
    assert report.gcd_abc == 2
    assert min(report.gcd_ab, report.gcd_ac, report.gcd_bc) >= 2
    assert report.shared_primes["ab"] == [(2, 1)]

    report = check_coprimality_propagation(BealTriple(4, 1, 9, 1, 13, 1))
    assert report.pairwise_all_one


def test_propagation_rejects_non_triples():
    with pytest.raises(NotAdditiveTriple):
        check_coprimality_propagation(BealTriple(2, 1, 3, 1, 6, 1))
    with pytest.raises(NotAdditiveTriple):
        check_coprimality_propagation(BealTriple(3, 3, 6, 3, 3, 4))
    with pytest.raises(ValueError):
        check_coprimality_propagation(BealTriple(0, 1, 3, 1, 3, 1))


def test_propagation_random_triples():
    # One shared factor anywhere forces it everywhere: pairwise coprimality
    # and 3-way coprimality coincide on additive triples.
    rng = random.Random(5)
    for _ in range(10 ** 4):
        a = rng.randint(1, 10 ** 9)
        b = rng.randint(1, 10 ** 9)
        report = check_coprimality_propagation(BealTriple(a, 1, b, 1, a + b, 1))
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
        report = check_coprimality_propagation(t)
        assert (report.gcd_abc > 1) == (math.gcd(t.A, t.B, t.C) > 1)
        assert report.gcd_abc > 1  # no coprime hit at this scale


def test_propagation_factors_the_shared_gcd_once(monkeypatch):
    import bealsearch.coprime as coprime_mod

    calls = []
    real = coprime_mod.factorize
    monkeypatch.setattr(coprime_mod, "factorize",
                        lambda n, **kwargs: calls.append(n) or real(n, **kwargs))
    report = check_coprimality_propagation(BealTriple(3, 3, 6, 3, 3, 5))  # 3^3 + 6^3 = 3^5
    assert calls == [3]  # gcd(A, B, C), not the term gcd 27
    assert report.gcd_ab == report.gcd_ac == report.gcd_bc == 27
    assert report.shared_primes == {"ab": [(3, 3)], "ac": [(3, 3)], "bc": [(3, 3)]}


def _family_triples(rng):
    """(a·s)^n + (b·s)^n = s^(n+1) with s = a^n + b^n, and 2^n + 2^n = 2^(n+1)."""
    for _ in range(200):
        a, b, n = rng.randint(1, 200), rng.randint(1, 200), rng.randint(3, 7)
        s = a ** n + b ** n
        yield BealTriple(a * s, n, b * s, n, s, n + 1)
    for n in range(3, 40):
        yield BealTriple(2, n, 2, n, 2, n + 1)


def test_shared_primes_match_the_factored_term_gcd():
    # The old path factored gcd(A^X, B^Y) itself; it is the oracle here.
    for triple in _family_triples(random.Random(17)):
        report = check_coprimality_propagation(triple)
        shared = report.shared_primes["ab"]
        assert shared == factorize(report.gcd_ab), triple
        assert math.prod(p ** m for p, m in shared) == report.gcd_ab
        assert report.shared_primes == {"ab": shared, "ac": shared, "bc": shared}


def test_propagation_budget_degrades_to_gcd_only(monkeypatch):
    hard = (2 ** 127 - 1) * (2 ** 521 - 1)
    monkeypatch.setattr(exact_arith, "_rho_budget", lambda bits: 4)
    report = check_coprimality_propagation(BealTriple(hard, 1, hard, 1, 2 * hard, 1))
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
