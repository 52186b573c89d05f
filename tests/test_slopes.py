"""Slopes, lattice points, common-factor decomposition, binomial series."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from bealsearch.errors import Divergent
from bealsearch.exact_arith import Radical, iroot
from bealsearch.slopes import (binomial_series_slope, decompose_common_factor,
                               slope_candidate, slope_set,
                               smallest_lattice_point)
from bealsearch.triples import BealTriple


def exact(x) -> Fraction:
    """The exact value an mpmath mpf stores, with no rounding to 53 bits."""
    return int(mp.sign(x)) * Fraction(x.man) * Fraction(2) ** x.exp  # x.man is unsigned


def test_slope_set_examples():
    s = slope_set(BealTriple(3, 3, 6, 3, 3, 5))
    assert (s.m_cb, s.m_ca, s.m_ba) == (Fraction(1, 2), Fraction(1), Fraction(2))
    s = slope_set(BealTriple(2, 9, 2, 9, 2, 10))
    assert (s.m_cb, s.m_ca, s.m_ba) == (1, 1, 1)
    s = slope_set(BealTriple(7, 3, 7, 4, 14, 3))
    assert (s.m_cb, s.m_ca, s.m_ba) == (2, 2, 1)


def test_slope_set_matches_base_ratios_on_solutions():
    for triple in (BealTriple(3, 3, 6, 3, 3, 5), BealTriple(7, 3, 7, 4, 14, 3),
                   BealTriple(3, 6, 18, 3, 3, 8), BealTriple(33, 5, 66, 5, 33, 6)):
        assert triple.equation_holds
        s = slope_set(triple)
        assert s.m_cb == Fraction(triple.C, triple.B)
        assert s.m_ca == Fraction(triple.C, triple.A)
        assert s.m_ba == Fraction(triple.B, triple.A)


def test_slope_set_irrational_case_returns_radical():
    s = slope_set(BealTriple(2, 3, 3, 3, 5, 3))
    assert isinstance(s.m_cb, Radical)
    assert s.m_cb.classification.kind == "irrational"
    assert s.m_ba == Fraction(3, 2)


def _radical_slope_set(triple: BealTriple) -> tuple:
    """The slopes as two classified Radicals: rational ones as their exact values."""
    s = triple.ax + triple.by

    def value(base):
        radical = Radical(1, Fraction(s, base ** triple.Z), triple.Z)
        exact = radical.exact_value
        return exact if exact is not None else radical

    return value(triple.B), value(triple.A), Fraction(triple.B, triple.A)


def test_slope_set_matches_the_radical_classification():
    rng = random.Random(23)
    triples = []
    for _ in range(200):
        a, b = rng.randrange(1, 60), rng.randrange(1, 60)
        n = rng.randrange(1, 9)
        c = a ** n + b ** n  # (ac)^n + (bc)^n = c^(n+1)
        triples.append(BealTriple(a * c, n, b * c, n, c, n + 1))
        # the same left side against a wrong C: the slopes read only A, B, X, Y, Z
        triples.append(BealTriple(a * c, n, b * c, n, c + 1, n + 1))
        triples.append(BealTriple(a * c, n, b * c, n, c, rng.randrange(1, 2 * n + 3)))
        triples.append(BealTriple(*(rng.randrange(1, 10 ** rng.randrange(1, 8)) if i % 2 == 0
                                    else rng.randrange(1, 12) for i in range(6))))
    triples += [BealTriple(1, 1, 1, 1, 2, 1), BealTriple(3, 2, 4, 2, 5, 2),
                BealTriple(2, 3, 2, 3, 2, 4), BealTriple(2, 5, 2, 5, 2, 6)]
    rational = 0
    for triple in triples:
        slopes = slope_set(triple)
        expected = _radical_slope_set(triple)
        assert tuple(slopes) == expected, triple
        assert [type(m) for m in slopes] == [type(m) for m in expected], triple
        rational += isinstance(slopes.m_cb, Fraction)
    assert 200 <= rational < len(triples)


def test_slope_candidate_examples():
    cb, ca = slope_candidate(2, 3, 3, 3, 3)
    assert cb.kind == "irrational" and ca.kind == "irrational"
    cb, ca = slope_candidate(3, 6, 3, 3, 5)
    assert cb.value == Fraction(1, 2) and ca.value == 1
    cb, ca = slope_candidate(2, 2, 3, 3, 4)
    assert cb.value == 1 and ca.value == 1


def test_slope_candidate_validation():
    with pytest.raises(ValueError):
        slope_candidate(1, 3, 3, 3, 3)
    with pytest.raises(ValueError):
        slope_candidate(2, 3, 2, 3, 3)


def test_rational_slope_equivalence_small_sweep():
    # rational slope <=> the power sum is a perfect Z-th power
    for A in range(2, 16):
        for B in range(2, 16):
            for X, Y, Z in ((3, 3, 3), (3, 4, 3), (4, 3, 5), (3, 3, 4)):
                s = A ** X + B ** Y
                cb, ca = slope_candidate(A, B, X, Y, Z)
                root, exact = iroot(s, Z)
                assert cb.is_rational == exact, (A, B, X, Y, Z)
                assert ca.is_rational == exact
                if exact:
                    assert cb.value == Fraction(root, B)
                    assert ca.value == Fraction(root, A)


def test_smallest_lattice_point_examples():
    assert smallest_lattice_point(Fraction(3, 2)) == (2, 3)
    assert smallest_lattice_point(Fraction(1)) == (1, 1)
    assert smallest_lattice_point(Fraction(6, 4)) == (2, 3)
    with pytest.raises(ValueError):
        smallest_lattice_point(Fraction(0))


def test_lattice_point_lies_on_line():
    for p in range(1, 30):
        for q in range(1, 30):
            m = Fraction(p, q)
            x, y = smallest_lattice_point(m)
            assert Fraction(y) == m * x
            assert Fraction(x, 1).denominator == 1


def test_irrational_slope_has_no_small_lattice_point():
    # assertable form: the radicand is certified non-perfect-power, so
    # y*den == x*num has no integer witness on the candidate line
    cb, _ = slope_candidate(2, 3, 3, 3, 3)
    assert not cb.is_rational
    s = 2 ** 3 + 3 ** 3
    root, exact = iroot(s, 3)
    assert not exact and root ** 3 < s < (root + 1) ** 3


def test_decompose_common_factor_examples():
    d = decompose_common_factor(BealTriple(3, 3, 6, 3, 3, 5))
    assert (d.k, d.a, d.b, d.c) == (3, 1, 2, 1)
    d = decompose_common_factor(BealTriple(2, 9, 2, 9, 2, 10))
    assert (d.k, d.a, d.b, d.c) == (2, 1, 1, 1)
    d = decompose_common_factor(BealTriple(8, 3, 27, 3, 35, 3))
    assert d.k == 1


def test_binomial_series_matches_direct_slope():
    value = binomial_series_slope(2, 1, 3, 3, 3, 5, "ca", terms=80, precision_bits=256)
    assert value.width < Fraction(1, 10 ** 20)
    assert value.distance_to(Fraction(1, 2)) < Fraction(1, 10 ** 20)
    value = binomial_series_slope(2, 1, 3, 3, 3, 5, "cb", terms=80, precision_bits=256)
    assert value.distance_to(1) < Fraction(1, 10 ** 20)


def test_binomial_series_divergent():
    with pytest.raises(Divergent):
        binomial_series_slope(1, 1, 7, 3, 4, 3, "ca")


def test_binomial_series_zero_terms_is_prefactor():
    value = binomial_series_slope(2, 1, 3, 3, 3, 5, "ca", terms=0, precision_bits=256)
    with mp.workprec(320):
        prefactor = exact(mp.mpf(6) ** (mp.mpf(3 - 5) / 5))
    assert value.distance_to(prefactor) < Fraction(1, 2 ** 240)


def test_binomial_series_converges_for_other_hits():
    # 18^3 + 3^6 = 3^8 reordered so the first term dominates: a*k = 18
    value = binomial_series_slope(6, 1, 3, 3, 6, 8, "ca", terms=120, precision_bits=256)
    # direct slope: C/A with C = 3 (3^8 = 6561), A = 18
    assert value.distance_to(Fraction(3, 18)) < Fraction(1, 10 ** 20)


def test_binomial_series_validation():
    with pytest.raises(ValueError):
        binomial_series_slope(0, 1, 3, 3, 3, 5)
    with pytest.raises(ValueError):
        binomial_series_slope(2, 1, 3, 3, 3, 5, plane="xy")
    with pytest.raises(ValueError):
        binomial_series_slope(2, 1, 3, 3, 3, 5, terms=-1)
