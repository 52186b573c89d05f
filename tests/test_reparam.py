"""Reparameterization: canonical radicals, derived parameters, scaling factor."""

import random
from fractions import Fraction

import pytest
from mpmath import mp

from bealsearch.errors import DegenerateBeta, ZeroDenominator
from bealsearch.exact_arith import Radical
from bealsearch.intervals import IntervalValue
from bealsearch.reparam import (Plane, ReparamPair, canonical_alpha_beta,
                                reconstruct, scalar_m, solve_alpha_given_beta,
                                solve_beta_given_alpha)
from bealsearch.triples import BealTriple

HIT_3365 = BealTriple(3, 3, 6, 3, 3, 5)
HIT_2K = BealTriple(2, 9, 2, 9, 2, 10)
HIT_714 = BealTriple(7, 3, 7, 4, 14, 3)


def exact(x) -> Fraction:
    """The exact value an mpmath mpf stores, with no rounding to 53 bits."""
    return int(mp.sign(x)) * Fraction(x.man) * Fraction(2) ** x.exp  # x.man is unsigned


def test_canonical_pair_examples():
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    assert pair.alpha.exact_value == 2
    assert pair.beta.classification.kind == "irrational"
    assert pair.beta.radicand == Fraction(71, 216) and pair.beta.degree == 3

    pair = canonical_alpha_beta(HIT_2K, Plane.CB)
    assert pair.alpha.exact_value == 1
    assert pair.beta.exact_value == Fraction(1, 2)
    assert HIT_2K.gcd_abc == 2  # rational pair comes with a common factor

    pair = canonical_alpha_beta(HIT_714, Plane.CB)
    assert pair.alpha.sign == -1 and pair.alpha.radicand == 6
    assert pair.alpha.classification.kind == "irrational"
    assert pair.beta.sign == -1 and pair.beta.radicand == Fraction(55, 2744)
    assert pair.beta.classification.kind == "irrational"


def test_canonical_pair_ca_plane():
    pair = canonical_alpha_beta(HIT_3365, Plane.CA)
    # degree Y, differences in (C, A): 3^2 - 3^0 = 8, 3^-1 - 3^-3 = 8/27
    assert pair.alpha.degree == 3 and pair.alpha.radicand == 8
    assert pair.beta.exact_value == Fraction(2, 3)


def test_solve_beta_examples():
    assert solve_beta_given_alpha(6, 3, Fraction(3), Fraction(7, 3)) == 1
    assert solve_beta_given_alpha(6, 3, Fraction(3), Fraction(2)) == Fraction(5, 6)
    with pytest.raises(DegenerateBeta):
        solve_beta_given_alpha(6, 3, Fraction(3), Fraction(1, 3))


def test_solve_alpha_examples():
    assert solve_alpha_given_beta(6, 3, Fraction(3), Fraction(1)) == Fraction(7, 3)
    assert solve_alpha_given_beta(6, 3, Fraction(3), Fraction(5, 6)) == 2
    assert solve_alpha_given_beta(6, 3, Fraction(3), Fraction(0)) == Fraction(1, 3)


def test_solve_round_trip():
    rng = random.Random(17)
    for _ in range(200):
        alpha = Fraction(rng.randint(-50, 50), rng.randint(1, 20))
        try:
            beta = solve_beta_given_alpha(6, 3, Fraction(3), alpha)
        except DegenerateBeta:
            continue
        assert solve_alpha_given_beta(6, 3, Fraction(3), beta) == alpha
        assert 9 * alpha - 18 * beta == 3


def test_scalar_m_oracle_value():
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    m = scalar_m(HIT_3365, pair, 256)
    assert isinstance(m, IntervalValue)
    with mp.workprec(400):
        oracle = exact(3 / (18 - 18 * (mp.mpf(71) / 216) ** (mp.mpf(1) / 3)))
    assert m.width < Fraction(1, 2 ** 200)
    assert m.distance_to(oracle) < Fraction(1, 2 ** 200)
    assert abs(m.mid - Fraction("0.537861")) < Fraction(1, 10 ** 5)


def test_scalar_m_exact_pair_is_one():
    pair = ReparamPair(
        alpha=Radical.of(Fraction(7, 3), 1),
        beta=Radical.of(Fraction(1), 1),
        plane=Plane.CB,
    )
    assert scalar_m(HIT_3365, pair) == 1


def test_scalar_m_rational_canonical_pair():
    pair = canonical_alpha_beta(HIT_2K, Plane.CB)
    # alpha = 1, beta = 1/2: M = 2 / (4*1 - 4*(1/2)) = 1 exactly
    assert scalar_m(HIT_2K, pair) == 1


def test_scalar_m_precision_contract():
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    m128 = scalar_m(HIT_3365, pair, 128)
    m256 = scalar_m(HIT_3365, pair, 256)
    m512 = scalar_m(HIT_3365, pair, 512)
    assert m128.width > m256.width > m512.width
    assert m256.width < m128.width * Fraction(1, 2 ** 64)
    # doubling the precision moves the reported value by less than 2**(1-256)
    assert abs(m512.mid - m256.mid) < Fraction(1, 2 ** 255)
    for m, bits in ((m128, 128), (m256, 256), (m512, 512)):
        assert m.width <= abs(m.mid) * Fraction(2) ** (1 - bits)


def test_scalar_m_encloses_in_one_round(monkeypatch):
    import bealsearch.reparam as reparam_mod

    calls = []
    real = reparam_mod.enclose
    monkeypatch.setattr(reparam_mod, "enclose",
                        lambda value, bits: calls.append(bits) or real(value, bits))
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    m = scalar_m(HIT_3365, pair)
    assert isinstance(m, IntervalValue)
    # root, alpha and beta once each, at 256 bits plus the 5 bits of C*B = 18
    assert calls == [256 + 5] * 3


def test_scalar_m_zero_denominator():
    pair = ReparamPair(
        alpha=Radical.of(Fraction(2), 1),
        beta=Radical.of(Fraction(1), 1),
        plane=Plane.CB,
    )
    # (C+B)*2 - C*B*1 = 18 - 18 = 0
    with pytest.raises(ZeroDenominator):
        scalar_m(HIT_3365, pair)


def test_reconstruct_examples():
    assert reconstruct(6, 3, 3, Fraction(7, 3), Fraction(1)) == 27
    assert reconstruct(6, 3, 3, Fraction(0), Fraction(0)) == 0

    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    m = scalar_m(HIT_3365, pair, 256)
    value = reconstruct(6, 3, 3, pair.alpha, pair.beta, m, 256)
    assert isinstance(value, IntervalValue)
    assert value.width < Fraction(1, 10 ** 25)
    assert value.distance_to(27) < Fraction(1, 10 ** 25)


def test_reconstruct_round_trip_exact():
    # any rational alpha, derived beta: the reconstruction telescopes exactly
    rng = random.Random(23)
    for triple in (HIT_3365, HIT_714, HIT_2K):
        root = Fraction(triple.A)
        difference = triple.cz - triple.by
        for _ in range(100):
            alpha = Fraction(rng.randint(-99, 99), rng.randint(1, 30))
            try:
                beta = solve_beta_given_alpha(triple.B, triple.C, root, alpha)
            except DegenerateBeta:
                continue
            assert reconstruct(triple.B, triple.C, triple.X, alpha, beta) == difference


def test_reconstruct_interval_accepts_mixed_operands():
    pair = canonical_alpha_beta(HIT_714, Plane.CB)
    value = reconstruct(HIT_714.B, HIT_714.C, HIT_714.X, pair.alpha, pair.beta,
                        scalar_m(HIT_714, pair, 192), 192)
    assert value.distance_to(HIT_714.cz - HIT_714.by) < Fraction(1, 10 ** 20)
