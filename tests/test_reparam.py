"""Reparameterization: canonical radicals, derived parameters, scaling factor."""

import random
from collections import Counter
from fractions import Fraction

import pytest
from mpmath import mp

from bealsearch.errors import DegenerateBeta, NoRealRoot, ZeroDenominator
from bealsearch.exact_arith import Radical
from bealsearch.intervals import IntervalValue, _decimal, enclose
from bealsearch.reparam import (Plane, ReparamPair, _scalar_ends, canonical_alpha_beta,
                                reconstruct, scalar_estimate, scalar_m,
                                solve_alpha_given_beta, solve_beta_given_alpha)
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
    real = reparam_mod.enclose_ints
    monkeypatch.setattr(reparam_mod, "enclose_ints",
                        lambda value, bits: calls.append(bits) or real(value, bits))
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    m = scalar_m(HIT_3365, pair)
    assert isinstance(m, IntervalValue)
    # root, alpha and beta once each, at 256 bits plus the 5 bits of C*B = 18
    assert calls == [256 + 5] * 3


def test_scalar_m_doubles_bits_when_the_relative_bound_fails(monkeypatch):
    import bealsearch.reparam as reparam_mod

    calls = []
    real = reparam_mod.enclose_ints
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    reference = scalar_m(HIT_3365, pair, 512)

    def widened_once(value, bits):
        calls.append(bits)
        lo, hi, den = real(value, bits)
        if value is pair.beta and bits == 256 + 5:
            # still a true enclosure, but far too wide for 2**-255 relative error:
            # den = 2**261, so den >> 100 stands for 2**-100
            return lo - (den >> 100), hi + (den >> 100), den
        return lo, hi, den

    monkeypatch.setattr(reparam_mod, "enclose_ints", widened_once)
    m = scalar_m(HIT_3365, pair)
    assert calls == [261] * 3 + [522] * 3
    assert isinstance(m, IntervalValue)
    assert m.width * 2 ** 255 <= abs(m.mid)
    assert m.lo <= reference.hi and reference.lo <= m.hi


def test_scalar_m_gives_up_after_five_rounds_of_a_zero_denominator(monkeypatch):
    import bealsearch.reparam as reparam_mod

    calls = []
    real = reparam_mod.enclose_ints
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)

    def wide_beta(value, bits):
        calls.append(bits)
        if value is pair.beta:
            # (C+B)*alpha - C*B*beta = 18 - 18*[0, 2] = [-18, 18] encloses 0
            return 0, 2, 1
        return real(value, bits)

    monkeypatch.setattr(reparam_mod, "enclose_ints", wide_beta)
    with pytest.raises(ZeroDenominator, match=f"at {16 * 261} bits"):
        scalar_m(HIT_3365, pair)
    assert calls == [bits for bits in (261, 522, 1044, 2088, 4176) for _ in range(3)]


def _reference_scalar_m(triple, pair, precision_bits):
    """scalar_m computed on IntervalValue arithmetic over enclose, the test's
    reference for the integer enclosures scalar_m runs on."""
    if pair.plane is Plane.CB:
        base, c, degree, co = triple.B, triple.C, triple.X, triple.Y
    else:
        base, c, degree, co = triple.A, triple.C, triple.Y, triple.X
    root = Radical.of(Fraction(c) ** triple.Z - Fraction(base) ** co, degree)
    s, prod = c + base, c * base
    alpha, beta = pair.alpha.exact_value, pair.beta.exact_value
    if alpha is not None and beta is not None:
        if s * alpha - prod * beta == 0:
            raise ZeroDenominator("exact denominator (C+B)*alpha - C*B*beta is 0")
        if root.exact_value is not None:
            return root.exact_value / (s * alpha - prod * beta)
    for k in range(5):
        bits = (precision_bits + prod.bit_length()) << k
        num = enclose(root, bits)
        den = s * enclose(pair.alpha, bits) - prod * enclose(pair.beta, bits)
        if 0 not in den:
            m = num / den
            if m.width * 2 ** (precision_bits - 1) <= abs(m.mid):
                return m
    raise ZeroDenominator(f"denominator still encloses 0 at {bits} bits")


def _outcome(compute):
    try:
        value = compute()
    except (NoRealRoot, ZeroDenominator) as exc:
        return (type(exc).__name__,)
    if isinstance(value, IntervalValue):
        return "interval", value.lo, value.hi  # Fractions: equal means the same bytes
    return "exact", value


def test_scalar_m_matches_interval_reference_endpoint_for_endpoint():
    rng = random.Random(18)
    triples = [HIT_3365, HIT_2K, HIT_714] + [
        BealTriple(*(rng.randint(1, 40) if i % 2 == 0 else rng.randint(1, 9) for i in range(6)))
        for _ in range(300)]
    seen = Counter()
    for triple in triples:
        for plane in Plane:
            pair = canonical_alpha_beta(triple, plane)
            for bits in (64, 256):
                got = _outcome(lambda: scalar_m(triple, pair, bits))
                assert got == _outcome(lambda: _reference_scalar_m(triple, pair, bits)), \
                    (triple, plane, bits)
                seen[got[0]] += 1
                if got[0] == "interval" and pair.alpha.sign == -1 and pair.alpha.degree % 2:
                    seen["negative radicand, odd degree"] += 1
    # every branch is covered: both kinds of result, both refusals, negative radicands
    assert min(seen[key] for key in ("interval", "exact", "NoRealRoot", "ZeroDenominator",
                                     "negative radicand, odd degree")) > 0, seen


def _seeded_triples(seed: int, count: int) -> list[BealTriple]:
    """The three hits, random small triples and common-factor solutions
    (a*c**k)**n + (b*c**k)**n = c**(k*n + 1) with c = a**n + b**n."""
    rng = random.Random(seed)
    triples = [HIT_3365, HIT_2K, HIT_714]
    for _ in range(count):
        triples.append(BealTriple(*(rng.randint(1, 60) if i % 2 == 0 else rng.randint(1, 9)
                                    for i in range(6))))
        a, b, n, k = rng.randint(1, 30), rng.randint(1, 30), rng.randint(3, 7), rng.randint(1, 2)
        c = a ** n + b ** n
        triples.append(BealTriple(a * c ** k, n, b * c ** k, n, c, k * n + 1))
    return triples


def _estimate_reference(triple, pair):
    """What classify printed before scalar_estimate: scalar_m at 256 bits,
    exact or the decimal of its Fraction midpoint, or the refusal."""
    try:
        m = scalar_m(triple, pair)
    except (NoRealRoot, ZeroDenominator) as exc:
        return type(exc).__name__, str(exc)
    if isinstance(m, IntervalValue):
        mid = m.mid
        return "estimate", _decimal(mid.numerator, mid.denominator, 30)
    return "exact", m


def _estimate(triple, pair):
    try:
        m = scalar_estimate(triple, pair)
    except (NoRealRoot, ZeroDenominator) as exc:
        return type(exc).__name__, str(exc)
    return ("estimate", m) if isinstance(m, str) else ("exact", m)


def test_scalar_m_at_256_bits_lies_inside_the_one_round_at_112():
    seen = Counter()
    for triple in _seeded_triples(24, 150):
        for plane in Plane:
            pair = canonical_alpha_beta(triple, plane)
            try:
                ends = _scalar_ends(triple, pair, 112, 1)
                m = scalar_m(triple, pair)
            except (NoRealRoot, ZeroDenominator, RuntimeError) as exc:
                seen[type(exc).__name__] += 1
                continue
            if isinstance(ends, Fraction):
                assert m == ends
                seen["exact"] += 1
                continue
            lo_num, lo_den, hi_num, hi_den = ends
            assert lo_den > 0 and hi_den > 0
            assert Fraction(lo_num, lo_den) <= m.lo <= m.hi <= Fraction(hi_num, hi_den), \
                (triple, plane)
            seen["interval"] += 1
    assert seen["interval"] > 100 and seen["exact"] > 0, seen


def test_scalar_estimate_prints_what_scalar_m_at_256_bits_prints(monkeypatch):
    import bealsearch.reparam as reparam_mod

    fallbacks = []
    real = reparam_mod.scalar_m
    monkeypatch.setattr(reparam_mod, "scalar_m",
                        lambda *args: fallbacks.append(args) or real(*args))
    seen = Counter()
    for triple in _seeded_triples(25, 150):
        for plane in Plane:
            pair = canonical_alpha_beta(triple, plane)
            got = _estimate(triple, pair)
            assert got == _estimate_reference(triple, pair), (triple, plane)
            seen[got[0]] += 1
    assert seen["estimate"] > 100 and seen["exact"] > 0, seen
    # the one round decides nearly every estimate
    assert len(fallbacks) < seen["estimate"] // 10 + seen["ZeroDenominator"], (fallbacks, seen)


@pytest.mark.parametrize("bits", [2, 5, 12])
def test_scalar_estimate_falls_back_to_256_bits_when_the_round_is_too_coarse(monkeypatch, bits):
    import bealsearch.reparam as reparam_mod

    monkeypatch.setattr(reparam_mod, "_ESTIMATE_BITS", bits)
    fallbacks = []
    real = reparam_mod.scalar_m
    monkeypatch.setattr(reparam_mod, "scalar_m",
                        lambda *args: fallbacks.append(args) or real(*args))
    seen = Counter()
    for triple in _seeded_triples(26, 80):
        for plane in Plane:
            pair = canonical_alpha_beta(triple, plane)
            got = _estimate(triple, pair)
            assert got == _estimate_reference(triple, pair), (triple, plane, bits)
            seen[got[0]] += 1
    assert seen["estimate"] > 50 and len(fallbacks) >= seen["estimate"], (len(fallbacks), seen)


@pytest.mark.parametrize("triple, plane", [
    (BealTriple(9, 7, 46, 5, 3, 1), Plane.CB), (BealTriple(5, 5, 2, 2, 21, 4), Plane.CB),
    (BealTriple(40, 7, 23, 9, 3, 3), Plane.CA)])
def test_scalar_estimate_falls_back_when_the_round_encloses_zero(monkeypatch, triple, plane):
    import bealsearch.reparam as reparam_mod

    monkeypatch.setattr(reparam_mod, "_ESTIMATE_BITS", 2)
    pair = canonical_alpha_beta(triple, plane)
    with pytest.raises(ZeroDenominator):
        _scalar_ends(triple, pair, 2, 1)
    got = _estimate(triple, pair)
    assert got[0] == "estimate" and got == _estimate_reference(triple, pair)


def test_scalar_estimate_refuses_as_scalar_m_when_every_round_encloses_zero(monkeypatch):
    import bealsearch.reparam as reparam_mod

    real = reparam_mod.enclose_ints
    pair = canonical_alpha_beta(HIT_3365, Plane.CB)
    # (C+B)*alpha - C*B*beta = 18 - 18*[0, 2] = [-18, 18] encloses 0 at any width
    monkeypatch.setattr(reparam_mod, "enclose_ints", lambda value, bits: (
        (0, 2, 1) if value is pair.beta else real(value, bits)))
    with pytest.raises(ZeroDenominator, match=f"at {16 * 261} bits") as refusal:
        scalar_estimate(HIT_3365, pair)
    assert _estimate_reference(HIT_3365, pair) == ("ZeroDenominator", str(refusal.value))


def test_scalar_estimate_zero_denominator():
    pair = ReparamPair(alpha=Radical.of(Fraction(2), 1), beta=Radical.of(Fraction(1), 1),
                       plane=Plane.CB)
    with pytest.raises(ZeroDenominator, match="exact denominator"):
        scalar_estimate(HIT_3365, pair)


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
