"""Expansion identities: exact equality, free upper limit, telescoping table."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bealsearch.identity import (EXPONENT_RANGE, FREE_LIMIT_RANGE, ExpansionInstance,
                                 expand_difference, expansion_table, general_expansion,
                                 random_instances, run_random_suite)

nonzero_fractions = st.fractions(min_value=-10, max_value=10, max_denominator=10).filter(
    lambda f: f != 0)
exponents = st.integers(min_value=EXPONENT_RANGE[0], max_value=EXPONENT_RANGE[1])


def fraction_expansion(p, q, v, w, n):
    """general_expansion's sum evaluated term by term in Fraction: the reference."""
    s = Fraction(0)
    plus, minus = p + q, -p * q
    for i in range(n + 1):
        s += math.comb(n, i) * plus ** (n - i) * minus ** i * (p ** (v - n - i) - q ** (w - n - i))
    return s


def test_expand_difference_examples():
    lhs, rhs = expand_difference(ExpansionInstance(Fraction(2), Fraction(3), 3, 2))
    assert lhs == rhs == -1
    lhs, rhs = expand_difference(ExpansionInstance(Fraction(1), Fraction(1), 7, 4))
    assert lhs == rhs == 0
    lhs, rhs = expand_difference(ExpansionInstance(Fraction(2), Fraction(3), 1, 1))
    assert lhs == rhs == -1
    # the rhs really does route through negative exponents: 5*0 - 6*(1/2 - 1/3)
    assert Fraction(5) * 0 - 6 * (Fraction(1, 2) - Fraction(1, 3)) == -1


def test_general_expansion_examples():
    base = ExpansionInstance(Fraction(2), Fraction(3), 3, 2)
    assert general_expansion(base, 2) == -1
    assert general_expansion(base, 0) == -1
    assert general_expansion(base, 5) == -1


def test_general_expansion_n2_terms():
    # n=2 terms for (p,q,v,w) = (2,3,3,2): 25, -40, 14
    p, q, v, w, n = Fraction(2), Fraction(3), 3, 2, 2
    terms = [
        (p + q) ** 2 * (p ** (v - 2) - q ** (w - 2)),
        2 * (p + q) * (-p * q) * (p ** (v - 3) - q ** (w - 3)),
        (-p * q) ** 2 * (p ** (v - 4) - q ** (w - 4)),
    ]
    assert terms == [25, -40, 14]
    assert sum(terms) == -1


def test_instance_keeps_fractions_and_wraps_other_numbers():
    p = Fraction(2, 3)
    inst = ExpansionInstance(p, 5, 2, 3)
    assert inst.p == p
    assert type(inst.q) is Fraction and inst.q == 5


def test_instance_validation():
    with pytest.raises(ValueError):
        ExpansionInstance(Fraction(0), Fraction(3), 1, 1)
    with pytest.raises(ValueError, match="n must be >= 0, got -1"):
        general_expansion(ExpansionInstance(Fraction(2), Fraction(3), 1, 1), -1)


@settings(deadline=None)
@given(nonzero_fractions, nonzero_fractions,
       st.integers(min_value=-4, max_value=12), st.integers(min_value=-4, max_value=12))
def test_two_term_identity_property(p, q, v, w):
    lhs, rhs = expand_difference(ExpansionInstance(p, q, v, w))
    assert lhs == rhs == p ** v - q ** w


@settings(deadline=None, max_examples=60)
@given(nonzero_fractions, nonzero_fractions,
       st.integers(min_value=-4, max_value=12), st.integers(min_value=-4, max_value=12))
def test_free_upper_limit_property(p, q, v, w):
    expected = p ** v - q ** w
    for n in range(0, 11):
        assert general_expansion(ExpansionInstance(p, q, v, w), n) == expected


@settings(deadline=None, max_examples=300)
@given(nonzero_fractions, nonzero_fractions, exponents, exponents,
       st.sampled_from(FREE_LIMIT_RANGE))
def test_integer_expansion_matches_fraction_reference(p, q, v, w, n):
    assert general_expansion(ExpansionInstance(p, q, v, w), n) == fraction_expansion(p, q, v, w, n)


@pytest.mark.parametrize("p, q, v, w, n", [
    (Fraction(3, 7), Fraction(-3, 7), 5, 2, 6),      # p == -q: (p+q)**(n-i) is 0 but at i == n
    (Fraction(-2), Fraction(-5, 3), 7, -3, 4),       # both bases negative
    (Fraction(-3, 2), Fraction(-7, 5), -4, -4, 10),  # exponents down to -24
])
def test_integer_expansion_fixed_cases(p, q, v, w, n):
    total = general_expansion(ExpansionInstance(p, q, v, w), n)
    assert total == fraction_expansion(p, q, v, w, n) == p ** v - q ** w


def test_expansion_table_example():
    rows, total = expansion_table(6, 3, 3, 3, 5)
    assert total == 27 == 3 ** 5 - 6 ** 3
    assert rows[0].common_factor == 729
    assert rows[0].difference_term == 8
    assert rows[0].monomial_exponents == (3, 0)
    assert [r.product for r in rows] == [5832, -12393, 8505, -1917]


def test_expansion_table_equal_powers():
    _, total = expansion_table(2, 2, 1, 3, 3)
    assert total == 2 ** 3 - 2 ** 3 == 0


def test_expansion_table_telescopes_on_random_inputs():
    rng = random.Random(11)
    for _ in range(200):
        B = rng.randint(2, 40)
        C = rng.randint(2, 40)
        X = rng.randint(1, 6)
        Y = rng.randint(1, 8)
        Z = rng.randint(1, 8)
        if B ** Y > 10 ** 6 or C ** Z > 10 ** 6:
            continue
        _, total = expansion_table(B, C, X, Y, Z)
        assert total == C ** Z - B ** Y, (B, C, X, Y, Z)


def test_expansion_table_validation():
    with pytest.raises(ValueError):
        expansion_table(1, 3, 3, 3, 5)
    with pytest.raises(ValueError):
        expansion_table(2, 3, 0, 3, 5)


def test_random_suite_is_deterministic_and_clean():
    assert run_random_suite(200, seed=7) == []
    first = [(i.p, i.q, i.v, i.w) for i in random_instances(50, seed=3)]
    second = [(i.p, i.q, i.v, i.w) for i in random_instances(50, seed=3)]
    assert first == second


def test_random_instances_cover_the_contract_domain():
    seen_midpoint = False
    for inst in random_instances(500, seed=1):
        assert inst.p != 0 and inst.q != 0
        assert abs(inst.p.numerator) <= 10 and inst.p.denominator <= 10
        assert -4 <= inst.v <= 12 and -4 <= inst.w <= 12
        seen_midpoint = seen_midpoint or inst.p.denominator > 1 or inst.q.denominator > 1
    assert seen_midpoint
