"""Expansion identities: exact equality, free upper limit, telescoping table."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bealsearch import cli
from bealsearch import identity as identity_mod
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
    assert lhs == Fraction(*rhs) == -1
    lhs, rhs = expand_difference(ExpansionInstance(Fraction(1), Fraction(1), 7, 4))
    assert lhs == Fraction(*rhs) == 0
    lhs, rhs = expand_difference(ExpansionInstance(Fraction(2), Fraction(3), 1, 1))
    assert lhs == Fraction(*rhs) == -1
    # the rhs really does route through negative exponents: 5*0 - 6*(1/2 - 1/3)
    assert Fraction(5) * 0 - 6 * (Fraction(1, 2) - Fraction(1, 3)) == -1


def test_general_expansion_examples():
    base = ExpansionInstance(Fraction(2), Fraction(3), 3, 2)
    assert Fraction(*general_expansion(base, 2)) == -1
    assert Fraction(*general_expansion(base, 0)) == -1
    assert Fraction(*general_expansion(base, 5)) == -1


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
    assert inst.p is p
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
    assert lhs == Fraction(*rhs) == p ** v - q ** w


@settings(deadline=None, max_examples=60)
@given(nonzero_fractions, nonzero_fractions,
       st.integers(min_value=-4, max_value=12), st.integers(min_value=-4, max_value=12))
def test_free_upper_limit_property(p, q, v, w):
    expected = p ** v - q ** w
    for n in range(0, 11):
        assert Fraction(*general_expansion(ExpansionInstance(p, q, v, w), n)) == expected


@settings(deadline=None, max_examples=300)
@given(nonzero_fractions, nonzero_fractions, exponents, exponents,
       st.sampled_from(FREE_LIMIT_RANGE))
def test_integer_expansion_matches_fraction_reference(p, q, v, w, n):
    assert Fraction(*general_expansion(ExpansionInstance(p, q, v, w), n)) == \
        fraction_expansion(p, q, v, w, n)


@pytest.mark.parametrize("p, q, v, w, n", [
    (Fraction(3, 7), Fraction(-3, 7), 5, 2, 6),      # p == -q: (p+q)**(n-i) is 0 but at i == n
    (Fraction(-2), Fraction(-5, 3), 7, -3, 4),       # both bases negative
    (Fraction(-3, 2), Fraction(-7, 5), -4, -4, 10),  # exponents down to -24
])
def test_integer_expansion_fixed_cases(p, q, v, w, n):
    total = Fraction(*general_expansion(ExpansionInstance(p, q, v, w), n))
    assert total == fraction_expansion(p, q, v, w, n) == p ** v - q ** w


@pytest.mark.parametrize("p, q, v, w", [
    (Fraction(2, 3), Fraction(2, 3), 5, 5),
    (Fraction(-3), Fraction(-3), -3, -3),
    (Fraction(-7, 4), Fraction(-7, 4), 12, 12),
    (Fraction(1), Fraction(1), 7, -4),
])
def test_zero_difference_at_every_n(p, q, v, w):
    inst = ExpansionInstance(p, q, v, w)
    lhs, rhs = expand_difference(inst)
    assert lhs == Fraction(*rhs) == 0
    for n in FREE_LIMIT_RANGE:
        assert Fraction(*general_expansion(inst, n)) == 0


def test_negative_base_under_odd_negative_exponent_at_every_n():
    p, q, v, w = Fraction(-3, 2), Fraction(5, 7), -3, -1
    inst = ExpansionInstance(p, q, v, w)
    expected = p ** v - q ** w
    assert expected == Fraction(-8, 27) - Fraction(7, 5)
    assert Fraction(*expand_difference(inst)[1]) == expected
    for n in FREE_LIMIT_RANGE:
        num, den = general_expansion(inst, n)
        assert den != 0
        assert Fraction(num, den) == fraction_expansion(p, q, v, w, n) == expected


def test_tables_grow_past_the_suite_ranges():
    # n = 25 reaches exponents down to v - 50 = -70; then smaller n reuse the tables
    p, q, v, w = Fraction(-7, 3), Fraction(5, 9), -20, 3
    inst = ExpansionInstance(p, q, v, w)
    for n in (25, 0, 1, 10, 25, 26):
        assert Fraction(*general_expansion(inst, n)) == fraction_expansion(p, q, v, w, n)
    assert Fraction(*general_expansion(inst, 25)) == p ** v - q ** w
    wide = ExpansionInstance(Fraction(9, 8), Fraction(-2, 5), 40, -30)
    assert Fraction(*general_expansion(wide, 3)) == Fraction(9, 8) ** 40 - Fraction(-2, 5) ** -30


def _reach(e, n):
    """ka + kb of ExpansionInstance._grow for exponent e at largest limit n."""
    return max(2 * n - e, 0) + max(e, 0)


def _assert_laid_out(inst, n):
    """inst holds what every limit 0..n reads, and no more: differences
    j = 0..2n over one denominator D, and limit m's denominator (b*d)**m * D."""
    p, q, v, w = inst.p, inst.q, inst.v, inst.w
    a, b, c, d, plus, minus = inst._bases
    den = inst._den[0]
    assert inst._den == [den * (b * d) ** m for m in range(n + 1)], inst
    assert inst._diff == [(p ** (v - j) - q ** (w - j)) * den for j in range(2 * n + 1)], inst
    assert inst._plus[:n + 1] == [plus ** k for k in range(n + 1)], inst
    assert inst._minus[:n + 1] == [minus ** k for k in range(n + 1)], inst


def _record_grows(monkeypatch):
    """Wrap ExpansionInstance._grow; the list it returns gets (inst, n, powers)
    per call."""
    grows, real = [], ExpansionInstance._grow

    def recorded(inst, n, powers):
        real(inst, n, powers)
        grows.append((inst, n, powers))

    monkeypatch.setattr(ExpansionInstance, "_grow", recorded)
    return grows


def test_suite_sizes_each_table_to_exactly_the_powers_read(monkeypatch):
    grows = _record_grows(monkeypatch)
    assert run_random_suite(100, seed=5) == []
    assert len(grows) == 100 and {n for _, n, _ in grows} == {10}
    powers = grows[0][2]
    assert all(shared is powers for _, _, shared in grows)
    # each table of the run is [base**k], as long as the instance that reads
    # furthest into it needs
    need = {}
    for inst, n, _ in grows:
        _assert_laid_out(inst, n)
        a, b, c, d, plus, minus = inst._bases
        top_p, top_q = _reach(inst.v, n), _reach(inst.w, n)
        for base, top in ((a, top_p), (b, top_p), (c, top_q), (d, top_q), (plus, n), (minus, n)):
            need[base] = max(need.get(base, 0), top)
        assert inst._plus is powers[plus] and inst._minus is powers[minus]
    assert {base: len(table) - 1 for base, table in powers.items()} == need
    for base, table in powers.items():
        assert table == [base ** k for k in range(len(table))]
    # the instances share tables: fewer tables than bases read
    assert len(powers) < sum(len(set(inst._bases)) for inst, _, _ in grows)


def test_shared_tables_live_for_one_run(monkeypatch):
    grows = _record_grows(monkeypatch)
    assert run_random_suite(30, seed=5) == []
    first = grows[0][2]
    assert run_random_suite(30, seed=5) == []
    second = grows[30][2]
    assert first is not second and first == second
    assert not {id(table) for table in first.values()} & {id(table) for table in second.values()}


@pytest.mark.parametrize("order", [
    list(range(10, -1, -1)),
    random.Random(3).sample(range(0, 14), 14),
    [12, 30, 2, 31, 0, 17],
], ids=["descending", "shuffled", "past the range"])
def test_tables_grow_on_demand_in_any_order_of_n(order):
    for p, q, v, w in [(Fraction(-7, 3), Fraction(5, 9), 12, -4),
                       (Fraction(9, 8), Fraction(-2, 5), -4, 12),
                       (Fraction(3), Fraction(-1, 10), 5, 5),
                       (Fraction(-10, 7), Fraction(7, 10), 0, 9)]:
        inst = ExpansionInstance(p, q, v, w)
        for n in order:
            assert Fraction(*general_expansion(inst, n)) == fraction_expansion(p, q, v, w, n)
        # the instance holds what the largest n asked reads, and no more
        _assert_laid_out(inst, max(order))


@pytest.mark.parametrize("j, reported", [
    (2, lambda f: f.startswith("two-term factoring broke")),  # n = 1 reads j = 1, 2
    (7, lambda f: f.endswith("at n=4")),                      # first read at n = 4, i = 3
    (20, lambda f: f.endswith("at n=10")),                    # read only at n = 10, i = 10
])
def test_suite_reports_a_fault_in_one_shared_difference(monkeypatch, capsys, j, reported):
    grows, real = [], ExpansionInstance._grow

    def faulty(inst, n, powers):
        real(inst, n, powers)
        inst._diff[j] += 1
        grows.append(inst)

    monkeypatch.setattr(ExpansionInstance, "_grow", faulty)
    failures = run_random_suite(50, seed=7)
    assert failures and all(map(reported, failures))
    # the term that reads j carries (p+q)**(2n-j); it is 0 only when p == -q
    assert len(failures) == sum(1 for inst in grows if j in (2, 20) or inst._bases[4] != 0)
    assert cli.main(["verify-identities", "--cases", "50", "--seed", "7"]) == 4
    assert "instances FAILED" in capsys.readouterr().out


def test_suite_compares_the_shared_n1_pair(monkeypatch, capsys):
    real = identity_mod.comb
    monkeypatch.setattr(identity_mod, "comb",
                        lambda n, i: real(n, i) + 1 if (n, i) == (1, 1) else real(n, i))
    failures = run_random_suite(50, seed=7)
    assert failures and all(f.startswith("two-term factoring broke") for f in failures)
    assert cli.main(["verify-identities", "--cases", "50", "--seed", "7"]) == 4
    assert "instances FAILED" in capsys.readouterr().out


@pytest.mark.parametrize("change", [lambda k: k + 1, lambda k: -k],
                         ids=["binomial plus one", "term sign flipped"])
def test_suite_catches_one_wrong_term_at_one_n(monkeypatch, capsys, change):
    real = identity_mod.comb
    monkeypatch.setattr(identity_mod, "comb",
                        lambda n, i: change(real(n, i)) if (n, i) == (5, 2) else real(n, i))
    failures = run_random_suite(50, seed=7)
    assert failures and all(f.endswith("at n=5") for f in failures)
    assert cli.main(["verify-identities", "--cases", "50", "--seed", "7"]) == 4
    assert "instances FAILED" in capsys.readouterr().out


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
