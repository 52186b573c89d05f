"""Differential tests of the root kernels against sympy, an independent implementation.

sympy is imported once for the module (it takes up to about 3 s).  Inputs are
seeded: random ones up to 4,000 bits with root degrees 2 to 40, and adversarial
ones: exact powers r**k and their neighbours r**k +- 1, values on either side
of 2**50 (where iroot switches from its float seed to Newton's method), and
degrees at or past the bit length of n.
"""

import random

import pytest

from bealsearch.exact_arith import iroot, is_perfect_power

sympy = pytest.importorskip("sympy")

MAX_BITS = 4000
FLOAT_EDGE = 1 << 50


def _random_cases(rng: random.Random, count: int) -> list[tuple[int, int]]:
    return [(rng.getrandbits(rng.randint(1, MAX_BITS)), rng.randint(2, 40))
            for _ in range(count)]


def _power_cases(rng: random.Random) -> list[tuple[int, int]]:
    """(n, k) for n = r**k - 1, r**k, r**k + 1 over assorted r and every k in 2..40."""
    cases = []
    for k in range(2, 41):
        bases = [2, 3, 10, 1021, 2 ** 61 - 1, rng.randrange(2, 2 ** 20),
                 rng.getrandbits(rng.randint(2, MAX_BITS // k)) | 2]
        for r in bases:
            power = r ** k
            if power.bit_length() <= MAX_BITS:
                cases += [(power - 1, k), (power, k), (power + 1, k)]
    return cases


def _float_edge_cases() -> list[tuple[int, int]]:
    """n on either side of 2**50, including the k-th powers that straddle it."""
    cases = []
    for k in range(2, 41):
        cases += [(n, k) for n in range(FLOAT_EDGE - 3, FLOAT_EDGE + 4)]
        root, _ = sympy.integer_nthroot(FLOAT_EDGE, k)
        for r in (root, root + 1):
            cases += [(r ** k - 1, k), (r ** k, k), (r ** k + 1, k)]
    return cases


def _large_degree_cases(rng: random.Random) -> list[tuple[int, int]]:
    """k >= bits(n): the root is 0 or 1."""
    cases = []
    for _ in range(200):
        n = rng.getrandbits(rng.randint(1, 39))
        bits = n.bit_length()
        cases += [(n, max(bits, 2)), (n, bits + 1), (n, 40)]
    return cases


def _iroot_cases() -> list[tuple[int, int]]:
    rng = random.Random(2203)
    return (_random_cases(rng, 600) + _power_cases(rng) + _float_edge_cases()
            + _large_degree_cases(rng))


def test_iroot_matches_sympy_integer_nthroot():
    cases = _iroot_cases()
    assert len(cases) > 2000
    exact = 0
    for n, k in cases:
        root, is_exact = iroot(n, k)
        assert (root, is_exact) == tuple(sympy.integer_nthroot(n, k)), (n, k)
        exact += is_exact
    assert exact > 300


def _perfect_power_inputs() -> list[int]:
    rng = random.Random(2204)
    values = [rng.getrandbits(rng.randint(2, MAX_BITS)) | 2 for _ in range(300)]
    values += [n for n, _ in _power_cases(rng) + _float_edge_cases() if n >= 2]
    # powers of powers and products of powers, whose maximal exponent is composite
    for base in (2, 3, 6, 12, 1000, rng.randrange(2, 2 ** 30)):
        for e in (2, 3, 4, 6, 8, 9, 12, 15, 30, 60):
            for inner in (1, 2, 3, 5):
                n = (base ** inner) ** e
                if n.bit_length() <= MAX_BITS:
                    values += [n - 1, n, n + 1]
    return [n for n in values if n >= 2]


def test_is_perfect_power_matches_sympy_perfect_power():
    values = _perfect_power_inputs()
    assert len(values) > 2000
    powers = 0
    for n in values:
        ours = is_perfect_power(n)
        theirs = sympy.perfect_power(n)
        assert ours == (None if theirs is False else tuple(theirs)), n
        powers += ours is not None
    assert powers > 300
