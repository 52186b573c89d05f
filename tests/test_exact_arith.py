"""Kernel tests: roots, perfect powers, radical classification, factorization."""

import math
import random
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bealsearch import exact_arith
from bealsearch.errors import BudgetExceeded
from bealsearch.exact_arith import (_TRIAL_BLOCK, IRRATIONAL, NO_REAL_ROOT, RATIONAL, Radical,
                                    RadicalClass, _primes_below, classify_radical, factorize,
                                    iroot, is_perfect_power, is_probable_prime, reduce_base)


# --- iroot ---------------------------------------------------------------------

def test_iroot_examples():
    assert iroot(2744, 3) == (14, True)
    assert 14 * 14 * 14 == 2744  # oracle: plain multiplication
    assert iroot(35, 3) == (3, False)
    assert 3 ** 3 <= 35 < 4 ** 3
    assert iroot(1, 5) == (1, True)
    assert iroot(0, 4) == (0, True)


def test_iroot_matches_exhaustive_floor_oracle():
    # Incremental oracle: maintain root with root**k <= n < (root+1)**k by
    # repeated multiplication only, for every n up to 10**6 and k in [1, 6].
    limit = 10 ** 6
    for k in range(1, 7):
        root = 0
        current_power = 0
        next_power = 1
        for n in range(limit + 1):
            if n == next_power:
                root += 1
                current_power = next_power
                next_power = (root + 1) ** k
            assert iroot(n, k) == (root, n == current_power), (n, k)


def test_iroot_brackets_every_power_below_2_to_the_50():
    # The float path below 2**50 rounds the float root, which must not tip
    # over at an exact power: check b**k - 1, b**k and b**k + 1 for every
    # k in 3..49 and every b with b**k < 2**50.
    for k in range(3, 50):
        base = 1
        while (power := base ** k) < 2 ** 50:
            assert iroot(power - 1, k) == (base - 1, base == 1), (base, k)
            assert iroot(power, k) == (base, True), (base, k)
            assert iroot(power + 1, k) == (base, False), (base, k)
            base += 1


def test_iroot_rejects_bad_arguments():
    with pytest.raises(ValueError):
        iroot(10, 0)
    with pytest.raises(ValueError):
        iroot(-1, 3)


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 4096 - 1), st.integers(min_value=1, max_value=1000))
def test_iroot_bracket_property(n, k):
    root, exact = iroot(n, k)
    assert root ** k <= n < (root + 1) ** k
    assert exact == (root ** k == n)


@settings(deadline=None)
@given(st.integers(min_value=1, max_value=10 ** 12), st.integers(min_value=1, max_value=10))
def test_iroot_inverts_powers(base, k):
    assert iroot(base ** k, k) == (base, True)


# --- perfect powers ------------------------------------------------------------

def test_is_perfect_power_examples():
    assert is_perfect_power(6561) == (3, 8)
    assert 3 ** 8 == 6561
    assert is_perfect_power(2) is None
    assert is_perfect_power(64) == (2, 6)  # maximal: not (8, 2) or (4, 3)


def test_is_perfect_power_small_range_oracle():
    # enumerate all powers below the limit by multiplication
    limit = 20000
    powers = {}
    for base in range(2, int(limit ** 0.5) + 1):
        value = base * base
        exponent = 2
        while value <= limit:
            if value not in powers or powers[value][1] < exponent:
                powers[value] = (base, exponent)
            value *= base
            exponent += 1
    for n in range(2, limit + 1):
        assert is_perfect_power(n) == powers.get(n), n


def _every_exponent_perfect_power(n):
    """The maximal decomposition by trying every exponent, largest first."""
    for e in range(n.bit_length() - 1, 1, -1):
        root, exact = iroot(n, e)
        if exact:
            return root, e
    return None


def test_is_perfect_power_matches_every_exponent_loop():
    # Only prime exponents are tried; the result must equal the loop over all.
    rng = random.Random(14)
    cases = [*range(2, 20001), 2 ** 60, 3 ** 40, 6 ** 35, 10 ** 36, 30 ** 210,
             *(rng.randrange(2, 2 ** 4096) for _ in range(4)),
             *(rng.getrandbits(rng.randrange(2, 4097)) | 2 for _ in range(12)),
             *(rng.randrange(2, 10 ** 6) ** rng.randrange(2, 64) for _ in range(60))]
    for n in cases:
        assert is_perfect_power(n) == _every_exponent_perfect_power(n), n
    assert is_perfect_power(2 ** 60) == (2, 60) and is_perfect_power(6 ** 35) == (6, 35)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 6), st.integers(min_value=2, max_value=20))
def test_is_perfect_power_roundtrip(base, e):
    root, exponent = is_perfect_power(base ** e)
    assert root ** exponent == base ** e
    assert exponent % e == 0 or exponent >= e  # maximal exponent absorbs e
    assert is_perfect_power(root) is None


# --- reduce_base ----------------------------------------------------------------

def test_reduce_base_examples():
    assert reduce_base(8, 5) == (2, 15)
    assert reduce_base(2, 15) == (2, 15)
    assert reduce_base(27, 4) == (3, 12)


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=10 ** 9), st.integers(min_value=1, max_value=50))
def test_reduce_base_preserves_value_and_is_idempotent(base, exp):
    reduced, new_exp = reduce_base(base, exp)
    assert reduced ** new_exp == base ** exp
    assert reduce_base(reduced, new_exp) == (reduced, new_exp)
    assert is_perfect_power(reduced) is None if reduced >= 2 else True


# --- classify_radical ------------------------------------------------------------

def test_classify_radical_examples():
    assert classify_radical(1, Fraction(71, 216), 3) == RadicalClass(IRRATIONAL)
    assert classify_radical(1, Fraction(8), 3) == RadicalClass(RATIONAL, Fraction(2))
    assert classify_radical(-1, Fraction(6), 3) == RadicalClass(IRRATIONAL)
    assert classify_radical(-1, Fraction(4), 2) == RadicalClass(NO_REAL_ROOT)


def test_classify_radical_edge_cases():
    # zero radicand is rational 0 regardless of sign and degree parity
    assert classify_radical(-1, Fraction(0), 2) == RadicalClass(RATIONAL, Fraction(0))
    # degree 1 is the identity root
    assert classify_radical(-1, Fraction(7, 3), 1) == RadicalClass(RATIONAL, Fraction(-7, 3))
    # negative sign with odd degree can still be rational
    assert classify_radical(-1, Fraction(8, 27), 3) == RadicalClass(RATIONAL, Fraction(-2, 3))


def brute_force_root_tables(limit: int, degrees) -> dict[int, dict[Fraction, Fraction]]:
    """Candidate-root tables: all a/b with a**n, b**n <= limit, by multiplication."""
    tables = {}
    for n in degrees:
        table = {}
        a = 1
        while a ** n <= limit:
            b = 1
            while b ** n <= limit:
                table.setdefault(Fraction(a ** n, b ** n), Fraction(a, b))
                b += 1
            a += 1
        tables[n] = table
    return tables


def test_classify_radical_matches_brute_force_small():
    limit = 60
    tables = brute_force_root_tables(limit, range(2, 7))
    for p in range(1, limit + 1):
        for q in range(1, limit + 1):
            radicand = Fraction(p, q)
            for degree in range(2, 7):
                expected = tables[degree].get(radicand)
                got = classify_radical(1, radicand, degree)
                if expected is None:
                    assert not got.is_rational, (p, q, degree)
                else:
                    assert got == RadicalClass(RATIONAL, expected), (p, q, degree)


@settings(deadline=None)
@given(st.fractions(min_value=0, max_value=1000, max_denominator=1000),
       st.integers(min_value=1, max_value=8),
       st.sampled_from([1, -1]))
def test_classify_radical_remultiplication(radicand, degree, sign):
    result = classify_radical(sign, radicand, degree)
    if result.is_rational:
        assert result.value ** degree == sign * radicand


@settings(deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 9), st.integers(min_value=1, max_value=8))
def test_integer_radicand_dichotomy(n, degree):
    # the degree-th root of an integer is an integer or irrational
    result = classify_radical(1, Fraction(n), degree)
    if result.is_rational:
        assert result.value.denominator == 1


def _fraction_classify_radical(sign, radicand, degree):
    """classify_radical as written on Fractions before it read numerator and
    denominator as ints, kept here as the reference for the integer path."""
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    if not isinstance(radicand, Fraction):
        radicand = Fraction(radicand)
    if radicand < 0:
        raise ValueError(f"radicand must be >= 0, got {radicand}")
    if radicand == 0:
        return RadicalClass(RATIONAL, radicand)
    if sign == -1 and degree % 2 == 0:
        return RadicalClass(NO_REAL_ROOT)
    p, q = radicand.numerator, radicand.denominator
    root_p, exact_p = iroot(p, degree)
    if not exact_p:
        return RadicalClass(IRRATIONAL)
    root_q, exact_q = iroot(q, degree)
    if not exact_q:
        return RadicalClass(IRRATIONAL)
    value = Fraction(sign * root_p, root_q)
    assert value ** degree == sign * radicand
    return RadicalClass(RATIONAL, value)


def _radicand_sweep():
    """Seeded (radicand, degree) pairs: int and Fraction radicands, zero, exact
    powers, and radicands where only the numerator or only the denominator is
    a perfect power, for degrees 1 to 12."""
    rng = random.Random(2201)
    for degree in range(1, 13):
        yield 0, degree
        yield Fraction(0), degree
        for _ in range(40):
            p = rng.randrange(1, 10 ** rng.randint(1, 30))
            q = rng.randrange(1, 10 ** rng.randint(1, 30))
            root_p, root_q = rng.randrange(1, 2 ** 40), rng.randrange(1, 2 ** 40)
            yield p, degree
            yield root_p ** degree, degree
            yield Fraction(p, q), degree
            yield Fraction(root_p ** degree, root_q ** degree), degree
            yield Fraction(root_p ** degree, q), degree  # only p may be a power
            yield Fraction(p, root_q ** degree), degree  # only q may be a power
            yield Fraction(root_p ** degree * q, 1), degree


def test_classify_radical_matches_the_fraction_implementation():
    compared = rational = 0
    for radicand, degree in _radicand_sweep():
        for sign in (1, -1):
            got = classify_radical(sign, radicand, degree)
            expected = _fraction_classify_radical(sign, radicand, degree)
            assert got == expected, (sign, radicand, degree)
            assert type(got.value) is type(expected.value), (sign, radicand, degree)
            compared += 1
            rational += got.is_rational
    assert compared > 6000 and 0 < rational < compared


@pytest.mark.parametrize("sign, radicand, degree", [
    (0, 8, 3), (2, Fraction(8), 3), (1, 8, 0), (-1, Fraction(1, 2), -2),
    (1, -8, 3), (-1, Fraction(-7, 3), 3), (1, Fraction(-1, 10 ** 30), 1)])
def test_classify_radical_raises_the_same_errors(sign, radicand, degree):
    with pytest.raises(ValueError) as expected:
        _fraction_classify_radical(sign, radicand, degree)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        classify_radical(sign, radicand, degree)
    with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
        Radical(sign, radicand, degree)


@pytest.mark.parametrize("signed", [-8, Fraction(-55, 2744), -(10 ** 40), Fraction(-1, 3)])
def test_radical_of_a_negative_value_splits_off_the_sign(signed):
    radical = Radical.of(signed, 3)
    assert radical.sign == -1
    assert type(radical.radicand) is Fraction and radical.radicand == -signed > 0
    assert Radical.of(-signed, 3) == (1, -signed, 3)


def test_radical_type():
    radical = Radical.of(Fraction(-55, 2744), 3)
    assert radical.sign == -1
    assert radical.radicand == Fraction(55, 2744)
    assert radical.classification.kind == "irrational"
    assert radical.exact_value is None
    assert str(radical) == "-(55/2744)^(1/3)"
    exact = Radical.of(Fraction(8), 3)
    assert exact.exact_value == 2
    assert repr(exact) == "Radical(sign=1, radicand=Fraction(8, 1), degree=3)"
    assert type(Radical(1, 8, 3).radicand) is Fraction
    for sign, radicand, degree in ((0, 8, 3), (1, 8, 0), (1, -8, 3)):
        with pytest.raises(ValueError):
            Radical(sign, radicand, degree)
    with pytest.raises(ValueError, match="degree must be >= 1"):
        exact._replace(degree=0)


def test_radical_classifies_once(monkeypatch):
    import bealsearch.exact_arith as exact_arith
    calls = []
    real = exact_arith.classify_radical
    monkeypatch.setattr(exact_arith, "classify_radical",
                        lambda *args: calls.append(args) or real(*args))
    radicals = [Radical(1, 8, 3), Radical(-1, 4, 2), Radical(1, Fraction(55, 2744), 3)]
    # one classification per radical built, as it is built
    assert calls == [tuple(radical) for radical in radicals]
    for radical, kind in zip(radicals, ("rational", "no_real_root", "irrational")):
        first = radical.classification
        assert first.kind == kind and radical.classification is first
        assert radical.exact_value == first.value and vars(radical) == {"classification": first}
    assert len(calls) == len(radicals)  # reading them classified nothing again
    for radical in radicals:
        # the stored classification is no field: equality and hashing see none of it
        assert radical == Radical(*radical) and hash(radical) == hash(tuple(radical))
    assert len(calls) == 2 * len(radicals)


# --- factorize -------------------------------------------------------------------

def test_factorize_examples():
    assert factorize(2744) == [(2, 3), (7, 3)]
    assert factorize(2) == [(2, 1)]
    assert factorize(6561) == [(3, 8)]


def test_factorize_rejects_below_two():
    with pytest.raises(ValueError):
        factorize(1)


def test_factorize_semiprimes_beyond_trial_division():
    p, q = 10 ** 9 + 7, 10 ** 9 + 9
    assert factorize(p * q) == [(p, 1), (q, 1)]
    r = 2 ** 61 - 1
    assert factorize(r * 8) == [(2, 3), (r, 1)]
    # perfect power of a large prime
    assert factorize(p * p) == [(p, 2)]


def test_factorize_budget_exceeded(monkeypatch):
    n = (2 ** 127 - 1) * (2 ** 521 - 1)
    monkeypatch.setattr(exact_arith, "_rho_budget", lambda bits: 4)
    with pytest.raises(BudgetExceeded, match=r"\(4 steps\)"):
        factorize(n)


@settings(deadline=None, max_examples=60)
@given(st.integers(min_value=2, max_value=10 ** 12))
def test_factorize_reconstructs(n):
    factors = factorize(n)
    product = 1
    previous = 1
    for prime, multiplicity in factors:
        assert prime > previous  # strictly increasing
        assert multiplicity >= 1
        assert is_probable_prime(prime)
        product *= prime ** multiplicity
        previous = prime
    assert product == n


def _sieve(limit):
    flags = [True] * limit
    flags[0] = flags[1] = False
    for p in range(2, math.isqrt(limit - 1) + 1):
        if flags[p]:
            flags[p * p::p] = [False] * len(range(p * p, limit, p))
    return [n for n, flag in enumerate(flags) if flag]


# Every prime trial division covers (below 10**6), and those at its edges:
# 2, 999983 and the primes on each side of every block boundary.
TRIAL_PRIMES = _sieve(10 ** 6)
EDGE_PRIMES = sorted({2, TRIAL_PRIMES[-1]} | {
    TRIAL_PRIMES[i + offset] for i in range(_TRIAL_BLOCK, len(TRIAL_PRIMES), _TRIAL_BLOCK)
    for offset in (-1, 0)})
LARGE_PRIMES = [1000003, 10 ** 9 + 7, 10 ** 12 + 39, 2 ** 61 - 1]


@settings(deadline=None, max_examples=100)
@given(st.lists(st.tuples(st.sampled_from(EDGE_PRIMES) | st.sampled_from(TRIAL_PRIMES),
                          st.integers(min_value=1, max_value=20)),
                min_size=1, max_size=4, unique_by=lambda pair: pair[0]),
       st.none() | st.sampled_from(LARGE_PRIMES))
def test_factorize_trial_division_returns_generating_list(small, large):
    expected = sorted(small + ([(large, 1)] if large else []))
    n = math.prod(p ** m for p, m in expected)
    assert factorize(n) == expected


def test_primes_below_matches_trial_division_and_full_sieve():
    naive = [n for n in range(2, 2000) if all(n % d for d in range(2, math.isqrt(n) + 1))]
    for limit in range(2, 2001):
        assert _primes_below(limit) == [p for p in naive if p < limit], limit
    assert _primes_below(10 ** 6) == TRIAL_PRIMES
    assert len(TRIAL_PRIMES) == 78498


def test_factorize_trial_division_edges():
    assert TRIAL_PRIMES[-1] == 999983
    assert factorize(999983 ** 7) == [(999983, 7)]
    second_block_first = TRIAL_PRIMES[_TRIAL_BLOCK]
    assert factorize(second_block_first ** 2) == [(second_block_first, 2)]
    assert factorize(2 ** 14 * 5 ** 28 * 277303573 ** 14) == [(2, 14), (5, 28),
                                                              (277303573, 14)]
    assert factorize(999979 * 999983) == [(999979, 1), (999983, 1)]


def _naive_factorize(n):
    factors = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            multiplicity = 0
            while n % d == 0:
                n //= d
                multiplicity += 1
            factors.append((d, multiplicity))
        d += 1 if d == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return factors


def _is_naive_prime(n):
    return _naive_factorize(n) == [(n, 1)]


# factorize tries the primes below min(10**6, 2**bits(iroot(n, 3))): each
# power of two it can size the table to, and the fixed ceiling.
@pytest.mark.parametrize("edge", [2 ** k for k in range(1, 21)] + [10 ** 6])
def test_factorize_at_the_edges_of_the_sized_trial_table(edge):
    below = next(p for p in range(edge, 1, -1) if _is_naive_prime(p))
    above = next(p for p in range(edge + 1, 2 * edge + 2) if _is_naive_prime(p))
    for n in (below, below * below, above, above * above, below * above):
        assert factorize(n) == _naive_factorize(n), n


# Products of three primes around an edge: their cube roots sit at the edge,
# so the table stops just below or just above the primes themselves.
@pytest.mark.parametrize("edge", [2 ** k for k in range(1, 21)] + [10 ** 6])
def test_factorize_at_the_edges_of_the_cube_root_trial_table(edge):
    below = next(p for p in range(edge, 1, -1) if _is_naive_prime(p))
    above = next(p for p in range(edge + 1, 2 * edge + 2) if _is_naive_prime(p))
    for primes in ((below,) * 3, (below, below, above), (below, above, above), (above,) * 3):
        assert factorize(math.prod(primes)) == sorted(Counter(primes).items()), primes


# In each product the last two primes lie at or above the trial table's limit
# min(10**6, 2**bits(iroot(n, 3))), so trial division cannot find them and
# Brent's rho splits what is left; the last product has three such primes,
# above the 10**6 ceiling.
@pytest.mark.parametrize("primes", [(999983, 1000003), (3, 999983, 1000003),
                                    (65537, 2147483647), (2, 2, 1048573, 1048583),
                                    (1000003, 1000033, 1000037)])
def test_factorize_splits_primes_above_the_trial_limit(primes, monkeypatch):
    n = math.prod(primes)
    assert min(primes[-2:]) >= min(10 ** 6, 1 << iroot(n, 3)[0].bit_length())
    expected = sorted(Counter(primes).items())
    assert factorize(n) == expected  # the derived budget, 2**20 rho steps below 2**256
    monkeypatch.setattr(exact_arith, "_rho_budget", lambda bits: 2 ** 16)
    assert factorize(n) == expected  # far fewer steps suffice


def test_factorize_builds_only_the_trial_table_it_needs():
    # In a fresh process: every n below 2**42 needs primes below 2**14 at
    # most, and a 30-bit n those below 2**10.
    code = ("from bealsearch import exact_arith as e\n"
            "real, built = e._trial_blocks, []\n"
            "e._trial_blocks = lambda limit: built.append(limit) or real(limit)\n"
            "for n in (2, 97, 10**9 + 7, 2**30 - 35, 3**25, 2**39 + 7, 2**40 - 87):\n"
            "    e.factorize(n)\n"
            "print(*sorted(set(built)), real.cache_info().currsize)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["2", "8", "1024", "16384", "4"]


def test_is_probable_prime_spot_checks():
    assert is_probable_prime(2) and is_probable_prime(3) and is_probable_prime(97)
    assert not is_probable_prime(1) and not is_probable_prime(561)  # Carmichael
    assert is_probable_prime(2 ** 127 - 1)
    assert not is_probable_prime((2 ** 61 - 1) ** 2)
    assert is_probable_prime(41)


_FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
# (psi, k, the largest prime below psi): psi is the smallest strong
# pseudoprime to the first k prime bases (OEIS A014233); base k + 1, when
# there is one, finds it composite.  The primes below each psi were found
# and checked with sympy.
_PSI = [
    (2047, 1, 2039),
    (1373653, 2, 1373639),
    (25326001, 3, 25325981),
    (3215031751, 4, 3215031749),
    (2152302898747, 5, 2152302898729),
    (3474749660383, 6, 3474749660329),
    (341550071728321, 8, 341550071728289),
    (3825123056546413051, 11, 3825123056546412979),
    (318665857834031151167461, 12, 318665857834031151167441),
    (3317044064679887385961981, 13, 3317044064679887385961813),
]


def _strong_probable_prime(n: int, a: int) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    x = pow(a, d, n)
    if x in (1, n - 1):
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


@pytest.mark.parametrize("psi, k, prime_below", _PSI, ids=[str(k) for _, k, _ in _PSI])
def test_is_probable_prime_at_each_witness_threshold(psi, k, prime_below):
    passed = [_strong_probable_prime(psi, a) for a in _FIRST_PRIMES[:k + 1]]
    assert passed == [True] * k + [False]
    assert not is_probable_prime(psi)
    assert is_probable_prime(prime_below)
    assert all(_strong_probable_prime(prime_below, a) for a in _FIRST_PRIMES)


def test_is_probable_prime_agrees_with_a_sieve_below_a_million():
    limit = 10 ** 6
    sieve = bytearray([1]) * limit
    sieve[0] = sieve[1] = 0
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, limit, p)))
    assert [n for n in range(limit) if is_probable_prime(n)] == \
        [n for n in range(limit) if sieve[n]]


def test_strong_pseudoprime_to_first_twelve_prime_bases():
    # The smallest composite passing Miller-Rabin for every prime base <= 37.
    n = 318665857834031151167461
    assert not is_probable_prime(n)
    assert factorize(n) == [(399165290221, 1), (798330580441, 1)]
    assert math.prod(p for p, _ in factorize(3 * 5 * 7 * 11)) == 1155
