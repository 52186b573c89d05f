"""Exact integer and rational kernels.

Arbitrary-precision building blocks used everywhere else: floor n-th roots,
perfect-power detection, base reduction, radical-rationality classification,
and bounded integer factorization.  Integers are plain Python ints, rationals
are ``fractions.Fraction`` (always normalized, denominator >= 1).

All functions here are pure and safe to call from any number of workers.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from fractions import Fraction
from functools import cache
from itertools import compress
from typing import NamedTuple

from .errors import BudgetExceeded

FactorList = list[tuple[int, int]]

RATIONAL = "rational"
IRRATIONAL = "irrational"
NO_REAL_ROOT = "no_real_root"


def iroot(n: int, k: int) -> tuple[int, bool]:
    """Floor k-th root of a non-negative integer.

    Returns (root, exact) with root**k <= n < (root+1)**k and
    exact iff root**k == n.
    """
    if k < 1:
        raise ValueError(f"root degree must be >= 1, got {k}")
    if n < 0:
        raise ValueError(f"iroot requires n >= 0, got {n}")
    if n == 0 or k == 1:
        return n, True
    if k == 2:
        r = math.isqrt(n)
        return r, r * r == n
    if n.bit_length() < 50:
        # The float root is within 10**-9 of the true root t < 2**17 here, so
        # rounding it gives floor(t) or floor(t) + 1, and one power tells which.
        r = round(n ** (1.0 / k))
        power = r ** k
        if power > n:
            return r - 1, False
        return r, power == n
    # Integer Newton iteration from a float estimate of the root, kept to its
    # top 52 bits.  Any first step lands at or above the floor root (AM-GM).
    # From there a step falls strictly while r**k > n, and stops falling at
    # the floor root, so the last value before a step that does not fall is it.
    e = math.log2(n) / k
    shift = max(int(e) - 52, 0)
    r = (int(2.0 ** (e - shift)) + 1) << shift
    r = ((k - 1) * r + n // r ** (k - 1)) // k
    while True:
        low = r ** (k - 1)
        nxt = ((k - 1) * r + n // low) // k
        if nxt >= r:
            return r, low * r == n
        r = nxt


def is_perfect_power(n: int) -> tuple[int, int] | None:
    """Decompose n >= 2 as base**exponent with the maximal exponent >= 2.

    Returns None when n is not a perfect power.  Only prime exponents are
    tried: n is a perfect power iff it is a p-th power for some prime p <
    bits(n).  The largest such p is taken and its root decomposed in turn,
    so the exponents multiply to the maximal one and the returned base is
    never itself a perfect power.
    """
    if n < 2:
        raise ValueError(f"is_perfect_power requires n >= 2, got {n}")
    bits = n.bit_length()
    primes = _exponent_primes(bits.bit_length())
    for i in range(bisect_left(primes, bits) - 1, -1, -1):
        root, exact = iroot(n, primes[i])
        if exact:
            deeper = is_perfect_power(root)
            if deeper is None:
                return root, primes[i]
            return deeper[0], deeper[1] * primes[i]
    return None


@cache
def _exponent_primes(size: int) -> tuple[int, ...]:
    """The primes below 2**size: the exponents is_perfect_power tries on any n
    with bits(n) <= 2**size, built on first use."""
    return tuple(_primes_below(1 << size))


def reduce_base(base: int, exp: int) -> tuple[int, int]:
    """Rewrite base**exp so the base is not a perfect power.

    Example: (8, 5) -> (2, 15).  Idempotent; value-preserving.
    """
    if base < 2:
        raise ValueError(f"reduce_base requires base >= 2, got {base}")
    if exp < 1:
        raise ValueError(f"reduce_base requires exp >= 1, got {exp}")
    decomp = is_perfect_power(base)
    if decomp is None:
        return base, exp
    root, e = decomp
    return root, e * exp


class RadicalClass(NamedTuple):
    """Outcome of classifying sign * radicand**(1/degree).

    kind is one of "rational", "irrational", "no_real_root"; value is the
    exact root and is present iff kind == "rational".
    """

    kind: str
    value: Fraction | None = None

    @property
    def is_rational(self) -> bool:
        return self.kind == RATIONAL

    def __str__(self) -> str:
        if self.is_rational:
            return f"rational({self.value})"
        return self.kind


def classify_radical(sign: int, radicand: Fraction | int, degree: int) -> RadicalClass:
    """Decide whether sign * radicand**(1/degree) is a rational number.

    With radicand = p/q in lowest terms, the root is rational iff p and q are
    both perfect degree-th powers (a rational root of an integer-coefficient
    monomial is integral on each side).  A negative sign needs an odd degree
    for a real root to exist at all, except for radicand 0.  p and q are
    read as ints (an int radicand n is n/1), so only the rational result is
    a Fraction.
    """
    if sign not in (1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    p, q = radicand.numerator, radicand.denominator  # an int n is (n, 1)
    if p < 0:
        raise ValueError(f"radicand must be >= 0, got {radicand}")
    if p == 0:
        return RadicalClass(RATIONAL, Fraction(0))
    if sign == -1 and degree % 2 == 0:
        return RadicalClass(NO_REAL_ROOT)
    root_p, exact_p = iroot(p, degree)
    if not exact_p:
        return RadicalClass(IRRATIONAL)
    root_q, exact_q = iroot(q, degree)
    if not exact_q:
        return RadicalClass(IRRATIONAL)
    assert root_p ** degree == p and root_q ** degree == q
    return RadicalClass(RATIONAL, Fraction(sign * root_p, root_q))


class _Radical(NamedTuple):
    sign: int
    radicand: Fraction
    degree: int


class Radical(_Radical):
    """A real radical sign * radicand**(1/degree) kept in exact form.

    radicand is a non-negative rational.  classify_radical checks the
    arguments and classifies the radical once, as it is built; the result is
    kept in the instance __dict__ (the class has no __slots__) as
    classification.  Numeric evaluation lives in the intervals module.
    """

    classification: RadicalClass

    def __new__(cls, sign: int, radicand: Fraction | int, degree: int):
        classification = classify_radical(sign, radicand, degree)
        if type(radicand) is not Fraction:
            radicand = Fraction(radicand)
        radical = tuple.__new__(cls, (sign, radicand, degree))
        radical.classification = classification
        return radical

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    @classmethod
    def of(cls, signed_radicand: Fraction | int, degree: int) -> "Radical":
        """Build from a signed radicand, splitting off the sign."""
        if signed_radicand.numerator < 0:
            return cls(-1, -signed_radicand, degree)
        return cls(1, signed_radicand, degree)

    @property
    def exact_value(self) -> Fraction | None:
        """The exact rational value, or None when irrational / unreal."""
        return self.classification.value

    def __str__(self) -> str:
        prefix = "-" if self.sign == -1 else ""
        return f"{prefix}({self.radicand})^(1/{self.degree})"


# --- factorization -----------------------------------------------------------

_TRIAL_LIMIT = 10 ** 6
# Trial division tests one block of primes per C-level gcd with the block's
# product (Bernstein, "How to find smooth parts of integers", 2004).
_TRIAL_BLOCK = 256

# Miller-Rabin witnesses: the first k primes are exact for every n below
# psi_k, the smallest strong pseudoprime to all of them (OEIS A014233; psi_7 =
# psi_8 and psi_9 = psi_10 = psi_11).  Each (psi_k, bases) pair gives the
# bases for the n below it.  From psi_13 = 3317044064679887385961981 (about
# 3.3 * 10**24; Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 2017) on, all 14 bases give a probable prime; the 14th,
# 43, rejects psi_13 itself.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43)
_MR_TIERS = tuple((psi, _MR_BASES[:k]) for psi, k in (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4), (2152302898747, 5),
    (3474749660383, 6), (341550071728321, 7), (3825123056546413051, 9),
    (318665857834031151167461, 12), (3317044064679887385961981, 13)))


def _primes_below(limit: int) -> list[int]:
    if limit <= 2:
        return []
    sieve = bytearray(b"\x01") * (limit // 2)  # index i stands for the odd number 2i + 1
    sieve[0] = 0
    for i in range(1, (math.isqrt(limit - 1) + 1) // 2):
        if sieve[i]:
            p = 2 * i + 1
            # p*p is odd, and consecutive odd multiples of p sit p indices apart
            sieve[p * p // 2::p] = bytes(len(range(p * p // 2, len(sieve), p)))
    return [2, *compress(range(1, limit, 2), sieve)]


@cache
def _trial_blocks(limit: int) -> list[tuple[list[int], int]]:
    """The primes below limit in ascending blocks, each with its product."""
    primes = _primes_below(limit)
    blocks = (primes[i:i + _TRIAL_BLOCK] for i in range(0, len(primes), _TRIAL_BLOCK))
    return [(block, math.prod(block)) for block in blocks]


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with as many prime bases as n needs.

    Exact for n < 3317044064679887385961981 (about 3.3e24); from there on a
    True result means a strong probable prime to the first 14 prime bases.
    """
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    bases = next((bases for psi, bases in _MR_TIERS if n < psi), _MR_BASES)
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho_budget(bits: int) -> int:
    """The Brent-rho steps factorize spends on a survivor of bits bits: 2**20
    up to 256 bits, then a quarter as many each time bits doubles, so that
    every give-up takes about as long: below 256 bits a step costs about
    the same, above it about bits**2 (per step on semiprimes, CPython 3.11:
    1.1 us at 128 bits, 2.0 at 256, 4.7 at 512, 12 at 1,024, 42-47 at
    2,040).  Rho finds a prime factor up to about the square of its budget
    whatever the size of n: up to 256 bits about 2**40, far past trial
    division's 10**6."""
    return 2 ** 36 // max(bits, 256) ** 2


def _brent_rho(n: int, rng: random.Random, max_steps: int) -> tuple[int | None, int]:
    """One Brent-cycle attempt at a nontrivial factor of odd composite n, in
    at most max_steps >= 1 steps.  Returns (factor_or_None, steps_spent)."""
    y = rng.randrange(1, n)
    c = rng.randrange(1, n)
    m = 128
    g = r = q = 1
    steps = 0
    x = ys = y
    while g == 1 and steps < max_steps:
        r = min(r, max_steps - steps)  # the last round stops at max_steps
        x = y
        for _ in range(r):
            y = (y * y + c) % n
        k = 0
        while k < r and g == 1:
            ys = y
            for _ in range(min(m, r - k)):
                y = (y * y + c) % n
                q = q * abs(x - y) % n
            g = math.gcd(q, n)
            k += m
        steps += r
        r *= 2
    if g == n:
        g = 1
        while g == 1 and steps < max_steps:
            ys = (ys * ys + c) % n
            g = math.gcd(abs(x - ys), n)
            steps += 1
    return (g if 1 < g < n else None), steps


def factorize(n: int) -> FactorList:
    """Full prime factorization as a sorted [(prime, multiplicity), ...] list.

    Trial division by block gcd: one gcd of n with the product of each
    block of primes, then division only by the block primes that divide it.
    The primes tried are those below L = min(10**6, 2**bits(iroot(n, 3))),
    so the table built for a small n stops just past its cube root.  A
    survivor below L**2, or a probable prime, is kept as a prime.  Otherwise
    perfect-power reduction and Brent's rho with an rng seeded
    deterministically from n split it.  Below n = 2**57, where L is not
    capped, n < L**3, so that survivor is the product of two primes of at
    least L; rho finds the smaller, p <= n**(1/2), in about p**(1/2) <=
    n**(1/4) steps (Brent, "An improved Monte Carlo factorization
    algorithm", BIT 20, 1980), far below the 2**20 steps of its budget.
    Raises BudgetExceeded once rho has spent _rho_budget(bits of the
    survivor) steps; callers degrade to gcd-only reporting then.
    """
    if n < 2:
        raise ValueError(f"factorize requires n >= 2, got {n}")
    # a power of two above iroot(n, 3), so at most 20 table sizes are ever built
    limit = min(_TRIAL_LIMIT, 1 << iroot(n, 3)[0].bit_length())
    factors: dict[int, int] = {}
    for block, product in _trial_blocks(limit):
        if block[0] * block[0] > n:
            break  # n has no prime factor below block[0], so it is 1 or prime
        g = math.gcd(n, product)
        for p in block:
            if g == 1:
                break
            if g % p == 0:
                g //= p
                multiplicity = 0
                while n % p == 0:
                    n //= p
                    multiplicity += 1
                factors[p] = multiplicity
    if n > 1:
        if n < limit * limit or is_probable_prime(n):
            # below the trial limit squared any survivor is prime
            factors[n] = factors.get(n, 0) + 1
        else:
            rng = random.Random(n * 0x9E3779B97F4A7C15)
            budget = remaining = _rho_budget(n.bit_length())
            stack = [(n, 1)]
            while stack:
                m, mult = stack.pop()
                if is_probable_prime(m):
                    factors[m] = factors.get(m, 0) + mult
                    continue
                power = is_perfect_power(m)
                if power is not None:
                    base, e = power
                    stack.append((base, mult * e))
                    continue
                factor = None
                while factor is None:
                    if remaining <= 0:
                        raise BudgetExceeded(n, budget)
                    factor, spent = _brent_rho(m, rng, remaining)
                    remaining -= spent
                stack.append((factor, mult))
                stack.append((m // factor, mult))
    return sorted(factors.items())
