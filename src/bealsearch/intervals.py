"""Directed-rounding interval evaluation on top of mpmath.

Irrational quantities (radical roots, the scaling factor between a radical
pair and the exact root it reconstructs) are evaluated as enclosing
intervals so that a result is only ever compared against a tolerance when
its certified width is below that tolerance.  Exact inputs (ints, Fractions)
enter the interval domain with outward rounding, so every returned interval
is a true enclosure.

mpmath's interval context carries a global precision; the helpers here
save and restore it around each evaluation.  That makes them safe for the
process-per-worker parallelism used elsewhere, though not for free-threaded
use.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from fractions import Fraction

from mpmath import iv, mp, mpf

from .errors import NoRealRoot
from .exact_arith import Radical

# Extra working bits so the requested precision survives rounding in the
# handful of interval operations each evaluation performs.
GUARD_BITS = 32

DEFAULT_PRECISION_BITS = 256


@contextlib.contextmanager
def workprec(bits: int):
    """Temporarily set the interval context precision."""
    old = iv.prec
    iv.prec = bits
    try:
        yield iv
    finally:
        iv.prec = old


@dataclass(frozen=True)
class IntervalValue:
    """A certified real enclosure [lo, hi] from a directed-rounding run."""

    lo: mpf
    hi: mpf
    precision_bits: int

    @property
    def mid(self) -> mpf:
        with mp.workprec(self.precision_bits + GUARD_BITS):
            return (self.lo + self.hi) / 2

    @property
    def width(self) -> mpf:
        with mp.workprec(self.precision_bits + GUARD_BITS):
            return self.hi - self.lo

    def distance_to(self, x) -> mpf:
        """Upper bound on |true value - x| given the enclosure."""
        with mp.workprec(self.precision_bits + GUARD_BITS):
            value = _as_mpf_operand(x)
            return max(abs(self.hi - value), abs(self.lo - value))

    def decimal(self, digits: int = 30) -> str:
        return mp.nstr(self.mid, digits)

    def __str__(self) -> str:
        return f"[{mp.nstr(self.lo, 20)}, {mp.nstr(self.hi, 20)}]"


def _as_mpf_operand(x):
    if isinstance(x, Fraction):
        with mp.workprec(mp.prec + 64):
            return mp.mpf(x.numerator) / mp.mpf(x.denominator)
    return mp.mpf(x)


def to_ivmpf(x):
    """Convert an exact or interval quantity to an ivmpf under iv.prec."""
    if isinstance(x, IntervalValue):
        return iv.mpf([x.lo, x.hi])
    if isinstance(x, Fraction):
        return iv.mpf(x.numerator) / iv.mpf(x.denominator)
    if isinstance(x, Radical):
        return _radical_ivmpf(x)
    return iv.mpf(x)


def _radical_ivmpf(radical: Radical):
    """Enclose sign * radicand**(1/degree); exact when the root is rational."""
    exact = radical.classification.value
    if exact is not None:
        return to_ivmpf(exact)
    if radical.classification.kind == "no_real_root":
        raise NoRealRoot(f"{radical} has no real value")
    base = to_ivmpf(radical.radicand)
    root = base ** (iv.mpf(1) / iv.mpf(radical.degree))
    return root if radical.sign == 1 else -root


def from_ivmpf(x, precision_bits: int) -> IntervalValue:
    """Freeze an ivmpf into an IntervalValue with plain mpf endpoints."""
    a, b = x._mpi_
    return IntervalValue(mp.make_mpf(a), mp.make_mpf(b), precision_bits)


def evaluate(expr, precision_bits: int = DEFAULT_PRECISION_BITS) -> IntervalValue:
    """Run expr() in an interval context of precision_bits + guard bits.

    expr receives no arguments and must return an ivmpf built through
    to_ivmpf / iv operations.
    """
    with workprec(precision_bits + GUARD_BITS):
        result = expr()
    return from_ivmpf(result, precision_bits)


def radical_interval(radical: Radical, precision_bits: int = DEFAULT_PRECISION_BITS) -> IntervalValue:
    return evaluate(lambda: _radical_ivmpf(radical), precision_bits)


def arctangent(x, precision_bits: int = DEFAULT_PRECISION_BITS) -> mpf:
    """Plain high-precision arctangent (diagnostic output, not certified)."""
    with mp.workprec(precision_bits):
        return mp.atan(_as_mpf_operand(x))
