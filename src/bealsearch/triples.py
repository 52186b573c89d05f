"""The (A, X, B, Y, C, Z) candidate record.

A BealTriple is a plain value object: construction does not require the
equation to hold, since classification commands accept arbitrary inputs and
verification reports failures as data.  Canonical form (reduced bases,
A**X <= B**Y) is produced explicitly via canonical().
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exact_arith import reduce_base


class _BealTriple(NamedTuple):
    A: int
    X: int
    B: int
    Y: int
    C: int
    Z: int


class BealTriple(_BealTriple):
    __slots__ = ()

    def __new__(cls, A: int, X: int, B: int, Y: int, C: int, Z: int):
        self = tuple.__new__(cls, (A, X, B, Y, C, Z))
        if min(self) < 1:
            name, value = next(item for item in zip(self._fields, self) if item[1] < 1)
            raise ValueError(f"{name} must be a positive integer, got {value}")
        return self

    _make = classmethod(lambda cls, values: cls(*values))  # so _replace checks too

    @classmethod
    def parse(cls, text: str) -> "BealTriple":
        """Parse 'A,X,B,Y,C,Z' with six comma-separated positive integers."""
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 6:
            raise ValueError(f"expected six comma-separated integers, got {text!r}")
        return cls(*(int(p) for p in parts))

    @property
    def ax(self) -> int:
        return self.A ** self.X

    @property
    def by(self) -> int:
        return self.B ** self.Y

    @property
    def cz(self) -> int:
        return self.C ** self.Z

    @property
    def equation_holds(self) -> bool:
        return self.ax + self.by == self.cz

    @property
    def gcd_abc(self) -> int:
        return math.gcd(self.A, self.B, self.C)

    def canonical(self) -> "BealTriple":
        """Reduce all bases and order the left side so A**X <= B**Y."""
        a, x = reduce_base(self.A, self.X) if self.A >= 2 else (self.A, self.X)
        b, y = reduce_base(self.B, self.Y) if self.B >= 2 else (self.B, self.Y)
        c, z = reduce_base(self.C, self.Z) if self.C >= 2 else (self.C, self.Z)
        if a ** x > b ** y:
            a, x, b, y = b, y, a, x
        return BealTriple(a, x, b, y, c, z)

    def __str__(self) -> str:
        return f"{self.A}^{self.X} + {self.B}^{self.Y} = {self.C}^{self.Z}"
