"""A reference model of `QuadraticSurd`: a + b*sqrt(D) over Fractions.

This is the Fraction-backed surd that `hydrogrid.numerics` used before it
stored integers; the property tests in `test_numerics.py` compare the two.
Every operation re-normalizes through `Fraction` and re-tests the
radicand, which is slow but plainly correct.  Equality and hashing are
structural on the normalized triple, so this model does not mix
equivalent radicands (sqrt(8) and 2 sqrt(2)); the tests rewrite such an
operand over the other's radicand before they compare.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import total_ordering

from hydrogrid.numerics import (MixedRadicandError, NegativeRadicandError,
                                _int_surd_to_float)


def rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of x, or None when x is not a perfect square."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


@total_ordering
class FractionSurd:
    """Element a + b*sqrt(D) of Q(sqrt(D)), D a nonnegative rational.

    Perfect-square radicands fold into the rational part, so every
    rational value has the unique form (a, 0, 0).
    """

    __slots__ = ("a", "b", "D")

    def __init__(self, a=0, b=0, d=0) -> None:
        a, b, d = Fraction(a), Fraction(b), Fraction(d)
        if d < 0:
            raise NegativeRadicandError(f"negative radicand {d}")
        if b == 0:
            d = Fraction(0)
        else:
            root = rational_sqrt(d)
            if root is not None:
                a, b, d = a + b * root, Fraction(0), Fraction(0)
        self.a, self.b, self.D = a, b, d

    def is_rational(self) -> bool:
        return self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        rad = str(self.D) if self.D.denominator == 1 else f"({self.D})"
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}√{rad}"

    @classmethod
    def _coerce(cls, value) -> "FractionSurd":
        if isinstance(value, FractionSurd):
            return value
        return cls(value)

    def _common_d(self, other: "FractionSurd") -> Fraction:
        if self.D == other.D or other.D == 0:
            return self.D
        if self.D == 0:
            return other.D
        raise MixedRadicandError(
            f"cannot combine radicands {self.D} and {other.D}")

    def __add__(self, other) -> "FractionSurd":
        other = self._coerce(other)
        d = self._common_d(other)
        return FractionSurd(self.a + other.a, self.b + other.b, d)

    __radd__ = __add__

    def __neg__(self) -> "FractionSurd":
        return FractionSurd(-self.a, -self.b, self.D)

    def __sub__(self, other) -> "FractionSurd":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "FractionSurd":
        return (-self) + other

    def __mul__(self, other) -> "FractionSurd":
        other = self._coerce(other)
        d = self._common_d(other)
        a = self.a * other.a + self.b * other.b * d
        b = self.a * other.b + self.b * other.a
        return FractionSurd(a, b, d)

    __rmul__ = __mul__

    def inverse(self) -> "FractionSurd":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero surd")
        n = self.a * self.a - self.b * self.b * self.D
        return FractionSurd(self.a / n, -self.b / n, self.D)

    def __truediv__(self, other) -> "FractionSurd":
        other = self._coerce(other)
        self._common_d(other)
        return self * other.inverse()

    def __rtruediv__(self, other) -> "FractionSurd":
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "FractionSurd":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = FractionSurd(1)
        for _ in range(exponent):
            result = result * self
        return result

    def sign(self) -> int:
        a, b, d = self.a, self.b, self.D
        if b == 0:
            return (a > 0) - (a < 0)
        if a == 0 or (a > 0) == (b > 0):
            return 1 if (a if a != 0 else b) > 0 else -1
        lhs, rhs = a * a, b * b * d
        return (lhs > rhs) - (lhs < rhs) if a > 0 else (rhs > lhs) - (rhs < lhs)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = FractionSurd(other)
        if not isinstance(other, FractionSurd):
            return False
        return (self.a, self.b, self.D) == (other.a, other.b, other.D)

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.D))

    def __float__(self) -> float:
        a, b, d = self.a, self.b, self.D
        return _int_surd_to_float(a.numerator * b.denominator * d.denominator,
                                  b.numerator * a.denominator,
                                  a.denominator * b.denominator * d.denominator,
                                  d.numerator * d.denominator)
