"""Exact scalars: arbitrary-precision rationals and quadratic-field elements.

Rationals are the stdlib `fractions.Fraction` (always kept in lowest terms
with a positive denominator, which is exactly the normal form required
here).  `QuadraticSurd` represents a + b*sqrt(D) with rational a, b and a
fixed nonnegative rational radicand D, closed under field operations for a
fixed D.  The module also owns the float-comparison policy shared by every
other module.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from typing import Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadraticSurd"]

# Shared float-comparison policy: relative 1e-10, absolute 1e-14 near zero.
DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-14


class MixedRadicandError(ValueError):
    """Arithmetic attempted between surds over different radicands."""


class NegativeRadicandError(ValueError):
    """A surd with D < 0 was requested; complex radicands are unsupported."""


def floats_close(a: float, b: float, rel_tol: float = DEFAULT_REL_TOL,
                 abs_tol: float = DEFAULT_ABS_TOL) -> bool:
    """Shared float-comparison policy, overridable per call site."""
    return math.isclose(a, b, rel_tol=rel_tol, abs_tol=abs_tol)


_RATIONAL_RE = re.compile(r"^[+-]?(\d+(/\d+)?|\d+\.\d*|\.\d+)$")
_EXPONENT_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def parse_rational(text: str, allow_exponent: bool = False) -> Fraction:
    """Parse "p/q" or a decimal string into an exact Fraction.

    Exponent notation ("1e-3") counts as a float literal and is rejected
    unless `allow_exponent` is set; binary floats never enter the parse.
    """
    s = text.strip()
    ok = bool(_RATIONAL_RE.match(s)) or (allow_exponent
                                         and _EXPONENT_RE.match(s))
    if not ok:
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(s)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"invalid rational {text!r}: {exc}") from None


def _rational_sqrt(x: Fraction) -> Fraction | None:
    """Exact square root of x, or None when x is not a perfect square."""
    if x < 0:
        return None
    rn = math.isqrt(x.numerator)
    rd = math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


@total_ordering
class QuadraticSurd:
    """Element a + b*sqrt(D) of Q(sqrt(D)), D a nonnegative rational.

    Construction normalizes: perfect-square radicands fold into the
    rational part, so every rational value has the unique form (a, 0, 0)
    and (a, b, D) is a canonical triple.  Values are immutable; equality
    and hashing are structural on the normalized triple.  Surds over
    distinct irrational radicands do not mix (MixedRadicandError); purely
    rational values combine with any radicand.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 d: RationalLike = 0) -> None:
        a = Fraction(a)
        b = Fraction(b)
        d = Fraction(d)
        if d < 0:
            raise NegativeRadicandError(f"negative radicand {d}")
        if b == 0:
            d = Fraction(0)
        else:
            root = _rational_sqrt(d)
            if root is not None:
                a += b * root
                b = Fraction(0)
                d = Fraction(0)
        self._a = a
        self._b = b
        self._d = d

    @property
    def a(self) -> Fraction:
        return self._a

    @property
    def b(self) -> Fraction:
        return self._b

    @property
    def D(self) -> Fraction:
        return self._d

    def is_rational(self) -> bool:
        return self._b == 0

    def is_zero(self) -> bool:
        return self._a == 0 and self._b == 0

    def __repr__(self) -> str:
        return f"QuadraticSurd({self._a}, {self._b}, {self._d})"

    def __str__(self) -> str:
        if self._b == 0:
            return str(self._a)
        rad = str(self._d) if self._d.denominator == 1 else f"({self._d})"
        sign = "+" if self._b >= 0 else "-"
        return f"{self._a}{sign}{abs(self._b)}√{rad}"

    # -- coercion ----------------------------------------------------------

    @classmethod
    def _coerce(cls, value: ScalarLike) -> "QuadraticSurd":
        if isinstance(value, QuadraticSurd):
            return value
        if isinstance(value, (int, Fraction)):
            return cls(value)
        return NotImplemented  # type: ignore[return-value]

    def _common_d(self, other: "QuadraticSurd") -> Fraction:
        if self._d == other._d:
            return self._d
        if self._d == 0:
            return other._d
        if other._d == 0:
            return self._d
        raise MixedRadicandError(
            f"cannot combine radicands {self._d} and {other._d}")

    # -- field operations --------------------------------------------------

    def __add__(self, other: ScalarLike) -> "QuadraticSurd":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        return QuadraticSurd(self._a + other._a, self._b + other._b, d)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticSurd":
        return QuadraticSurd(-self._a, -self._b, self._d)

    def __sub__(self, other: ScalarLike) -> "QuadraticSurd":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "QuadraticSurd":
        return (-self) + other

    def __mul__(self, other: ScalarLike) -> "QuadraticSurd":
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd(self._a * other, self._b * other, self._d)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        d = self._common_d(other)
        a = self._a * other._a + self._b * other._b * d
        b = self._a * other._b + self._b * other._a
        return QuadraticSurd(a, b, d)

    __rmul__ = __mul__

    def norm(self) -> Fraction:
        """Field norm a**2 - D*b**2 (product with the conjugate)."""
        return self._a * self._a - self._b * self._b * self._d

    def inverse(self) -> "QuadraticSurd":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero surd")
        n = self.norm()
        return QuadraticSurd(self._a / n, -self._b / n, self._d)

    def __truediv__(self, other: ScalarLike) -> "QuadraticSurd":
        if isinstance(other, (int, Fraction)):
            return QuadraticSurd(self._a / other, self._b / other, self._d)
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        self._common_d(other)
        return self * other.inverse()

    def __rtruediv__(self, other: RationalLike) -> "QuadraticSurd":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "QuadraticSurd":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = QuadraticSurd(1, 0, self._d)
        base = self
        e = exponent
        while e > 0:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- comparisons -------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of the represented real value (-1, 0, +1)."""
        a, b, d = self._a, self._b, self._d
        if b == 0:
            return -1 if a < 0 else (1 if a > 0 else 0)
        if a == 0:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lhs = a * a
        rhs = b * b * d
        if a > 0:  # b < 0: positive iff a**2 > b**2 D
            return 1 if lhs > rhs else (-1 if lhs < rhs else 0)
        return 1 if rhs > lhs else (-1 if rhs < lhs else 0)

    def __abs__(self) -> "QuadraticSurd":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = QuadraticSurd(other)
        if not isinstance(other, QuadraticSurd):
            return False
        return (self._a == other._a and self._b == other._b
                and self._d == other._d)

    def __lt__(self, other: ScalarLike) -> bool:
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self) -> int:
        if self._b == 0:
            return hash(self._a)
        return hash((self._a, self._b, self._d))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __float__(self) -> float:
        return surd_to_float(self)


def as_surd(value: ScalarLike) -> QuadraticSurd:
    """Embed an int/Fraction as a surd; pass surds through unchanged."""
    if isinstance(value, QuadraticSurd):
        return value
    return QuadraticSurd(value)


def surd_pow(x: QuadraticSurd, e: int) -> QuadraticSurd:
    """Exact e-fold product; surd_pow(x, 0) = 1."""
    if e < 0:
        raise ValueError("exponent must be nonnegative")
    return x ** e


def surd_to_float(x: QuadraticSurd) -> float:
    """Round a + b*sqrt(D) to the nearest double, exactly.

    With D = p/q, x = (A + B*sqrt(pq))/C over integers, rounded by
    `_int_surd_to_float`.  A value beyond the double range raises
    OverflowError, as float(Fraction) does.
    """
    a, b, d = x.a, x.b, x.D
    return _int_surd_to_float(a.numerator * b.denominator * d.denominator,
                              b.numerator * a.denominator,
                              a.denominator * b.denominator * d.denominator,
                              d.numerator * d.denominator)


def _int_surd_to_float(big_a: int, big_b: int, big_c: int,
                       radicand: int) -> float:
    """The double nearest to (A + B*sqrt(r))/C over integers, C > 0, r not
    a perfect square unless B = 0.

    B = 0 is one int/int division, which rounds correctly.  Otherwise
    sqrt(r) is irrational, so s = isqrt(B**2 r 4**k) brackets
    |B| sqrt(r) 2**k strictly between s and s + 1, and x lies strictly
    between lo/(C 2**k) and (lo + 1)/(C 2**k).  When both ends round to
    the same double, so does x; otherwise the guard bits k double (Ziv's
    rounding test).  Rounding boundaries are dyadic and x is irrational,
    so the loop ends; cancellation between A and B*sqrt(r) only costs
    more bits.  A value beyond the double range raises OverflowError.
    """
    if big_b == 0:
        return big_a / big_c
    radicand *= big_b * big_b
    k = 64
    while True:
        s = math.isqrt(radicand << 2 * k)
        lo = (big_a << k) + (s if big_b > 0 else -s - 1)
        den = big_c << k
        try:
            value = lo / den
            if value == (lo + 1) / den:
                return value
        except OverflowError:
            min(lo, lo + 1, key=abs) / den  # raises unless one end is in range
        k *= 2


def surd_to_json(x: QuadraticSurd) -> dict[str, str]:
    """JSON form {"a": "p/q", "b": "r/s", "D": "u/v"} with decimal digits."""
    return {"a": str(x.a), "b": str(x.b), "D": str(x.D)}


def surd_from_json(obj: dict[str, str]) -> QuadraticSurd:
    return QuadraticSurd(Fraction(obj["a"]), Fraction(obj["b"]),
                         Fraction(obj["D"]))
