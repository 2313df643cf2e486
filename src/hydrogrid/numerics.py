"""Exact scalars: arbitrary-precision rationals and quadratic-field elements.

Rationals are the stdlib `fractions.Fraction` (always kept in lowest terms
with a positive denominator, which is exactly the normal form required
here).  `QuadraticSurd` represents a + b*sqrt(D) with rational a, b and a
nonnegative rational radicand D.  It stores five Python ints: with
D = p/q in lowest terms, sqrt(D) = sqrt(r)/s with r = p and s = sqrt(q)
when q is a perfect square, else r = pq and s = q, and a + b*sqrt(D)
= (A + B*sqrt(r))/C with C > 0 and gcd(A, B, C) = 1; a rational value
has B = 0, r = 0 and s = 1.  The value depends on A, B, C and r only, so
r alone names the field: field operations over one r need no Fraction
and no perfect-square test, and s matters only when a, b = B s/C and
D = r/s**2 are read.  Equality and field membership are by value:
sqrt(8) == 2*sqrt(2), because two r that differ by a rational square
factor combine.  The module also owns the
float-comparison policy shared by every other module, and the integer
form of one state's field (`_StateField`), which the closed-form
sequence and the lattice wavefunction both run on: a surd in that field
stores exactly the field's integers.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import total_ordering
from itertools import islice
from typing import Iterable, Iterator, Union

RationalLike = Union[int, Fraction]
ScalarLike = Union[int, Fraction, "QuadraticSurd"]

# Shared float-comparison policy: relative 1e-10, absolute 1e-14 near zero.
DEFAULT_REL_TOL = 1e-10
DEFAULT_ABS_TOL = 1e-14


class MixedRadicandError(ValueError):
    """Arithmetic attempted between surds over different quadratic fields."""


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


def _root(p: int, q: int) -> tuple[int, int]:
    """(r, s) with sqrt(p/q) = sqrt(r)/s for p/q in lowest terms: (p, s)
    when q = s**2, so a state's D = p/td**2 keeps its own p, else (pq, q)."""
    s = math.isqrt(q)
    return (p, s) if s * s == q else (p * q, q)


def _root_ratio(r1: int, r2: int) -> tuple[int, int] | None:
    """(u, v) with sqrt(r2) = (u/v) sqrt(r1), or None when r1*r2 is not a
    perfect square, that is, when the two fields differ."""
    s = math.isqrt(r1 * r2)
    if s * s != r1 * r2:
        return None
    g = math.gcd(s, r1)
    return s // g, r1 // g


def _parts(x: RationalLike) -> tuple[int, int]:
    if isinstance(x, int):
        return x, 1
    if isinstance(x, Fraction):
        return x.numerator, x.denominator
    raise TypeError(f"surd parts must be int or Fraction, not "
                    f"{type(x).__name__}")


def _index(value: object, what: str, lo: int | None = None,
           hi: int | None = None) -> None:
    """The one check of an integer argument: TypeError unless value is an
    int (a bool never is), ValueError if it is below lo or above hi, when
    they are given."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{what} must be int, got {value!r}")
    if lo is not None and value < lo:
        raise ValueError(f"{what} must be >= {lo}, got {value}")
    if hi is not None and value > hi:
        raise ValueError(f"{what} must be <= {hi}, got {value}")


def _real(value: object, what: str) -> None:
    """The type half of `_delta`, for a real argument whose range is
    checked by its own rule (an angle, a tolerance, a bound): TypeError
    unless value is an int (a bool never is), a Fraction or a float."""
    if not isinstance(value, (int, Fraction, float)) or isinstance(value, bool):
        raise TypeError(f"{what} must be int, Fraction or float, got {value!r}")


def _delta(value: object, what: str) -> Fraction:
    """The one check of a real argument of any sign (delta, a point x, a
    Pollaczek parameter), named what, as an exact Fraction: the
    type-and-finiteness half of `_step`.

    `_real`, then ValueError for a NaN or infinite float.  A float is
    taken at its exact value; only a float is tested for finiteness, so a
    huge int or Fraction is never converted to one.
    """
    _real(value, what)
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{what} must be finite, got {value}")
    return Fraction(value)


def _step(value: object, zero_ok: bool = False) -> Fraction:
    """The one check of a lattice step: `_delta`, then ValueError unless
    delta > 0 (delta >= 0 with zero_ok)."""
    delta = _delta(value, "delta")
    if delta < 0 or not (delta or zero_ok):
        bound = "nonnegative" if zero_ok else "> 0 (undefined at delta=0)"
        raise ValueError(f"delta must be {bound}, got {delta}")
    return delta


class _ReadOnly:
    """A value whose fields `__init__` writes once into the instance
    dictionary and nothing may assign or delete afterwards;
    `cached_property` still caches there, since it writes the dictionary
    directly."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


_new = object.__new__


def _ratio_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, from one gcd and no Fraction: the
    text of every printed a, b and D."""
    g = math.gcd(n, d)
    if g != 1:
        n //= g
        d //= g
    return str(n) if d == 1 else f"{n}/{d}"


def _make(a: int, b: int, c: int, r: int, s: int) -> "QuadraticSurd":
    """The trusted constructor: (a + b sqrt(r))/c for c > 0, printed over
    D = r/s**2, reduced by one gcd.  r and s are ignored when b is 0."""
    g = math.gcd(c, a, b)
    if g != 1:
        a //= g
        b //= g
        c //= g
    x = _new(QuadraticSurd)
    x._A = a
    x._B = b
    x._C = c
    x._r, x._s = (r, s) if b else (0, 1)
    return x


class _StateField:
    """The integer form of the field Q(sqrt(D)) of one state, D = 1 + t**2.

    With t = tn/td in lowest terms and p = td**2 + tn**2, D = p/td**2 is
    in lowest terms (gcd(p, td) = gcd(tn**2, td) = 1), mu = sqrt(p)/td and
    q = mu - t = (sqrt(p) - tn)/td.  An integer pair (a, b) stands for
    a + b sqrt(p).  `root` is sqrt(p) as a pair: (s, 0) when p = s**2, else
    (0, 1), so a perfect square folds into the integers and every b
    stays 0.  A value (a + b sqrt(p))/den with den > 0 is read by `surd`
    as the surd (a + b sqrt(p))/den over D = p/td**2, so its r is p and
    its s is td (see `_root`), or by `to_float`, straight from the
    integers; `parts` reads any surd of the field back into its integers.
    `q_floats` rounds a row of values q^k (a_k + b_k sqrt(p))/den from the
    small pairs alone.
    """

    __slots__ = ("p", "td", "tn", "root")

    def __init__(self, t: Fraction) -> None:
        tn, td = t.numerator, t.denominator
        p = td * td + tn * tn
        s = math.isqrt(p)
        self.p, self.td, self.tn = p, td, tn
        self.root = (s, 0) if s * s == p else (0, 1)

    def mul(self, x: tuple[int, int], y: tuple[int, int]) -> tuple[int, int]:
        """(a + b sqrt(p)) (c + e sqrt(p)) as an integer pair."""
        return x[0] * y[0] + x[1] * y[1] * self.p, x[0] * y[1] + x[1] * y[0]

    def surd(self, a: int, b: int, den: int) -> "QuadraticSurd":
        return _make(a, b, den, self.p, self.td)

    def parts(self, x: "QuadraticSurd") -> tuple[int, int, int]:
        """(a, b, den) with x = (a + b sqrt(p))/den, the inverse of `surd`.

        x is read over r = p by `_operands`, so a surd over an equivalent
        radicand (sqrt(5), sqrt(20) for p = 5) reads as the field's
        integers and one over another field raises MixedRadicandError.
        When p is a perfect square the field is Q: no irrational r is
        equivalent to p, so only a rational x reads there.
        """
        return _operands(self.p, self.td, x)[:3]

    def to_float(self, a: int, b: int, den: int) -> float:
        return _int_surd_to_float(a, b, den, self.p)

    def q_powers(self, den: int = 1) -> Iterator[tuple[tuple[int, int], int]]:
        """q^k for k = 0, 1, ... as (pair, denominator): the running
        product (sqrt(p) - tn)^k over den td^k."""
        step = (self.root[0] - self.tn, self.root[1])
        num = (1, 0)
        while True:
            yield num, den
            num, den = self.mul(num, step), den * self.td

    def q_floats(self, pairs: Iterable[tuple[int, int]],
                 den: int) -> Iterator[float]:
        """The doubles nearest to (a_k + b_k sqrt(p)) q^k/den for the
        pairs (a_k, b_k), k = 1, 2, ..., with no exact power of q built.

        One isqrt gives sqrt(p) in [lo, hi]/2**w, w = `_GUARD`, lo its
        floor and hi its ceiling.  q = td/(sqrt(p) + tn), a quotient with
        no cancellation, then lies in [qlo, qhi]/2**x, and q^k in
        [plo, phi] 2**(e + w) by a running product whose ends keep w bits,
        the low end rounded down and the high end up.  So each value lies
        between two rationals, and when both round to one double, so does
        the value, since rounding is monotone (Ziv's rounding test with a
        fixed guard).  A pair whose enclosure holds 0 inside it, or whose
        ends round apart or leave the double range, is rounded from the
        exact q^k pair by `_int_surd_to_float`, which raises OverflowError
        for a value beyond the double range.
        """
        w, p, tn, td = _GUARD, self.p, self.tn, self.td
        lo = math.isqrt(p << 2 * w)
        hi = lo + (lo * lo != p << 2 * w)
        top, bottom = hi + (tn << w), lo + (tn << w)
        x = top.bit_length() - td.bit_length()
        plo = qlo = (td << w + x) // top
        phi = qhi = -(-(td << w + x) // bottom)
        e = -w - x
        for k, (a, b) in enumerate(pairs, start=1):
            # (a + b sqrt(p)) 2**w lies in [clo, chi]
            clo, chi = (a << w) + b * lo, (a << w) + b * hi
            if b < 0:
                clo, chi = chi, clo
            if clo >= 0:
                value = _both_round(clo * plo, chi * phi, e, den)
            elif chi <= 0:
                value = _both_round(clo * phi, chi * plo, e, den)
            else:
                value = None
            if value is None:
                num, scale = next(islice(self.q_powers(den), k, None))
                value = _int_surd_to_float(*self.mul((a, b), num), scale, p)
            yield value
            plo, phi, e = plo * qlo, phi * qhi, e - x
            s = phi.bit_length() - w
            if s > 0:
                plo, phi, e = plo >> s, -(-phi >> s), e + s


# The guard bits of `_StateField.q_floats`: the width of its enclosure of
# sqrt(p) and of the ends of its running q^k.
_GUARD = 128


def _both_round(lo: int, hi: int, e: int, den: int) -> float | None:
    """The double that lo 2**e/den and hi 2**e/den both round to, for
    den > 0 and e < 0 (q^k <= 1 keeps e below -w), or None when they round
    apart or leave the double range."""
    den <<= -e
    try:
        value = lo / den
        return value if value == hi / den else None
    except OverflowError:
        return None


def _operands(r: int, s: int, y: object):
    """y's integers (A, B, C) over sqrt(r) and the (r, s) of x op y, for a
    left operand x over sqrt(r)/s (r = 0, s = 1 when x is rational), or
    None when y is no exact scalar.

    The left irrational operand's (r, s) wins.  Fields are compared by r:
    an equal r needs no rewrite, and another r2 is rewritten over r by
    sqrt(r2) = (u/v) sqrt(r), which exists only when the fields agree;
    otherwise MixedRadicandError is raised.
    """
    if isinstance(y, QuadraticSurd):
        r2 = y._r
        if r2 == r or not r2:
            return y._A, y._B, y._C, r, s
        if not r:
            return y._A, y._B, y._C, r2, y._s
        ratio = _root_ratio(r, r2)
        if ratio is None:
            raise MixedRadicandError(
                f"cannot combine radicands {Fraction(r, s * s)} and {y.D}")
        u, v = ratio
        return y._A * v, y._B * u, y._C * v, r, s
    if isinstance(y, int):
        return y, 0, 1, r, s
    if isinstance(y, Fraction):
        return y.numerator, 0, y.denominator, r, s
    return None


@total_ordering
class QuadraticSurd:
    """Element a + b*sqrt(D) of Q(sqrt(D)), D a nonnegative rational.

    Stored as five ints, (A + B*sqrt(r))/C printed over D = r/s**2 (see
    the module docstring).  Construction takes int or Fraction parts, and
    perfect-square radicands fold into the rational part, so every
    rational value reads (a, 0, 0).  Values are immutable.  Equality and
    hashing are by value: surds over equivalent radicands (D1/D2 a
    rational square) compare, hash and combine as one field, and a
    result keeps the left irrational operand's D.  Surds over different
    fields do not mix (MixedRadicandError) and never compare equal;
    purely rational values combine with any radicand, and hash as their
    Fraction.
    """

    __slots__ = ("_A", "_B", "_C", "_r", "_s")

    def __new__(cls, a: RationalLike = 0, b: RationalLike = 0,
                d: RationalLike = 0) -> "QuadraticSurd":
        an, ad = _parts(a)
        bn, bd = _parts(b)
        p, q = _parts(d)
        if p < 0:
            raise NegativeRadicandError(f"negative radicand {Fraction(p, q)}")
        if not bn:
            return _make(an, 0, ad, 0, 1)
        r, s = _root(p, q)
        root = math.isqrt(r)
        if root * root == r:  # sqrt(D) = root/s is rational
            return _make(an * bd * s + bn * root * ad, 0, ad * bd * s, 0, 1)
        return _make(an * bd * s, bn * ad, ad * bd * s, r, s)

    @property
    def a(self) -> Fraction:
        return Fraction(self._A, self._C)

    @property
    def b(self) -> Fraction:
        return Fraction(self._B * self._s, self._C)

    @property
    def D(self) -> Fraction:
        return Fraction(self._r, self._s * self._s)

    def is_rational(self) -> bool:
        return not self._B

    def is_zero(self) -> bool:
        return not self._A and not self._B

    def __repr__(self) -> str:
        return f"QuadraticSurd({self.a}, {self.b}, {self.D})"

    def __str__(self) -> str:
        a = _ratio_text(self._A, self._C)
        b = self._B
        if not b:
            return a
        s = self._s
        d = _ratio_text(self._r, s * s)
        rad = f"({d})" if "/" in d else d
        sign = "+" if b > 0 else "-"
        return f"{a}{sign}{_ratio_text(abs(b) * s, self._C)}√{rad}"

    # -- field operations --------------------------------------------------

    def __add__(self, other: ScalarLike) -> "QuadraticSurd":
        ops = _operands(self._r, self._s, other)
        if ops is None:
            return NotImplemented
        a, b, c, r, s = ops
        c1 = self._C
        if c1 == c:
            return _make(self._A + a, self._B + b, c, r, s)
        return _make(self._A * c + a * c1, self._B * c + b * c1, c1 * c, r, s)

    __radd__ = __add__

    def __neg__(self) -> "QuadraticSurd":
        # a reduced triple stays reduced: no gcd
        x = _new(QuadraticSurd)
        x._A, x._B, x._C = -self._A, -self._B, self._C
        x._r, x._s = self._r, self._s
        return x

    def __sub__(self, other: ScalarLike) -> "QuadraticSurd":
        if not isinstance(other, (QuadraticSurd, int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other: ScalarLike) -> "QuadraticSurd":
        return (-self) + other

    def __mul__(self, other: ScalarLike) -> "QuadraticSurd":
        ops = _operands(self._r, self._s, other)
        if ops is None:
            return NotImplemented
        a, b, c, r, s = ops
        a1, b1 = self._A, self._B
        return _make(a1 * a + b1 * b * r, a1 * b + b1 * a, self._C * c, r, s)

    __rmul__ = __mul__

    def inverse(self) -> "QuadraticSurd":
        a, b, c = self._A, self._B, self._C
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero surd")
            return _make(c if a > 0 else -c, 0, abs(a), 0, 1)
        # c/(a + b sqrt(r)) = c (a - b sqrt(r)) / n with n = a^2 - b^2 r != 0
        r, s = self._r, self._s
        n = a * a - b * b * r
        if n < 0:
            return _make(-c * a, c * b, -n, r, s)
        return _make(c * a, -c * b, n, r, s)

    def __truediv__(self, other: ScalarLike) -> "QuadraticSurd":
        if isinstance(other, QuadraticSurd):
            return self * other.inverse()
        ops = _operands(self._r, self._s, other)
        if ops is None:
            return NotImplemented
        n, _, d, r, s = ops
        if not n:
            raise ZeroDivisionError("division of a surd by zero")
        if n < 0:
            n, d = -n, -d
        return _make(self._A * d, self._B * d, self._C * n, r, s)

    def __rtruediv__(self, other: RationalLike) -> "QuadraticSurd":
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        return self.inverse() * other

    def __pow__(self, exponent: int) -> "QuadraticSurd":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = _make(1, 0, 1, 0, 1)
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
        a, b = self._A, self._B
        if not b:
            return (a > 0) - (a < 0)
        if not a:
            return 1 if b > 0 else -1
        if (a > 0) == (b > 0):
            return 1 if a > 0 else -1
        lhs = a * a
        rhs = b * b * self._r
        if a > 0:  # b < 0: positive iff a**2 > b**2 r
            return (lhs > rhs) - (lhs < rhs)
        return (rhs > lhs) - (rhs < lhs)

    def __abs__(self) -> "QuadraticSurd":
        return -self if self.sign() < 0 else self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadraticSurd):
            r, r2 = self._r, other._r
            if r2 != r:
                # a rational never equals an irrational, nor do two fields
                if not r or not r2 or _root_ratio(r, r2) is None:
                    return False
                other = _make(*_operands(r, self._s, other))
            return (self._A == other._A and self._B == other._B
                    and self._C == other._C)
        if isinstance(other, int):
            return not self._B and self._C == 1 and self._A == other
        if isinstance(other, Fraction):
            return (not self._B and self._A == other.numerator
                    and self._C == other.denominator)
        return False

    def __lt__(self, other: ScalarLike) -> bool:
        if not isinstance(other, (QuadraticSurd, int, Fraction)):
            return NotImplemented
        return (self - other).sign() < 0

    def __hash__(self) -> int:
        # a, sign(b) and b**2 D = B**2 r / C**2 do not depend on which of
        # two equivalent radicands the value is written over
        a, b, c = self._A, self._B, self._C
        if not b:
            return hash(Fraction(a, c))
        return hash((Fraction(a, c), b > 0,
                     Fraction(b * b * self._r, c * c)))

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
    _index(e, "exponent", 0)
    return x ** e


def surd_to_float(x: QuadraticSurd) -> float:
    """Round a + b*sqrt(D) to the nearest double, exactly.

    The stored integers (A + B*sqrt(r))/C go straight to
    `_int_surd_to_float`.  A value beyond the double range raises
    OverflowError, as float(Fraction) does.
    """
    return _int_surd_to_float(x._A, x._B, x._C, x._r)


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
    """JSON form {"a": "p/q", "b": "r/s", "D": "u/v"} with decimal digits,
    written from the stored integers as `str` writes them."""
    c, s = x._C, x._s
    return {"a": _ratio_text(x._A, c), "b": _ratio_text(x._B * s, c),
            "D": _ratio_text(x._r, s * s)}


def surd_from_json(obj: dict[str, str]) -> QuadraticSurd:
    return QuadraticSurd(Fraction(obj["a"]), Fraction(obj["b"]),
                         Fraction(obj["D"]))
