"""Pollaczek polynomial family P_j^1(x; 0, -delta) and its discrete mass points.

Three independent evaluation routes are provided:

* `pollaczek_seq` runs the canonical three-term recursion
  (j+1) P_{j+1} = 2[(j+lam+a)x + b] P_j - (j+2*lam-1) P_{j-1}
  with P_{-1} = 0, P_0 = 1, specialized to lam=1, a=0, b=-delta.  Under
  this convention P_1 = 2x - 2*delta.
* `pollaczek_mass_closed` evaluates the explicit closed form at the mass
  points x_m = sqrt(1 + delta**2/(m+1)**2), exactly in Q(sqrt(D)): the
  coefficient of z^j in the generating function, which is rational there,
  (1 - zq)^{-(m+2)} (1 - z/q)^m.  The paper's two closed forms, its
  degree-j sum and its factorized high-degree form, are kept as the
  references it is checked against.
* `pollaczek_explicit_trig` evaluates the general trigonometric sum in
  complex floats, literally as given (its relation to the recursion values
  is an open question; see `pollaczek_trig_conjugate` for the variant with
  conjugate-paired rising-factorial bases, which does reproduce the
  recursion).
"""

from __future__ import annotations

import cmath
import math
import sys
from fractions import Fraction
from itertools import chain, islice
from typing import Iterator, Union

from .coordinate import EigenData, _state
from .numerics import (QuadraticSurd, RationalLike, _delta, _index, _make,
                       _operands, _real, _step, as_surd, surd_pow)

Scalar = Union[float, Fraction, QuadraticSurd]


def mass_point(m: int, delta: RationalLike) -> EigenData:
    """Discrete-spectrum point x_m = mu of state n = m + 1 at delta >= 0.

    The same cached bundle as `eigen_data(m + 1, delta)`: x_m is its mu,
    s = delta/(m+1) its t, and q = x_m - s its decay factor.
    """
    _index(m, "mass-point index", 0)
    return _state(m + 1, _step(delta, zero_ok=True))


def pollaczek_seq(delta: RationalLike, x: Scalar,
                  jmax: int) -> tuple[Scalar, ...]:
    """(P_0(x), ..., P_jmax(x)) by the three-term recursion, exact or float
    by x's type.

    Exact mode (x a QuadraticSurd, Fraction or int) keeps delta rational
    and runs on integers: with x = (xa + xb sqrt(r))/xc and
    delta = dn/dd, P_{j+1} = c_j P_j - P_{j-1} with
    c_j = 2(x - delta/(j+1)) = (ca + cb sqrt(r))/cd, cd = (j+1) dd xc.
    P_{j-1} and P_j are integer pairs (a + b sqrt(r)) over one running
    denominator den.  The next numerator, c_j's pair times P_j's minus cd
    times P_{j-1}'s, stands over cd den; its gcd g with the small cd is
    divided out, so den grows by cd/g and P_j's pair is scaled by cd/g.
    One surd (a Fraction for a rational x that is not a surd) is built
    per returned value.  Float x runs the whole recursion in doubles.
    delta may take any sign; x and delta are checked by
    `numerics._delta`.
    """
    _index(jmax, "jmax", 0)
    d = _delta(delta, "delta")
    if isinstance(x, float):
        _delta(x, "x")  # finite
        fd = float(d)
        cur, prev = 1.0, 0.0
        values = [cur]
        for j in range(jmax):
            nxt = (2 * ((j + 1) * x - fd) * cur - (j + 1) * prev) / (j + 1)
            values.append(nxt)
            prev, cur = cur, nxt
        return tuple(values)
    if not isinstance(x, QuadraticSurd):
        x = _delta(x, "x")
    xa, xb, xc, r, s = _operands(0, 1, x)
    dn, dd = d.numerator, d.denominator
    pa = pb = b = 0  # P_{-1} = 0 and P_0 = 1 over den = 1
    a = den = 1
    terms = [(a, b, den)]
    for j in range(1, jmax + 1):
        cd = j * dd * xc
        ca = 2 * (j * dd * xa - dn * xc)
        cb = 2 * j * dd * xb
        na = ca * a + cb * r * b - cd * pa
        nb = ca * b + cb * a - cd * pb
        g = math.gcd(cd, na, nb)
        cd //= g
        pa, pb, a, b, den = cd * a, cd * b, na // g, nb // g, cd * den
        terms.append((a, b, den))
    if isinstance(x, QuadraticSurd):
        return tuple(_make(a, b, den, r, s) for a, b, den in terms)
    return tuple(Fraction(a, den) for a, _, den in terms)


def beta_coeff(j: int, m: int) -> Fraction:
    """beta_{j,m} = sum_{l<=min(j,m)} 2**l/(l+1) C(j,l) C(m,l), exact.

    Summed on integers, since C(j,l)/(l+1) = C(j+1,l+1)/(j+1).
    """
    _index(j, "beta index", 0)
    _index(m, "beta index", 0)
    return Fraction(sum(2 ** l * math.comb(j + 1, l + 1) * math.comb(m, l)
                        for l in range(min(j, m) + 1)), j + 1)


def _closed_branch_low(j: int, mp: EigenData) -> QuadraticSurd:
    # The paper's degree-j sum, kept as the reference for the sequence:
    # (j+1) sum_{l=0}^{j} C(j,l) x^{j-l} (-s)^l beta_{m,l}
    acc = as_surd(0)
    for l in range(j + 1):
        term = surd_pow(mp.mu, j - l) * (math.comb(j, l) * (-mp.t) ** l
                                         * beta_coeff(mp.m, l))
        acc = acc + term
    return (j + 1) * acc


class ClosedFormSequence:
    """P_0(x_m), P_1(x_m), ... from the generating function, on integers.

    With s = delta/(m+1), q = x_m - s and 1/q = x_m + s,
        P_j(x_m) = sum_{l<=min(j,m)} (-1)^l C(m,l) C(j-l+m+1, m+1) q^{j-2l},
    the coefficient of z^j in G(z) = (1 - zq)^{-(m+2)} (1 - z/q)^m.  The
    sequence extends in order on demand and keeps each degree once:
    `value(j)` builds a surd from the exact integers, and `float_value(j)`
    and `floats()` read one float row, rounded by the field's `q_floats`
    from the small pairs S_j alone, so no exact power of q is built for
    a float.

    Why G generates P_j(x_m):
        (1 - zq)(1 - z/q) = 1 - 2xz + z**2;
        (m+2)q - m/q = 2x - 2 delta;
    so (1 - 2xz + z**2) G' = (2x - 2 delta - 2z) G with G(0) = 1, and its
    coefficient of z^j is the three-term recursion at j from P_{-1} = 0.

    The integer form is the mass point's `field`: s = tn/td, pairs
    (a, b) for a + b sqrt(p), q = (sqrt(p) - tn)/td and
    1/q = (sqrt(p) + tn)/td.  With the pairs
        w_l = (-1)^l C(m,l) (sqrt(p) + tn)^{2l} td^{2(m-l)},
        P_j(x_m) = q^j S_j / td^{2m},
        S_j = sum_l C(j-l+m+1, m+1) w_l,
    and the exact q^j S_j is the field's running q-power from 1 over
    td^{2m} times S_j (see `_sums` for S_j).
    """

    def __init__(self, mp: EigenData) -> None:
        self.mp = mp
        field = mp.field
        m, td = mp.m, field.td
        inverse = (field.root[0] + field.tn, field.root[1])  # td/q
        step = field.mul(inverse, inverse)
        power = (1, 0)
        self._w: list[tuple[int, int]] = []  # w_0, ..., w_m
        for l in range(m + 1):
            c = (-1) ** l * math.comb(m, l) * td ** (2 * (m - l))
            self._w.append((c * power[0], c * power[1]))
            power = field.mul(power, step)
        self._exact = zip(field.q_powers(den=td ** (2 * m)), self._sums())
        # P_0 = 1, the family's initial value, then q^j S_j / td^{2m}
        self._row = chain((1.0,), field.q_floats(
            islice(self._sums(), 1, None), td ** (2 * m)))
        self._terms: list[tuple[int, int, int]] = []
        self._floats: list[float] = []

    def _sums(self) -> Iterator[tuple[int, int]]:
        """S_0, S_1, ... as pairs.

        S_0..S_{m+1} are summed, the binomial stepped in place:
        C(j-l+m, m+1) = C(j-l+m+1, m+1) (j-l)/(j-l+m+1), which is 0 from
        l = j + 1 on.  S_j is a polynomial of degree m + 1 in j for every
        j >= 0, since C(j-l+m+1, m+1) = (j-l+m+1)...(j-l+1)/(m+1)! is one
        and vanishes at j - l = -m..-1 too.  So its forward differences
        at 0 are formed from those m + 2 sums, and each later S_j costs
        m + 1 additions.
        """
        m = self.mp.m
        da, db = [], []
        for k in range(m + 2):
            a = b = 0
            binom = math.comb(k + m + 1, m + 1)  # C(k-l+m+1, m+1) at l = 0
            for l, (wa, wb) in enumerate(self._w):
                a += binom * wa
                b += binom * wb
                binom = binom * (k - l) // (k - l + m + 1)
            da.append(a)
            db.append(b)
        for i in range(1, m + 2):  # da[i], db[i] = the i-th differences at 0
            for k in range(m + 1, i - 1, -1):
                da[k] -= da[k - 1]
                db[k] -= db[k - 1]
        while True:
            yield da[0], db[0]
            for i in range(m + 1):
                da[i] += da[i + 1]
                db[i] += db[i + 1]

    def _term(self, j: int) -> tuple[int, int, int]:
        """P_j(x_m) as the field's integers (a, b, den)."""
        terms = self._terms
        while len(terms) <= j:
            (qnum, den), pair = next(self._exact)
            terms.append((*self.mp.field.mul(qnum, pair), den))
        return terms[j]

    # The indexed readers check the degree before the sequence is
    # extended: 5.0 would extend it and then fail.
    def value(self, j: int) -> QuadraticSurd:
        _index(j, "degree", 0)
        return self.mp.field.surd(*self._term(j))

    def float_value(self, j: int) -> float:
        _index(j, "degree", 0)
        return self._floats_through(j)[j]

    def floats(self) -> Iterator[float]:
        """P_0(x_m), P_1(x_m), ... as floats, in order and without end.

        Reads the cached row that `float_value` reads, extended by the
        same loop from the field's `q_floats`, so each degree is rounded
        once however the two readers interleave; a caller that sums the
        sequence makes no index check per term.
        """
        floats = self._floats
        j = 0
        while True:
            if j == len(floats):
                self._floats_through(j)
            yield floats[j]
            j += 1

    def _floats_through(self, j: int) -> list[float]:
        floats = self._floats
        while len(floats) <= j:
            floats.append(next(self._row))
        return floats


def _closed_branch_high(j: int, mp: EigenData) -> QuadraticSurd:
    # The paper's factorized form, kept as the reference for the sequence:
    # (j+1) q^{j-m} sum_{l=0}^{m} C(m,l) x^{m-l} (-s)^l beta_{j,l},
    # with q^{j-m} = (x + s)^{m-j} for j < m
    m = mp.m
    acc = as_surd(0)
    for l in range(m + 1):
        term = surd_pow(mp.mu, m - l) * (math.comb(m, l) * (-mp.t) ** l
                                         * beta_coeff(j, l))
        acc = acc + term
    qpow = surd_pow(mp.q, j - m) if j >= m else surd_pow(mp.mu + mp.t, m - j)
    return (j + 1) * acc * qpow


def pollaczek_mass_closed(j: int, mp: EigenData) -> QuadraticSurd:
    """P_j(x_m) by the explicit closed form, exact in Q(sqrt(D)).

    Read from the mass point's `sequence`, which takes it from the
    generating function at every degree.
    """
    return mp.sequence.value(j)


def _rising(z: complex, k: int) -> complex:
    out = complex(1.0)
    for i in range(k):
        out *= z + i
    return out


def _theta(theta: float) -> None:
    """The one check of an angle: a real (`numerics._real`) in the open
    interval (0, pi), where sin(theta) > 0; NaN is outside it."""
    _real(theta, "theta")
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in the open interval (0, pi)")


def _parameters(lam: RationalLike, a: RationalLike, b: RationalLike,
                theta: float) -> tuple[float, float]:
    """lam and Phi = (a cos(theta) + b)/sin(theta) as floats, with theta
    checked by `_theta` and lam, a and b by `numerics._delta`, then
    rejected beyond the double range, where no float holds them."""
    floats = []
    for value, name in ((lam, "lam"), (a, "a"), (b, "b")):
        value = _delta(value, name)
        if abs(value) > sys.float_info.max:
            raise ValueError(f"{name} must be at most {sys.float_info.max} "
                             f"in magnitude")
        floats.append(float(value))
    lam, a, b = floats
    _theta(theta)
    return lam, (a * math.cos(theta) + b) / math.sin(theta)


def _trig_sum(first_base: complex, second_base: complex, theta: float,
              n: int) -> complex:
    """The degree-n sum in doubles, for 0 <= n <= 170: 171! leaves the
    double range, so a higher degree is rejected before the sum starts."""
    _index(n, "degree", 0, 170)
    total = complex(0.0)
    for k in range(n + 1):
        total += (_rising(first_base, k) * _rising(second_base, n - k)
                  / (math.factorial(k) * math.factorial(n - k))
                  * cmath.exp(1j * theta * (2 * k - n)))
    return total


def pollaczek_explicit_trig(lam: RationalLike, a: RationalLike,
                            b: RationalLike, theta: float, n: int) -> complex:
    """Trigonometric sum with rising-factorial bases (-lam+i*Phi, lam+i*Phi).

    Evaluated literally, with Phi = (a*cos(theta) + b)/sin(theta), and
    returned without any re-normalization.  For lam=1, a=b=0, n=1 this
    yields -2i*sin(theta) while the recursion gives 2*cos(theta); the
    convention relating the two is undetermined and is only reported by
    the verification tooling, never silently corrected here.
    """
    lam_f, phi = _parameters(lam, a, b, theta)
    return _trig_sum(complex(-lam_f, phi), complex(lam_f, phi), theta, n)


def pollaczek_trig_conjugate(lam: RationalLike, a: RationalLike,
                             b: RationalLike, theta: float, n: int) -> complex:
    """Same sum with conjugate-paired bases (lam-i*Phi, lam+i*Phi).

    This variant reproduces the three-term recursion values at
    x = cos(theta) to float precision (its generating function is
    (1-z*e^{i*theta})^{-(lam-i*Phi)} (1-z*e^{-i*theta})^{-(lam+i*Phi)}).
    """
    lam_f, phi = _parameters(lam, a, b, theta)
    return _trig_sum(complex(lam_f, -phi), complex(lam_f, phi), theta, n)


def chebyshev_u(j: int, theta: float) -> float:
    """sin((j+1)theta)/sin(theta): the delta=0 reduction of the family,
    for theta in (0, pi) as in the trigonometric sums."""
    _index(j, "degree", 0)
    _theta(theta)
    return math.sin((j + 1) * theta) / math.sin(theta)


def mass_point_invariants_hold(mp: EigenData) -> bool:
    """x**2 - s**2 = 1, q*(x+s) = 1 and, for delta > 0, 0 < q < 1, each
    decided exactly."""
    if mp.mu * mp.mu - mp.t * mp.t != 1:
        return False
    if mp.q * (mp.mu + mp.t) != 1:
        return False
    return not mp.delta or 0 < mp.q < 1
