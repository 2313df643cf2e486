"""Pollaczek polynomial family P_j^1(x; 0, -delta) and its discrete mass points.

Three independent evaluation routes are provided:

* `pollaczek_seq` runs the canonical three-term recursion
  (j+1) P_{j+1} = 2[(j+lam+a)x + b] P_j - (j+2*lam-1) P_{j-1}
  with P_{-1} = 0, P_0 = 1, specialized to lam=1, a=0, b=-delta.  Under
  this convention P_1 = 2x - 2*delta.
* `pollaczek_mass_closed` evaluates the explicit closed form at the mass
  points x_m = sqrt(1 + delta**2/(m+1)**2), exactly in Q(sqrt(D)).
* `pollaczek_explicit_trig` evaluates the general trigonometric sum in
  complex floats, literally as given (its relation to the recursion values
  is an open question; see `pollaczek_trig_conjugate` for the variant with
  conjugate-paired rising-factorial bases, which does reproduce the
  recursion).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .coordinate import EigenData, _state
from .numerics import QuadraticSurd, RationalLike, as_surd, surd_pow

Scalar = Union[float, Fraction, QuadraticSurd]


def mass_point(m: int, delta: RationalLike) -> EigenData:
    """Discrete-spectrum point x_m = mu of state n = m + 1 at delta >= 0.

    The same cached bundle as `eigen_data(m + 1, delta)`: x_m is its mu,
    s = delta/(m+1) its t, and q = x_m - s its decay factor.
    """
    if m < 0:
        raise ValueError("mass-point index must be nonnegative")
    return _state(m + 1, delta)


def pollaczek_seq(delta: RationalLike, x: Scalar,
                  jmax: int) -> tuple[Scalar, ...]:
    """(P_0(x), ..., P_jmax(x)) by the three-term recursion, exact or float
    by x's type.

    Exact mode (x a QuadraticSurd or Fraction) keeps delta rational;
    float x runs the whole recursion in doubles.
    """
    if jmax < 0:
        raise ValueError("jmax must be nonnegative")
    d: Scalar = Fraction(delta)
    if isinstance(x, float):
        d = float(d)
    elif not isinstance(x, QuadraticSurd):
        x = Fraction(x)
    cur: Scalar = type(x)(1)
    prev: Scalar = cur - cur
    values = [cur]
    for j in range(jmax):
        nxt = (2 * ((j + 1) * x - d) * cur - (j + 1) * prev) / (j + 1)
        values.append(nxt)
        prev, cur = cur, nxt
    return tuple(values)


@lru_cache(maxsize=None)
def beta_coeff(j: int, m: int) -> Fraction:
    """beta_{j,m} = sum_{l<=min(j,m)} 2**l/(l+1) C(j,l) C(m,l), exact."""
    if j < 0 or m < 0:
        raise ValueError("indices must be nonnegative")
    return sum((Fraction(2 ** l, l + 1) * math.comb(j, l) * math.comb(m, l)
                for l in range(min(j, m) + 1)), Fraction(0))


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
    """P_0(x_m), P_1(x_m), ... by the closed form, each computed once.

    Every degree j >= 0 uses the one factorized form
    f(j) = (j+1) q^{j-m} Q_m(j) with Q_m(j) = sum_l w_l beta_{j,l} and
    weights w_l = C(m,l) x^{m-l} (-s)^l computed once; q^{j-m} is an
    exact running product that starts at q^{-m} = (x + s)^m.  The
    sequence extends in order on demand, and each value is floated at
    most once, on first use.

    Why one form serves every degree: beta_{j,l} is a polynomial in j,
    so Q_m(j) is one too.  f(-1) = 0 by the factor j+1, and beta_{0,l} = 1
    gives f(0) = q^{-m} (x - s)^m = 1.  The residual of f in the
    three-term recursion at j is q^{j-m-1} times a polynomial in j; f is
    P_j(x_m) for j > m (the paper's high-degree form), so that polynomial
    vanishes at every j > m + 1 and is zero.  So f satisfies the
    recursion at every j >= 0 from P_{-1} = 0, P_0 = 1: f(j) = P_j(x_m).
    """

    def __init__(self, mp: EigenData) -> None:
        self.mp = mp
        self._weights = tuple(surd_pow(mp.mu, mp.m - l)
                              * (math.comb(mp.m, l) * (-mp.t) ** l)
                              for l in range(mp.m + 1))
        self._values: list[QuadraticSurd] = []
        self._floats: list[float] = []
        self._qpow = surd_pow(mp.mu + mp.t, mp.m)  # q^{j-m} of the next j

    def factorized(self, j: int, qpow: QuadraticSurd) -> QuadraticSurd:
        """(j+1) q^{j-m} sum_{l=0}^{m} C(m,l) x^{m-l} (-s)^l beta_{j,l},
        given qpow = q^{j-m}."""
        # The sum is a + b sqrt(D) with rational a, b: summing the parts
        # keeps it in Fraction arithmetic, one surd built per entry.
        a = b = Fraction(0)
        for l, weight in enumerate(self._weights):
            beta = beta_coeff(j, l)
            a += weight.a * beta
            b += weight.b * beta
        return qpow * QuadraticSurd((j + 1) * a, (j + 1) * b, self.mp.mu.D)

    def value(self, j: int) -> QuadraticSurd:
        if j < 0:
            raise ValueError("degree must be nonnegative")
        values = self._values
        while len(values) <= j:
            values.append(self.factorized(len(values), self._qpow))
            self._qpow = self._qpow * self.mp.q
        return values[j]

    def float_value(self, j: int) -> float:
        if j < 0:
            raise ValueError("degree must be nonnegative")
        floats = self._floats
        while len(floats) <= j:
            floats.append(float(self.value(len(floats))))
        return floats[j]


@lru_cache(maxsize=None)
def closed_form_sequence(mp: EigenData) -> ClosedFormSequence:
    """The one closed-form sequence of mass point mp, shared by every caller."""
    return ClosedFormSequence(mp)


def _closed_branch_high(j: int, mp: EigenData) -> QuadraticSurd:
    # The factorized form, with q^{j-m} by a fresh power (of x + s, j < m).
    m = mp.m
    qpow = surd_pow(mp.q, j - m) if j >= m else surd_pow(mp.mu + mp.t, m - j)
    return closed_form_sequence(mp).factorized(j, qpow)


def pollaczek_mass_closed(j: int, mp: EigenData) -> QuadraticSurd:
    """P_j(x_m) by the explicit closed form, exact in Q(sqrt(D)).

    Read from the mass point's `closed_form_sequence`, which evaluates
    the factorized form (j+1) q^{j-m} Q_m(j) at every degree.
    """
    return closed_form_sequence(mp).value(j)


def _rising(z: complex, k: int) -> complex:
    out = complex(1.0)
    for i in range(k):
        out *= z + i
    return out


def _phi(a: float, b: float, theta: float) -> float:
    if not 0.0 < theta < math.pi:
        raise ValueError("theta must lie in the open interval (0, pi)")
    return (a * math.cos(theta) + b) / math.sin(theta)


def _trig_sum(first_base: complex, second_base: complex, theta: float,
              n: int) -> complex:
    if n < 0:
        raise ValueError("degree must be nonnegative")
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
    lam_f = float(Fraction(lam))
    phi = _phi(float(Fraction(a)), float(Fraction(b)), theta)
    return _trig_sum(complex(-lam_f, phi), complex(lam_f, phi), theta, n)


def pollaczek_trig_conjugate(lam: RationalLike, a: RationalLike,
                             b: RationalLike, theta: float, n: int) -> complex:
    """Same sum with conjugate-paired bases (lam-i*Phi, lam+i*Phi).

    This variant reproduces the three-term recursion values at
    x = cos(theta) to float precision (its generating function is
    (1-z*e^{i*theta})^{-(lam-i*Phi)} (1-z*e^{-i*theta})^{-(lam+i*Phi)}).
    """
    lam_f = float(Fraction(lam))
    phi = _phi(float(Fraction(a)), float(Fraction(b)), theta)
    return _trig_sum(complex(lam_f, -phi), complex(lam_f, phi), theta, n)


def chebyshev_u(j: int, theta: float) -> float:
    """sin((j+1)theta)/sin(theta): the delta=0 reduction of the family."""
    return math.sin((j + 1) * theta) / math.sin(theta)


def mass_point_invariants_hold(mp: EigenData) -> bool:
    """x**2 - s**2 = 1 and q*(x+s) = 1 exactly; 0 < q < 1 for delta > 0."""
    if mp.mu * mp.mu - mp.t * mp.t != 1:
        return False
    if mp.q * (mp.mu + mp.t) != 1:
        return False
    if mp.delta > 0:
        qf = float(mp.q)
        if not 0.0 < qf < 1.0:
            return False
    return True
