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
from typing import Union

from .coordinate import EigenData, _state
from .numerics import (QuadraticSurd, RationalLike, _delta, _index, _real,
                       _step, as_surd, surd_pow)

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

    Exact mode (x a QuadraticSurd, Fraction or int) keeps delta rational;
    float x runs the whole recursion in doubles.  delta may take any
    sign; x and delta are checked by `numerics._delta`.
    """
    _index(jmax, "jmax", 0)
    d: Scalar = _delta(delta, "delta")
    if isinstance(x, float):
        _delta(x, "x")  # finite
        d = float(d)
    elif not isinstance(x, QuadraticSurd):
        x = _delta(x, "x")
    cur: Scalar = type(x)(1)
    prev: Scalar = cur - cur
    values = [cur]
    for j in range(jmax):
        nxt = (2 * ((j + 1) * x - d) * cur - (j + 1) * prev) / (j + 1)
        values.append(nxt)
        prev, cur = cur, nxt
    return tuple(values)


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
    """P_0(x_m), P_1(x_m), ... by the closed form, on integer numerators.

    Every degree j >= 0 uses the one factorized form
    f(j) = (j+1) q^{j-m} Q_m(j) with Q_m(j) = sum_l w_l beta_{j,l} and
    weights w_l = C(m,l) x^{m-l} (-s)^l.  The sequence extends in order
    on demand and keeps each degree once, as integers; `value(j)` builds
    a surd from them, and `float_value(j)` rounds straight from them.

    Why one form serves every degree: beta_{j,l} is a polynomial in j,
    so Q_m(j) is one too.  f(-1) = 0 by the factor j+1, and beta_{0,l} = 1
    gives f(0) = q^{-m} (x - s)^m = 1.  The residual of f in the
    three-term recursion at j is q^{j-m-1} times a polynomial in j; f is
    P_j(x_m) for j > m (the paper's high-degree form), so that polynomial
    vanishes at every j > m + 1 and is zero.  So f satisfies the
    recursion at every j >= 0 from P_{-1} = 0, P_0 = 1: f(j) = P_j(x_m).

    The integer form is the mass point's `field`: s = tn/td, pairs
    (a, b) for a + b sqrt(p), x = sqrt(p)/td and q^{-1} = x + s
    = (sqrt(p) + tn)/td.  With L = lcm(1..m+1) clearing the denominators
    of beta and the sum over l taken first,
    Q_m(j) = sum_{i<=m} C(j,i) v_i / (td^m L) with the pairs
        v_i = sum_{l>=i} C(m,l) (-tn)^l sqrt(p)^{m-l} L 2^i/(i+1) C(l,i),
    and q^{j-m} = N_j / td^{m+j} with N_j = (sqrt(p) + tn)^m
    (sqrt(p) - tn)^j, so
        P_j(x_m) = (j+1) N_j sum_i C(j,i) v_i / (td^{2m+j} L).
    Each degree costs m + 1 integer multiply-adds, and N_j over
    td^{2m+j} L is the field's running q-power from N_0 over td^{2m} L.
    """

    def __init__(self, mp: EigenData) -> None:
        self.mp = mp
        field = mp.field
        m, tn, root = mp.m, field.tn, field.root
        lcm = math.lcm(*range(1, m + 2))
        self._den0 = field.td ** (2 * m) * lcm  # the denominator at j = 0
        powers = [field.pow(root, e) for e in range(m + 1)]
        self._v: list[tuple[int, int]] = []  # v_0, ..., v_m
        for i in range(m + 1):
            a = b = 0
            for l in range(i, m + 1):
                c = (math.comb(m, l) * (-tn) ** l * math.comb(l, i)
                     * (lcm // (i + 1)) * 2 ** i)
                a += c * powers[m - l][0]
                b += c * powers[m - l][1]
            self._v.append((a, b))
        self._qpowers = field.q_powers(
            field.pow((root[0] + tn, root[1]), m), self._den0)
        self._terms: list[tuple[int, int, int]] = []
        self._floats: list[float] = []

    def factorized(self, j: int, qnum: tuple[int, int]) -> tuple[int, int]:
        """The numerator pair (j+1) N_j sum_i C(j,i) v_i, given qnum = N_j."""
        a = b = 0
        binom = 1  # C(j, i)
        for i, (va, vb) in enumerate(self._v):
            a += binom * va
            b += binom * vb
            binom = binom * (j - i) // (i + 1)
        return self.mp.field.mul(qnum, ((j + 1) * a, (j + 1) * b))

    def _term(self, j: int) -> tuple[int, int, int]:
        terms = self._terms
        while len(terms) <= j:
            qnum, den = next(self._qpowers)
            terms.append((*self.factorized(len(terms), qnum), den))
        return terms[j]

    # Both readers check the degree before the sequence is extended:
    # 5.0 would extend it and then fail.
    def value(self, j: int) -> QuadraticSurd:
        _index(j, "degree", 0)
        return self.mp.field.surd(*self._term(j))

    def float_value(self, j: int) -> float:
        _index(j, "degree", 0)
        floats = self._floats
        while len(floats) <= j:
            floats.append(self.mp.field.to_float(*self._term(len(floats))))
        return floats[j]


def _closed_branch_high(j: int, mp: EigenData) -> QuadraticSurd:
    # The factorized form, with N_j = td^{2 min(j,m)} (sqrt(p) -/+ tn)^{|j-m|}
    # by a fresh power instead of the sequence's running product.
    seq, field, m = mp.sequence, mp.field, mp.m
    tn = field.tn if j < m else -field.tn
    a, b = field.pow((field.root[0] + tn, field.root[1]), abs(j - m))
    scale = field.td ** (2 * min(j, m))
    return field.surd(*seq.factorized(j, (a * scale, b * scale)),
                      seq._den0 * field.td ** j)


def pollaczek_mass_closed(j: int, mp: EigenData) -> QuadraticSurd:
    """P_j(x_m) by the explicit closed form, exact in Q(sqrt(D)).

    Read from the mass point's `sequence`, which evaluates the factorized
    form (j+1) q^{j-m} Q_m(j) at every degree.
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
    """lam and Phi = (a cos(theta) + b)/sin(theta) as floats, with lam, a
    and b checked by `numerics._delta` and theta by `_theta`."""
    lam, a, b = (float(_delta(v, name))
                 for v, name in ((lam, "lam"), (a, "a"), (b, "b")))
    _theta(theta)
    return lam, (a * math.cos(theta) + b) / math.sin(theta)


def _trig_sum(first_base: complex, second_base: complex, theta: float,
              n: int) -> complex:
    _index(n, "degree", 0)
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
