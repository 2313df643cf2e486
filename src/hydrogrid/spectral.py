"""Truncated tridiagonal operator, Sturm-bisection eigensolver, and the
checks tying the spectral representation to the coordinate one.

The operator has diagonal delta/k (k = 1..N) and constant off-diagonal
1/2.  Its point spectrum above 1 approaches the mass points
x_m = sqrt(1 + delta**2/(m+1)**2); eigenvalues inside [-1, 1] are
truncation artifacts of the continuous spectrum and are only counted,
never matched.  Closed-form eigenvectors are exact surd sequences and
must satisfy every interior row of the matrix relation with residual
exactly zero.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left
from functools import cached_property
from itertools import islice
from fractions import Fraction

from .coordinate import eigen_data, residual_row, wavefunction_values
from .numerics import (QuadraticSurd, RationalLike, _delta, _index, _step,
                       as_surd, surd_pow)
from .pollaczek import mass_point


class BracketError(ValueError):
    """Bisection bracket does not isolate exactly one eigenvalue."""


class TridiagonalOperator:
    """Truncation to size N of the infinite lattice operator.

    delta >= 0 keeps the diagonal non-increasing, which `sturm_count`
    relies on.  Read-only, and equal and hashed by (delta, size).
    """
    delta: Fraction
    size: int

    def __init__(self, delta: Fraction, size: int) -> None:
        _index(size, "truncation size", 1)
        if not isinstance(delta, (int, Fraction)) or isinstance(delta, bool):
            raise TypeError(f"delta must be int or Fraction, got {delta!r}")
        self.__dict__.update(delta=_step(delta, zero_ok=True), size=size)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.delta, self.size) == (other.delta, other.size)

    def __hash__(self) -> int:
        return hash((self.delta, self.size))

    def __repr__(self) -> str:
        return f"TridiagonalOperator(delta={self.delta!r}, size={self.size!r})"

    @cached_property
    def _diag(self) -> tuple[float, ...]:
        """float(delta)/k for k = 1..N, computed once per operator."""
        delta = float(self.delta)
        return tuple(delta / k for k in range(1, self.size + 1))

    def gershgorin_interval(self) -> tuple[float, float]:
        diag = self._diag
        if self.size == 1:
            return diag[0], diag[0]
        radii = [0.5 if k in (0, self.size - 1) else 1.0
                 for k in range(self.size)]
        lo = min(d - r for d, r in zip(diag, radii))
        hi = max(d + r for d, r in zip(diag, radii))
        return lo, hi


def build_truncated(delta: RationalLike, size: int) -> TridiagonalOperator:
    return TridiagonalOperator(delta=_step(delta, zero_ok=True), size=size)


def sturm_count(op: TridiagonalOperator, x: float) -> int:
    """Number of eigenvalues of the truncated operator strictly below x.

    Standard Sturm-sequence sign count: the negative pivots of the LDL^T
    factorization of op - x, where a pivot that hits exact zero is
    replaced by a tiny negative multiple of the row norm.  From about
    x = 1 up, where the solvers count, almost every pivot is negative, so
    the loop tallies the positive ones and returns n minus that tally:
    one fused step d = (diag - x) - 0.25/d per row, and a branch only for
    a pivot that is not negative.

    The diagonal is non-increasing (delta >= 0), so the rows split at the
    first row t with diag[t] - x <= -1, and the count runs in two phases:

    - Rows before t: the stop argument below needs g <= -1, so no pivot
      there settles the count, and the loop walks them all with no stop
      test.  A zero pivot is replaced and counted negative; a positive
      one is tallied.
    - Rows from t on: every row has g = diag - x <= -1 in floats too.
      There a pivot d <= -0.5 gives fl(0.25/d) in [-0.5, 0], hence the
      next pivot fl(g - fl(0.25/d)) <= -0.5 (rounding is monotone): no
      later pivot is positive, so the tally is final at the first such d.

    Both phases do the same float operations in the same order as one
    full walk, and every pivot is negative, a replaced zero, or positive,
    so they return the same integer.  The full walk counts no pivot of
    x = NaN as negative and gives 0; a NaN pivot is neither positive nor
    <= -0.5, so the tally would give n, and NaN is answered up front.

    The trade-off is one branch per positive pivot: at x well inside
    (-1, 1), where most pivots are positive, one N = 6978 count measured
    0.69 -> 0.80 ms at x = -0.9.  Only verify's single count at x = -1
    (N = 400) runs there.
    """
    if x != x:
        return 0
    eps = sys.float_info.epsilon
    diag = op._diag
    n = len(diag)
    tail = bisect_left(diag, True, key=lambda v: v - x <= -1.0)
    positive = 0
    d = math.inf  # 0.25/inf = 0.0, so the first pivot is diag[0] - x
    for v in islice(diag, tail):
        d = v - x - 0.25 / d
        if d >= 0.0:
            if d == 0.0:
                d = -eps * max(1.0, abs(v - x) + 1.0)
            else:
                positive += 1
    for v in islice(diag, tail, None):
        d = v - x - 0.25 / d
        if d <= -0.5:
            break
        if d >= 0.0:
            if d == 0.0:
                d = -eps * max(1.0, abs(v - x) + 1.0)
            else:
                positive += 1
    return n - positive


def exact_sturm_count(op: TridiagonalOperator,
                      x: RationalLike | float) -> int:
    """`sturm_count` in exact arithmetic, for a rational x (a float is
    taken at its exact value), with integers only.

    With delta = r/s and x = a/b, the leading principal minors of op - x,
    each scaled by the positive (2sb)^k k!, are
    P_k = 2(rb - ask) P_{k-1} - s^2 b^2 k(k-1) P_{k-2}, P_{-1} = 0,
    P_0 = 1, and the count is the number of sign changes in P_0..P_N.
    A zero P_k takes the sign opposite to P_{k-1}, as a zero float pivot
    counts negative.  Two consecutive minors never both vanish (the
    recurrence would carry the zeros down to P_0), and a zero P_k with
    k < N sits between minors of opposite sign, so it adds one change
    whichever sign it takes: the count is the number of eigenvalues
    below x, plus one when x is itself an eigenvalue.  x is checked by
    `numerics._delta`: NaN or infinity raises ValueError, and anything
    but an int, Fraction or float raises TypeError.
    """
    x = _delta(x, "x")
    a, b = x.numerator, x.denominator
    r, s = op.delta.numerator, op.delta.denominator
    sb2 = (s * b) ** 2
    count = 0
    negative = False  # the sign taken by P_{k-1}; P_0 = 1
    p_prev, p = 0, 1
    for k in range(1, op.size + 1):
        p_prev, p = p, (2 * (r * b - a * s * k) * p
                        - sb2 * k * (k - 1) * p_prev)
        if p == 0 or (p < 0) != negative:
            negative = not negative
            count += 1
    return count


def _check_tol(tol: float) -> None:
    # An infinite tol would stop every refinement and tail sum at once.
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _check_bounds(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"bounds must be finite, not NaN or infinite, got ({lo}, {hi})")


def _refine(op: TridiagonalOperator, lo: float, hi: float, c_lo: int,
            tol: float) -> float:
    """Bisect (lo, hi], which holds exactly one eigenvalue above the
    c_lo eigenvalues below lo, down to width tol."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # float resolution exhausted
        if sturm_count(op, mid) > c_lo:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def eigen_bisection(op: TridiagonalOperator, bracket: tuple[float, float],
                    tol: float) -> float:
    """Deterministic bisection for the single eigenvalue inside bracket."""
    lo, hi = bracket
    _check_bounds(lo, hi)
    if not (lo < hi):
        raise ValueError("bracket must satisfy lo < hi")
    _check_tol(tol)
    c_lo = sturm_count(op, lo)
    c_hi = sturm_count(op, hi)
    if c_hi - c_lo != 1:
        raise BracketError(
            f"bracket ({lo}, {hi}) contains {c_hi - c_lo} eigenvalues")
    return _refine(op, lo, hi, c_lo, tol)


def eigenvalues_between(op: TridiagonalOperator, lo: float, hi: float,
                        tol: float = 1e-12) -> list[float]:
    """All eigenvalues in (lo, hi], isolated by Sturm counts then refined;
    lo == hi is the empty interval."""
    _check_bounds(lo, hi)
    if lo > hi:
        raise ValueError(f"interval must satisfy lo <= hi, got ({lo}, {hi})")
    _check_tol(tol)
    results: list[float] = []
    stack = [(lo, hi, sturm_count(op, lo), sturm_count(op, hi))]
    while stack:
        a, b, ca, cb = stack.pop()
        k = cb - ca
        if k == 0:
            continue
        if k == 1:
            results.append(_refine(op, a, b, ca, tol))
            continue
        mid = 0.5 * (a + b)
        if not a < mid < b:
            # unresolvable cluster at float resolution
            results.extend([mid] * k)
            continue
        cm = sturm_count(op, mid)
        stack.append((a, mid, ca, cm))
        stack.append((mid, b, cm, cb))
    return sorted(results)


def point_spectrum_above(op: TridiagonalOperator, threshold: float = 1.0,
                         tol: float = 1e-12) -> list[float]:
    """Eigenvalues above threshold (the discrete branch), descending x_m
    order not guaranteed; returned ascending."""
    _, hi = op.gershgorin_interval()
    # a threshold at or above the upper end leaves the empty interval
    return eigenvalues_between(op, threshold, max(threshold, hi + 1.0), tol)


def closed_form_vector(n: int, delta: RationalLike,
                       length: int) -> tuple[QuadraticSurd, ...]:
    """Exact eigenvector entries u_k = P_{k-1}(x_{n-1}), k = 1..length."""
    _index(n, "state index", 1)
    _index(length, "vector length", 1)
    seq = mass_point(n - 1, delta).sequence
    return tuple(seq.value(j) for j in range(length))


def eigen_residual(entries, delta: RationalLike, mu) -> QuadraticSurd:
    """Max over interior rows k = 1..K-1 of
    |u_{k-1}/2 + (delta/k) u_k + u_{k+1}/2 - mu u_k|, u_0 = 0, exactly.

    Exact entries u_1..u_K, from any iterable (`wavefunction_values`
    too), are read in one pass; a mu over another radicand raises
    MixedRadicandError.  delta may take any sign.
    """
    delta = _delta(delta, "delta")
    best = u_prev = u_here = as_surd(0)
    k = 0
    for k, u_next in enumerate(entries):
        if k >= 1:
            row = abs(residual_row(u_prev, u_here, u_next, k, delta, mu))
            if best < row:
                best = row
        u_prev, u_here = u_here, u_next
    if k < 1:
        raise ValueError("need at least two entries for one interior row")
    return best


def exp_part(k: int, n: int, delta: RationalLike) -> QuadraticSurd:
    """(sqrt(1 + (delta/n)**2) - delta/n)**k, exact."""
    _index(k, "power", 0)
    return surd_pow(eigen_data(n, delta).q, k)


def exp_part_float_reference(k: int, n: int, delta: RationalLike) -> float:
    """Transcendental form exp(-k*arsinh(delta/n)) for cross-checking;
    k and n are checked as in `exp_part`, and delta may take any sign."""
    _index(k, "power", 0)
    _index(n, "state index", 1)
    return math.exp(-k * math.asinh(float(_delta(delta, "delta")) / n))


def inner_product(n: int, n2: int, delta: RationalLike,
                  tail_tol: float = 1e-12) -> float:
    """Truncated l2 inner product sum_k u_k^n u_k^n2.

    Entries come from the exact closed form, each floated once per state
    (see `EigenData.sequence`), and the truncation point is chosen from
    the geometric decay envelope
    |u_k^n u_k^n2| <= c * k^(n+n2) * (q_n q_n2)^k, calibrated on the last
    few computed terms, so the discarded tail is below tail_tol, which
    must be positive.
    """
    _index(n, "state index", 1)
    _index(n2, "state index", 1)
    _check_tol(tail_tol)
    delta = _step(delta)
    mp1 = mass_point(n - 1, delta)
    mp2 = mass_point(n2 - 1, delta)
    seq1, seq2 = mp1.sequence, mp2.sequence
    t = float(mp1.q) * float(mp2.q)
    if t >= 1.0:
        raise ValueError("non-convergent tail (decay factor >= 1)")
    power = n + n2
    total = 0.0
    window: list[float] = []
    k = 0
    while True:
        k += 1
        term = seq1.float_value(k - 1) * seq2.float_value(k - 1)
        total += term
        window.append(abs(term))
        if len(window) > 3:
            window.pop(0)
        if k < max(8, power):
            continue
        rho = t * ((k + 1) / k) ** power
        if rho >= 1.0:
            continue
        envelope = max(w * rho ** (len(window) - 1 - i)
                       for i, w in enumerate(window))
        if envelope * rho / (1.0 - rho) < tail_tol:
            return total


def gram_matrix(states: list[int], delta: RationalLike,
                tail_tol: float = 1e-13) -> list[list[float]]:
    """Gram matrix of the normalized closed-form vectors, as rows."""
    _check_tol(tail_tol)
    delta = _step(delta)
    raw = {}
    for i, n in enumerate(states):
        for n2 in states[i:]:
            raw[(n, n2)] = raw[(n2, n)] = inner_product(n, n2, delta,
                                                        tail_tol)
    norms = {n: math.sqrt(raw[(n, n)]) for n in states}
    return [[raw[(n, n2)] / (norms[n] * norms[n2]) for n2 in states]
            for n in states]


def coordinate_ratio(n: int, delta: RationalLike, length: int = 8):
    """Exact global ratio wavefunction(k)/closed_form entry, verified
    constant over k = 1..length; returns the surd ratio."""
    delta = _step(delta)
    vec = closed_form_vector(n, delta, length)
    values = wavefunction_values(n, delta, length)
    ratio = next(values) / vec[0]
    for k, (u, entry) in enumerate(zip(values, vec[1:]), start=2):
        if u != ratio * entry:
            raise ArithmeticError(
                f"coordinate/spectral ratio not constant at n={n}, k={k}")
    return ratio
