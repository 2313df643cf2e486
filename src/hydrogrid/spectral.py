"""Truncated tridiagonal operator, Sturm-bisection eigensolver, and the
checks tying the spectral representation to the coordinate one.

The operator has diagonal delta/k (k = 1..N) and constant off-diagonal
1/2.  Its point spectrum above 1 approaches the mass points
x_m = sqrt(1 + delta**2/(m+1)**2); eigenvalues inside [-1, 1] are
truncation artifacts of the continuous spectrum and are only counted,
never matched.  Closed-form eigenvectors are exact surd sequences and
must satisfy every interior row of the matrix relation with residual
exactly zero.

A process that only builds and solves operators loads this module and
`numerics` alone: the closed-form and coordinate checks import
`pollaczek` and `coordinate` where they call them.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_left, bisect_right
from functools import cached_property
from itertools import islice
from fractions import Fraction

from .numerics import (QuadraticSurd, RationalLike, _delta, _index, _make,
                       _operands, _ReadOnly, _real, _step, as_surd, surd_pow)


class BracketError(ValueError):
    """Bisection bracket does not isolate exactly one eigenvalue."""


class TridiagonalOperator(_ReadOnly):
    """Truncation to size N of the infinite lattice operator.

    delta is checked by `numerics._step` and held as its exact Fraction;
    delta >= 0 keeps the diagonal non-increasing, which `sturm_count`
    relies on.  Read-only, and equal and hashed by (delta, size).
    """
    delta: Fraction
    size: int

    def __init__(self, delta: RationalLike, size: int) -> None:
        delta = _step(delta, zero_ok=True)
        _index(size, "truncation size", 1)
        self.__dict__.update(delta=delta, size=size)

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
        """(min(d_k - r_k), max(d_k + r_k)) over the rows, with radius r_k
        1/2 on the two end rows and 1 inside.

        The diagonal is non-increasing and rounding is monotone, so the
        extremes sit in the end rows or their inner neighbours: four rows,
        with the float sums of a pass over every row, give its bits.
        """
        diag = self._diag
        if self.size == 1:
            return diag[0], diag[0]
        if self.size == 2:
            return diag[1] - 0.5, diag[0] + 0.5
        return (min(diag[-2] - 1.0, diag[-1] - 0.5),
                max(diag[0] + 0.5, diag[1] + 1.0))


def build_truncated(delta: RationalLike, size: int) -> TridiagonalOperator:
    return TridiagonalOperator(delta=delta, size=size)


def sturm_count(op: TridiagonalOperator, x: float) -> int:
    """Number of eigenvalues of the truncated operator at or below x, as
    the float recurrence counts them.

    Standard Sturm-sequence sign count: the negative pivots of the LDL^T
    factorization of op - x, where a pivot that hits exact zero is
    replaced by a tiny negative multiple of the row norm.  So a zero
    pivot counts negative and an eigenvalue at x is counted, as in
    `exact_sturm_count`.  The diagonal is float(delta)/k, the exact
    delta/k only where that is a binary fraction; where it is not, a zero
    pivot at x = diag[i] can part the two counts.  At delta = 1/3, N = 1
    and x = 0.3333333333333333 the float diagonal is x itself and this
    count is 1, while the exact eigenvalue 1/3 lies above x and
    `exact_sturm_count` is 0.

    From about x = 1 up, where the solvers count, almost every pivot is
    negative, so the loop tallies the positive ones and returns n minus
    that tally: one fused step d = (diag - x) - 0.25/d per row, and a
    branch only for a pivot that is not negative.

    The diagonal is non-increasing (delta >= 0), so the rows split at the
    first row t with diag[t] - x <= -1, and the count runs in two phases:

    - Rows before t: the stop argument below needs g <= -1, so no pivot
      there settles the count, and `_pivots` walks them all with no stop
      test, as it walks every row for `_pivot_walk`.
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
    diag = op._diag
    tail = bisect_left(diag, True, key=lambda v: v - x <= -1.0)
    positive, d = _pivots(diag[:tail], x)
    for v in islice(diag, tail, None):
        d = v - x - 0.25 / d
        if d <= -0.5:
            break
        if d >= 0.0:
            if d == 0.0:
                d = -sys.float_info.epsilon * (abs(v - x) + 1.0)
            else:
                positive += 1
    return len(diag) - positive


def _pivots(diag: tuple[float, ...], x: float) -> tuple[int, float]:
    """The number of positive LDL^T pivots of T - x over the leading
    rows of T, whose diagonal is diag, walked with no stop test, and the
    last pivot (inf for no rows).  A zero pivot is replaced by
    -eps (|diag - x| + 1) and counted negative."""
    positive = 0
    d = math.inf  # 0.25/inf = 0.0, so the first pivot is diag[0] - x
    for v in diag:
        d = v - x - 0.25 / d
        if d >= 0.0:
            if d == 0.0:
                d = -sys.float_info.epsilon * (abs(v - x) + 1.0)
            else:
                positive += 1
    return positive, d


def _pivot_walk(op: TridiagonalOperator, x: float) -> tuple[int, float]:
    """`sturm_count` at a non-NaN x, walked through every row, and the
    last LDL^T pivot d_N = det(T_N - x)/det(T_{N-1} - x).

    `_pivots` walks every row with `sturm_count`'s float operations in
    the same order, so the count is the same integer.  The zeros of d_N
    are the eigenvalues of T_N, and its poles those of T_{N-1}.
    """
    positive, d = _pivots(op._diag, x)
    return op.size - positive, d


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
    _real(tol, "tol")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")


def _check_bounds(lo: float, hi: float) -> None:
    _real(lo, "lo")
    _real(hi, "hi")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(
            f"bounds must be finite, not NaN or infinite, got ({lo}, {hi})")


class _KnownCounts:
    """The Sturm counts of one operator taken so far in one solve, as
    (x, count) pairs sorted by x.

    Each pair comes from a real count: `seed` and `count` take it with
    the module-level `sturm_count`, and `walk`, for `_refine`'s homing
    steps, with `_pivot_walk`, which returns the same integer.  `count`
    answers an x counted before with its count, and an x strictly
    between two counted points of equal count with that count, which the
    float count's monotonicity in x implies; any other x it counts and
    records.  So it returns only counts that a real count gives, and
    every caller takes the branch it would take counting each x afresh.
    The monotonicity is pinned by a property test, not proven (see
    `eigenvalues_between`).
    """
    __slots__ = ("op", "xs", "counts")

    def __init__(self, op: TridiagonalOperator) -> None:
        self.op = op
        self.xs: list[float] = []
        self.counts: list[int] = []

    def count(self, x: float) -> int:
        xs, counts = self.xs, self.counts
        i = bisect_left(xs, x)
        if i < len(xs) and (xs[i] == x or (i and counts[i - 1] == counts[i])):
            return counts[i]
        return self.add(x)

    def add(self, x: float) -> int:
        """Count x with `sturm_count` and record it."""
        c = sturm_count(self.op, x)
        self._record(x, c)
        return c

    def walk(self, x: float) -> tuple[int, float]:
        """Count x with `_pivot_walk`, record the count and return the
        last pivot."""
        c, d = _pivot_walk(self.op, x)
        self._record(x, c)
        return c, d

    def gap(self, lo: float, hi: float, c_lo: int) -> tuple[float, float]:
        """The tightest bracket (a, b] the known counts hold inside
        (lo, hi] of the one eigenvalue there above c_lo: a counted c_lo
        or is lo, and b counted more or is hi."""
        xs = self.xs
        j = bisect_right(self.counts, c_lo, bisect_left(xs, lo),
                         bisect_right(xs, hi))
        return (max(lo, xs[j - 1]) if j else lo,
                min(hi, xs[j]) if j < len(xs) else hi)

    def _record(self, x: float, c: int) -> None:
        i = bisect_left(self.xs, x)
        self.xs.insert(i, x)
        self.counts.insert(i, c)

    def seed(self, lo: float) -> None:
        """Count both sides of the float mass points above lo,
        x~_m (1 -+ 2**-48) with x~_m = sqrt(1 + (delta/(m+1))**2) in
        floats, for m = 0, 1, ... while the two counts differ by exactly
        one.  From y = delta/(m+1) >= 2**27 on, the formula rounds to y,
        so x~_m is y itself, which cannot overflow.  A seed that brackets
        no eigenvalue costs its two counts and stops the seeding.
        delta = 0 has no mass points and no seeds."""
        delta = float(self.op.delta)
        above, k = math.inf, 1
        while delta:
            y = delta / k
            x = y if y >= 2.0 ** 27 else math.sqrt(1.0 + y ** 2)
            if not lo < x < above:
                return  # float x~_m stopped falling, or reached lo
            if self.add(x * (1.0 + 2.0 ** -48)) - self.add(
                    x * (1.0 - 2.0 ** -48)) != 1:
                return
            above, k = x, k + 1


def _last_interval(lo: float, hi: float, tol: float,
                   x: float) -> tuple[float, float]:
    """The interval that `_refine`'s bisection, at its current interval
    (lo, hi], ends on when the count first rises at x: every midpoint
    below x counts below the eigenvalue, every other one above it."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if mid < x:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _inside(lo: float, hi: float, tol: float, a: float, b: float,
            upper: bool) -> float:
    """The midpoint of `_refine`'s bisection from its current interval
    (lo, hi] that lies just inside the end b (upper) or a of the gap
    (a, b]: an end of the interval the bisection ends on if the
    eigenvalue lies next to that end.  While some midpoint lies in
    (a, b), so does this one."""
    if upper:
        return _last_interval(lo, hi, tol, b)[0]
    return _last_interval(lo, hi, tol, math.nextafter(a, math.inf))[1]


def _pole(walks: list[tuple[float, float]]) -> float:
    """The pole of h + w/(lam - x) through three walks (x, 1/d_N), or
    NaN."""
    (x1, g1), (x2, g2), (x3, g3) = walks
    t1, t2 = x1 - x3, x2 - x3
    den = (g1 - g3) * t2 - (g2 - g3) * t1
    return x3 + t1 * t2 * (g1 - g2) / den if den else math.nan


def _predict(refined: dict[int, float], c: int,
             tol: float) -> tuple[float, float] | None:
    """A guess (p, s) for `_refine` at the c-th eigenvalue from the
    bottom, from the refined eigenvalues above it, by count index: p
    extrapolates the next four cubically, and s, its spread, is how far
    the quadratic extrapolation of the next three lies from p, but at
    least 4 tol.  None unless all four are refined."""
    try:
        l1, l2, l3, l4 = (refined[c + i] for i in range(1, 5))
    except KeyError:
        return None
    cubic = 4.0 * l1 - 6.0 * l2 + 4.0 * l3 - l4
    quadratic = 3.0 * l1 - 3.0 * l2 + l3
    return cubic, max(abs(cubic - quadratic), 4.0 * tol)


def _refine(counts: _KnownCounts, lo: float, hi: float, c_lo: int,
            tol: float, guess: tuple[float, float] | None = None) -> float:
    """Bisect (lo, hi], which holds exactly one eigenvalue lam above the
    c_lo eigenvalues below lo, down to width tol.

    The gap (a, b] is the tightest bracket of lam the known counts hold.
    A midpoint outside it is answered by `counts.count`.  At a midpoint
    strictly inside it, the bisection first takes one homing step: it
    walks a point strictly inside the gap with `_pivot_walk`, recorded in
    the known counts, which narrows the gap, and then looks at the same
    midpoint again.  So no x is walked twice, and the steps only choose
    which points get counted: the bisection takes the branches it takes
    counting each midpoint afresh, whatever the guess, and the bits are
    plain bisection's.

    - A guess (p, s) of lam and its spread is walked first; then steps
      of s, 4s, 16s, ... go toward lam until a walk lands on its other
      side.  A step that would leave the gap walks `_inside` the end it
      passes instead: a failed mass-point seed leaves a count just
      above lam.
    - Then each step puts x at the pole of h + w/(lam - x) through the
      last three walks: 1/d_N = sum_i w_i/(lam_i - x) over the
      eigenvalues lam_i of T_N, w_i >= 0, has just the one pole, lam,
      inside (lo, hi] (the one-pole model of a secular equation, Bunch,
      Nielsen and Sorensen, Numer. Math. 31, 1978).  When the last
      interval around the pole already holds a walk on one side of it,
      the step walks that interval's end on the other side instead,
      which leaves no midpoint open if the pole is right.
    - As in Brent's method (Algorithms for Minimization without
      Derivatives, 1973, ch. 4), a pole is taken only if it lies inside
      the gap and nearer the last walk than half the step before.  Else
      the step walks `_inside` the gap next to the last walk when that
      was at a pole or the gap is no wider than tol, and otherwise
      bisects the gap.
    - A step that still lies outside the gap walks the open midpoint,
      so each step narrows the gap and the loop ends.
    """
    a, b = counts.gap(lo, hi, c_lo)
    walks: list[tuple[float, float]] = []  # the last three (x, 1/d_N)
    step = before = math.inf  # the last two distances between walks
    x, reach = guess if guess is not None else (math.nan, 0.0)
    side = None  # whether the guess's walks so far lie above lam
    pole = False  # whether the last walk was at a pole
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # float resolution exhausted
        if not a < mid < b:
            if counts.count(mid) > c_lo:
                hi = mid
            else:
                lo = mid
            continue
        # an open midpoint: one homing step, then the same midpoint again
        if reach:
            if not a < x < b:
                x = _inside(lo, hi, tol, a, b, x >= b)
                if side is not None:
                    reach = 0.0
        else:
            x = _pole(walks) if len(walks) == 3 else math.nan
            at_pole = a < x < b and abs(x - walks[2][0]) < 0.5 * before
            if at_pole:
                end_lo, end_hi = _last_interval(lo, hi, tol, x)
                if end_lo <= a:
                    x, at_pole = end_hi, False
                elif end_hi >= b:
                    x, at_pole = end_lo, False
            elif pole or b - a <= tol:
                x = _inside(lo, hi, tol, a, b,
                            not walks or walks[-1][0] == b)
            else:
                x = 0.5 * (a + b)
            pole = at_pole
        if not a < x < b:
            x = mid  # the guard: walk the open midpoint
        c, d = counts.walk(x)
        if walks:
            before, step = step, abs(x - walks[-1][0])
        walks = walks[-2:] + [(x, 1.0 / d)]
        above = c > c_lo
        if above:
            b = x
        else:
            a = x
        if reach:
            if side is None or side == above:
                x = x - reach if above else x + reach
                reach, side = 4.0 * reach, above
            else:
                reach = 0.0
    return 0.5 * (lo + hi)


def eigen_bisection(op: TridiagonalOperator, bracket: tuple[float, float],
                    tol: float) -> float:
    """Deterministic bisection for the single eigenvalue inside bracket
    by `_refine`, with the bits of plain bisection."""
    lo, hi = bracket
    _check_bounds(lo, hi)
    if not (lo < hi):
        raise ValueError("bracket must satisfy lo < hi")
    _check_tol(tol)
    counts = _KnownCounts(op)
    c_lo = counts.count(lo)
    c_hi = counts.count(hi)
    if c_hi - c_lo != 1:
        raise BracketError(
            f"bracket ({lo}, {hi}) contains {c_hi - c_lo} eigenvalues")
    return _refine(counts, lo, hi, c_lo, tol)


def eigenvalues_between(op: TridiagonalOperator, lo: float, hi: float,
                        tol: float = 1e-12) -> list[float]:
    """All eigenvalues in (lo, hi], isolated by Sturm counts then refined;
    lo == hi is the empty interval.

    Every count goes through one `_KnownCounts`, which records counts
    from three places: the seeds on both sides of the mass points above
    lo, isolation and refinement midpoints that no known counts decide,
    and `_refine`'s homing steps at the midpoints they leave open.
    Isolation pops the upper half of each split first, so the
    eigenvalues are refined from the top down, each remembered by its
    count index c, and `_predict` extrapolates the refined
    lam_{c+1..c+4} to the guess that steers the homing at c.  The
    guesses only steer: isolation and refinement skip the counts that
    known counts already decide and take the same branches, at the same
    midpoints, as counting each x afresh, so the result is the same to
    the bit.  That rests on the float count being monotone in x.  It is
    still pinned, not proven: Kahan's argument, made precise by Demmel,
    Dhillon and Ren (ETNA 3, 1995), covers the standard recurrence in
    monotone rounding, but not `sturm_count`'s replacement of a zero
    pivot, and tests/test_spectral.py checks monotonicity by a property
    over consecutive floats at eigenvalues, zero-pivot points and random
    pairs.
    """
    _check_bounds(lo, hi)
    if lo > hi:
        raise ValueError(f"interval must satisfy lo <= hi, got ({lo}, {hi})")
    _check_tol(tol)
    counts = _KnownCounts(op)
    counts.seed(lo)
    refined: dict[int, float] = {}
    clusters: list[float] = []
    stack = [(lo, hi, counts.count(lo), counts.count(hi))]
    while stack:
        a, b, ca, cb = stack.pop()
        k = cb - ca
        if k == 0:
            continue
        if k == 1:
            refined[cb] = _refine(counts, a, b, ca, tol,
                                  _predict(refined, cb, tol))
            continue
        mid = 0.5 * (a + b)
        if not a < mid < b:
            # unresolvable cluster at float resolution
            clusters.extend([mid] * k)
            continue
        cm = counts.count(mid)
        stack.append((a, mid, ca, cm))
        stack.append((mid, b, cm, cb))
    return sorted([*refined.values(), *clusters])


def point_spectrum_above(op: TridiagonalOperator, threshold: float = 1.0,
                         tol: float = 1e-12) -> list[float]:
    """Eigenvalues in (threshold, max(threshold, Gershgorin upper end +
    1)], the discrete branch for threshold >= 1, in ascending order."""
    _real(threshold, "threshold")
    _, hi = op.gershgorin_interval()
    # a threshold at or above the upper end leaves the empty interval
    return eigenvalues_between(op, threshold, max(threshold, hi + 1.0), tol)


def closed_form_vector(n: int, delta: RationalLike,
                       length: int) -> tuple[QuadraticSurd, ...]:
    """Exact eigenvector entries u_k = P_{k-1}(x_{n-1}), k = 1..length."""
    from .pollaczek import mass_point
    _index(n, "state index", 1)
    _index(length, "vector length", 1)
    value = mass_point(n - 1, delta).sequence.value
    return tuple(value(j) for j in range(length))


def eigen_residual(entries, delta: RationalLike, mu) -> QuadraticSurd:
    """Max over interior rows k = 1..K-1 of
    |u_{k-1}/2 + (delta/k) u_k + u_{k+1}/2 - mu u_k|, u_0 = 0, exactly.

    Exact entries u_1..u_K, from any iterable (`wavefunction_values`
    too), are read in one pass, each as integers (A + B sqrt(r))/C over
    one radicand by `numerics._operands`, and mu with them: an entry or
    mu over another field raises MixedRadicandError.  An entry may also
    be given as those integers, a tuple (A, B, C) of ints with C > 0,
    with no surd built: it is read over the radicand r that the entries
    and mu are read over, the first irrational one's among u_1, u_2 and
    mu, and with B != 0 it needs one of them irrational.  With
    mu = (ma + mb sqrt(r))/mc and delta = dn/dd, row k times
    2 fd C_{k-1} C_k C_{k+1}, fd = k dd mc, is the integer pair
        fd C_k (u_{k-1} C_{k+1} + u_{k+1} C_{k-1})
        + 2 C_{k-1} C_{k+1} (dn mc - k dd ma - k dd mb sqrt(r)) u_k
    over the entries' numerator pairs; a surd is built only for a
    nonzero row, to take its absolute value and the max.  delta may take
    any sign.  `coordinate.residual_row` is the same row on surds.
    """
    delta = _delta(delta, "delta")
    dn, dd = delta.numerator, delta.denominator
    best = as_surd(0)
    r, s = 0, 1
    pa = pb = ha = hb = 0  # u_0 = 0
    pc = hc = 1
    k = 0
    for k, entry in enumerate(entries):
        if type(entry) is tuple:
            a, b, c = _triple(entry)
        else:
            a, b, c, r, s = _exact(r, s, entry, "entry")
        if k >= 1:
            if k == 1:  # with the first row: one entry is a ValueError
                ma, mb, mc, r, s = _exact(r, s, mu, "mu")
            if not r and (b or hb):
                raise ValueError("an entry (A, B, C) with B != 0 needs an "
                                 "irrational mu or entry")
            kd = k * dd
            outer = kd * mc * hc  # fd C_k
            inner = 2 * pc * c
            fa, fb = inner * (dn * mc - kd * ma), -inner * kd * mb
            ra = outer * (pa * c + a * pc) + fa * ha + fb * hb * r
            rb = outer * (pb * c + b * pc) + fa * hb + fb * ha
            if ra or rb:
                best = max(best, abs(_make(ra, rb, outer * inner, r, s)))
        pa, pb, pc, ha, hb, hc = ha, hb, hc, a, b, c
    if k < 1:
        raise ValueError("need at least two entries for one interior row")
    return best


def _triple(entry: tuple) -> tuple[int, int, int]:
    """An entry given as integers (A, B, C): TypeError unless it holds
    three ints, ValueError unless C > 0."""
    if len(entry) == 3:
        a, b, c = entry
        if type(a) is type(b) is type(c) is int:
            if c > 0:
                return entry
            raise ValueError(f"an entry (A, B, C) needs C > 0, got {entry!r}")
    raise TypeError(f"an entry tuple must hold three ints (A, B, C), "
                    f"got {entry!r}")


def _exact(r: int, s: int, value: object, what: str):
    """value's integers over sqrt(r) by `numerics._operands`, with the
    (r, s) they are read over; TypeError unless value is exact."""
    ops = _operands(r, s, value)
    if ops is None:
        raise TypeError(f"{what} must be int, Fraction or QuadraticSurd, "
                        f"got {value!r}")
    return ops


def exp_part(k: int, n: int, delta: RationalLike) -> QuadraticSurd:
    """(sqrt(1 + (delta/n)**2) - delta/n)**k, exact."""
    from .coordinate import eigen_data
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

    Entries come from the exact closed form, each rounded once per state
    by the field's `q_floats` kernel, from an enclosure of q^j with no
    exact power built, and read in order from the two states' cached rows
    (see `ClosedFormSequence.floats`); the truncation point is chosen from
    the geometric decay envelope
    |u_k^n u_k^n2| <= c * k^(n+n2) * (q_n q_n2)^k, calibrated on the last
    three terms, so the discarded tail is below tail_tol, which must be
    positive.  `_truncated_sum` skips the envelope at the terms where it
    cannot pass, with the same stopping term and bits.
    """
    from .pollaczek import mass_point
    _index(n, "state index", 1)
    _index(n2, "state index", 1)
    _check_tol(tail_tol)
    delta = _step(delta)
    mp1 = mass_point(n - 1, delta)
    mp2 = mass_point(n2 - 1, delta)
    t = float(mp1.q) * float(mp2.q)
    if t >= 1.0:
        raise ValueError("non-convergent tail (decay factor >= 1)")
    return _truncated_sum(zip(mp1.sequence.floats(), mp2.sequence.floats()),
                          t, n + n2, tail_tol)


def _truncated_sum(rows, t: float, power: int,
                   tail_tol: float) -> float | None:
    """The sum of a*b over the pairs (a, b) of rows, read in order up to
    the first term k at which the envelope bounds the tail below
    tail_tol (None if rows ends first), for a decay factor 0 <= t < 1.

    The envelope is max(w0 rho^2, w1 rho, w2) rho/(1 - rho),
    rho = t ((k+1)/k)^power, over the last three |terms| w0, w1, w2, from
    term max(8, power) on, where they all exist.  While
    w2 t/(1 - t) >= tail_tol the envelope is skipped: (k+1)/k rounds to
    at least 1, so its power is at least 1 and rho >= t; the max is at
    least w2 and 1 - rho <= 1 - t; and every float operation is
    monotone.  So there the envelope is at least tail_tol too, and the
    stopping term and every returned bit are those of testing it at
    every term.
    """
    start = max(8, power)
    cut = 1.0 - t
    total = w1 = w2 = 0.0
    for k, (a, b) in enumerate(rows, start=1):
        term = a * b
        total += term
        w0, w1, w2 = w1, w2, abs(term)
        if k < start or w2 * t / cut >= tail_tol:
            continue
        rho = t * ((k + 1) / k) ** power
        if rho >= 1.0:
            continue
        if max(w0 * rho ** 2, w1 * rho, w2) * rho / (1.0 - rho) < tail_tol:
            return total
    return None


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
    from .coordinate import wavefunction_values
    delta = _step(delta)
    vec = closed_form_vector(n, delta, length)
    values = wavefunction_values(n, delta, length)
    ratio = next(values) / vec[0]
    for k, (u, entry) in enumerate(zip(values, vec[1:]), start=2):
        if u != ratio * entry:
            raise ArithmeticError(
                f"coordinate/spectral ratio not constant at n={n}, k={k}")
    return ratio
