"""Coordinate-space solutions of the discretised l=0 hydrogen radial equation.

The lattice eigenfunctions have the form

    u(r) = (sum_{k=1..n} ell_k alpha_k r^k) * q^(r/delta),

where ell_k are the continuum Laguerre coefficients, q is the per-step
decay factor and the alpha_k carry the delta-dependent lattice
corrections.  Two independent routes compute the alpha vector:

* `alpha_inner` runs the published level-by-level recursion over the
  combinatorial C coefficients (exact rationals), one rule for every
  level chosen by parity, with a divisor proven nonzero, assembled into
  surds by `AlphaTable.assembled`;
* `ansatz_constraint_system` re-derives the linear constraints from first
  principles by binomial expansion of u(r +/- delta), and
  `solve_constraint_system` solves them by exact back-substitution on
  their strictly upper triangular structure.

Both must agree exactly; `difference_residual` additionally checks the
difference equation row by row in exact arithmetic.
"""

from __future__ import annotations

import math
import operator
import sys
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, starmap
from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple

from .numerics import (QuadraticSurd, RationalLike, _index, _ReadOnly, _real,
                       _StateField, _step, as_surd, surd_pow)

if TYPE_CHECKING:
    from .pollaczek import ClosedFormSequence


class EigenData(_ReadOnly):
    """The one exact bundle of state n at step delta, built from (n, delta)
    alone.

    With t = delta/n, `field` is the integer form of the state's field
    Q(sqrt(D)), D = 1 + t**2, and mu = sqrt(D) and q = mu - t are read
    from it: mu is both the eigenvalue of state n and the Pollaczek mass
    point x_m, m = n - 1, and q, the per-step decay factor, is the exact
    field inverse of mu + t.  Built only by the cached `_state`, which
    three entry points reach after `numerics._step` has checked delta:
    `eigen_data` (delta > 0), `pollaczek.mass_point` and
    `AlphaTable.assembled` (delta >= 0).  They share one object per
    state, so equality and hashing are by identity.  What is derived
    from the state is built once, on first use, and held here:
    `sequence`, the closed-form P_j(x_m); `alpha_table`, the inner
    coefficients; `alphas`, the lattice corrections alpha_1..alpha_n;
    and `polynomial`, the wavefunction's polynomial factor on the
    field's integers.  The fields are read-only; the derived values are
    cached in the instance dictionary, which `cached_property` writes
    directly.
    """
    n: int
    delta: Fraction
    t: Fraction
    field: _StateField
    mu: QuadraticSurd
    q: QuadraticSurd

    def __init__(self, n: int, delta: Fraction) -> None:
        t = delta / n
        field = _StateField(t)
        (s, b), td = field.root, field.td
        self.__dict__.update(n=n, delta=delta, t=t, field=field,
                             mu=field.surd(s, b, td),
                             q=field.surd(s - field.tn, b, td))

    def __repr__(self) -> str:
        return f"EigenData(n={self.n!r}, delta={self.delta!r})"

    @property
    def m(self) -> int:
        return self.n - 1

    @cached_property
    def sequence(self) -> ClosedFormSequence:
        from .pollaczek import ClosedFormSequence  # pollaczek imports us
        return ClosedFormSequence(self)

    @cached_property
    def alpha_table(self) -> AlphaTable:
        """`alpha_inner(n, n - 1)`: level k depends only on the levels
        below it, so its rows k <= kmax are those of any smaller kmax."""
        return alpha_inner(self.n, self.n - 1)

    @cached_property
    def alphas(self) -> tuple[QuadraticSurd, ...]:
        """alpha_1, ..., alpha_n assembled from `alpha_table`; alpha_n = 1."""
        return tuple(self.alpha_table.assembled(self.n - j, self.delta)
                     for j in range(1, self.n + 1))

    @cached_property
    def polynomial(self) -> tuple[tuple[tuple[int, int], ...], int]:
        """The wavefunction's polynomial factor on integers.

        The coefficient alpha_j ell_j delta^j of k^j is read by the
        field's `parts` as (a_j + b_j sqrt(p))/den_j and written over the
        common denominator den = lcm(den_j) as the pair (a_j, b_j) scaled
        by den/den_j.  Returns the pairs from the highest degree down,
        and den.  When p is a perfect square, mu is rational, so every
        b_j is 0.
        """
        ell = laguerre_ref(self.n).coefficients
        coeffs = [self.field.parts(alpha * (ell[j] * self.delta ** j))
                  for j, alpha in enumerate(self.alphas, start=1)]
        den = math.lcm(*(c for _, _, c in coeffs))
        return tuple((a * (den // c), b * (den // c))
                     for a, b, c in reversed(coeffs)), den

    @property
    def E(self) -> QuadraticSurd:
        """Lattice energy (1 - mu)/delta**2."""
        if self.delta == 0:
            raise ValueError("E is undefined at delta=0; the limit is "
                             "-1/(2n^2)")
        return (1 - self.mu) / (self.delta * self.delta)


class LaguerreRef(NamedTuple):
    """Continuum reference: u_n(r) = e^(-r/n) sum_k ell_k r^k."""
    n: int
    coefficients: Mapping[int, Fraction]


class AlphaTable(NamedTuple):
    """Inner coefficients alpha^(n)_{n-k,m} for one n, 0 <= k <= kmax."""
    n: int
    kmax: int
    inner: Mapping[tuple[int, int], Fraction]

    def inner_coeff(self, k: int, m: int) -> Fraction:
        """alpha^(n)_{n-k,m}, read from `inner`, which holds the base row
        m = 0 and no impossible entry: 0 for an impossible m (m < 0 or
        m > k//2) and for a row k < 0.  k and m are ints, as in every
        method of the table."""
        _index(k, "k")
        _index(m, "m")
        if k > self.kmax:
            raise ValueError(f"k={k} exceeds table kmax={self.kmax}")
        return self.inner.get((k, m), Fraction(0))

    def order_normalized(self, k: int, m: int) -> Fraction:
        """inner * n^(2m) (n-k+2m-1)!/(n-k)! / C(k//2, m), for 1 <= m <= k//2."""
        _index(k, "k")
        _index(m, "m")
        if not 1 <= m <= k // 2:
            raise ValueError(f"order normalization needs 1 <= m <= {k // 2}")
        inner = self.inner_coeff(k, m)
        # (n-k+2m-1)!/(n-k)! = perm(n-k+2m-1, 2m-1)
        return Fraction(inner.numerator * self.n ** (2 * m)
                        * math.perm(self.n - k + 2 * m - 1, 2 * m - 1),
                        inner.denominator * math.comb(k // 2, m))

    def assembled(self, k: int, delta: RationalLike) -> QuadraticSurd:
        """alpha^(n,delta)_{n-k}: even k are rational, odd k carry one
        factor of mu_n."""
        _index(k, "k")
        if not 0 <= k <= self.kmax:
            raise ValueError(f"k={k} outside table range 0..{self.kmax}")
        state = _state(self.n, _step(delta, zero_ok=True))
        body = sum((self.inner_coeff(k, m) * state.delta ** (2 * m)
                    for m in range(k // 2 + 1)), Fraction(0))
        return body * state.mu if k % 2 else QuadraticSurd(body)


class ConstraintSystem(NamedTuple):
    """Rows of the power-by-power constraints on the full polynomial
    coefficients c_k = ell_k * alpha_k (row j for r^j, j = 0..n).

    Once mu and q take their eigenvalue values, rows j = n and j = n-1
    vanish identically and row j <= n-2 is zero up to column j and
    nonzero at column j+1, so the rows are strictly upper triangular and
    fix the c_k up to one common factor.
    """
    n: int
    delta: Fraction
    rows: tuple[tuple[QuadraticSurd, ...], ...]


def continuum_energy(n: int) -> Fraction:
    """Continuum eigenvalue -1/(2 n**2)."""
    _index(n, "state index", 1)
    return Fraction(-1, 2 * n * n)


def _continuum_gap(n: int, delta: RationalLike) -> tuple[float, float, float]:
    """E of state n at step delta > 0, its gap E + 1/(2 n**2) to the
    continuum and that gap over delta**2, each exact in Q(sqrt(D)) and
    rounded once: the sweep that `converge` prints and verify checks
    against 1/(8 n**4)."""
    ed = eigen_data(n, delta)
    energy = ed.E
    gap = energy - continuum_energy(n)
    return float(energy), float(gap), float(gap / (ed.delta * ed.delta))


# The bundle of state n >= 1 at a checked step delta >= 0, built once.
_state = lru_cache(maxsize=None)(EigenData)


def eigen_data(n: int, delta: RationalLike) -> EigenData:
    """Closed-form lattice eigenvalue data for state n at step delta > 0."""
    _index(n, "state index", 1)
    return _state(n, _step(delta))


def laguerre_ref(n: int) -> LaguerreRef:
    """ell_k = ((-2/n)^(k-1)/k!) C(n-1, k-1) for k = 1..n, exact."""
    _index(n, "state index", 1)
    coeffs = {
        k: Fraction((-2) ** (k - 1) * math.comb(n - 1, k - 1),
                    n ** (k - 1) * math.factorial(k))
        for k in range(1, n + 1)
    }
    return LaguerreRef(n=n, coefficients=coeffs)


def _c_factors(n: int, kmax: int) -> tuple[list[int], list[int]]:
    """j! for j <= n and prod_{m=1..k}(n-m) for k <= kmax, the factors of
    `_c_numerator`."""
    return (list(accumulate(range(1, n + 1), operator.mul, initial=1)),
            list(accumulate(range(n - 1, n - kmax - 1, -1), operator.mul,
                            initial=1)))


def _c_numerator(n: int, k: int, l: int, fact: list[int],
                 falling: list[int]) -> int:
    """2^k C_{n,k,l} = (-n)^k prod_{m=1..k}(n-m) n!/(k! l! (n-k-l)!), an
    integer, from the lists of `_c_factors`."""
    return ((-n) ** k * falling[k]
            * (fact[n] // (fact[k] * fact[l] * fact[n - k - l])))


def c_coeff(n: int, k: int, l: int) -> Fraction:
    """C_{n,k,l} = (-n/2)^k n!/(k! l! (n-k-l)!) prod_{m=1..k}(n-m), exact."""
    for index in (n, k, l):
        _index(index, "C coefficient index", 0)
    if n - k - l < 0:
        raise ValueError(f"n-k-l = {n - k - l} < 0")
    return Fraction(_c_numerator(n, k, l, *_c_factors(n, k)), 2 ** k)


def alpha_inner(n: int, kmax: int) -> AlphaTable:
    """Fill the inner coefficient table level by level.

    Base row alpha_{n-k,0} = 1.  For k >= 2 and 1 <= m <= k//2, entry
    (k, m) is a sum over the lower levels i < k, each term
    C = C(n, i, k+1-i) times an entry of level i, with the rule chosen
    by the parity of k - i:

    * k - i even: -C alpha_{n-i, m-(k-i)/2} / n;
    * k - i odd: C alpha_{n-i, m-(k-i-1)/2}, plus, when k is even,
      C alpha_{n-i, m-(k-i+1)/2} / n**2.

    Levels below k - 2m - 1 add only entries with a negative m, so each
    level i adds to the entries m its row reaches.  The sum is divided
    by C(n,k,1)/n - C(n,k,0) = -(k/n) C(n,k,0), since
    C(n,k,1)/C(n,k,0) = (n-k)!/(n-k-1)! = n - k.  That divisor is never
    zero: k >= 1, and for k <= n - 1 the factor prod_{m<=k}(n - m) of
    C(n,k,0) has no zero factor.

    The recursion runs on integers.  2^i C(n,i,l) is the integer
    `_c_numerator`, from factorials and a falling product built once.
    Each finished level i is kept as integer numerators A_{i,m} over one
    level denominator D_i, the lcm of its entries' denominators
    (D_0 = D_1 = 1).  Level k scales its sum by
    Q_k = n^2 2^(k-1) L, L = lcm(D_0..D_(k-1)), so each term is one
    integer multiply-add, with weight 2^(k-1-i) (L/D_i) 2^i C times n^2,
    -n or 1 for the three rules.  The scaled sum T gives the entry
    (T/Q_k) / (-(k/n) C(n,k,0)) = 2T / (-n k L 2^k C(n,k,0)), one
    `Fraction`, so one gcd per entry.
    """
    _index(n, "state index", 1)
    _index(kmax, "kmax", 0)
    if kmax > n - 1:
        raise ValueError(f"kmax={kmax} exceeds n-1={n - 1}")
    fact, falling = _c_factors(n, kmax)
    inner = {(k, 0): Fraction(1) for k in range(kmax + 1)}
    rows: list[list[int]] = [[1], [1]]  # A_{i,m}, m = 0..i//2; A_{i,0} = D_i
    lcm = 1  # lcm(D_0..D_(k-1))
    for k in range(2, kmax + 1):
        lcm = math.lcm(lcm, rows[k - 1][0])
        total = [0] * (k // 2 + 1)  # T_m; T_0 is summed but not read
        for i, row in enumerate(rows):
            d = k - i
            weight = (_c_numerator(n, i, d + 1, fact, falling)
                      * (lcm // row[0]) << (d - 1))
            if d % 2 == 0:  # -C a_{i, m-d/2} / n
                weight *= -n
                for m, a in enumerate(row, start=d // 2):
                    total[m] += weight * a
                continue
            if k % 2 == 0:  # C a_{i, m-(d+1)/2} / n^2
                for m, a in enumerate(row, start=(d + 1) // 2):
                    total[m] += weight * a
            weight *= n * n  # C a_{i, m-(d-1)/2}
            for m, a in enumerate(row, start=(d - 1) // 2):
                total[m] += weight * a
        divisor = -n * k * lcm * _c_numerator(n, k, 0, fact, falling)
        level = [Fraction(2 * t, divisor) for t in total[1:]]
        den = math.lcm(*(f.denominator for f in level))
        rows.append([den, *(f.numerator * (den // f.denominator)
                            for f in level)])
        inner.update(((k, m), f) for m, f in enumerate(level, start=1))
    return AlphaTable(n=n, kmax=kmax, inner=inner)


def ansatz_constraint_system(n: int, delta: RationalLike) -> ConstraintSystem:
    """Constraints from substituting e^(beta*r) * sum c_k r^k into the
    difference equation, one row per power r^j.

    Row j, column k (1-based): C(k,j) delta^(k-j) (q + (-1)^(k-j)/q)/2,
    plus delta**2 on k = j+1 and -mu on k = j; all exact in Q(sqrt(D)).
    The symmetric/antisymmetric step factors reduce exactly to mu and
    -delta/n.  They are formed from q and 1/q = mu + t as surds, then read
    once, with mu, as the field's integers (`_StateField.parts`); each
    entry is summed on those integers over one denominator and built as
    one surd of the field.
    """
    _index(n, "state index", 1)
    delta = _step(delta)
    ed = _state(n, delta)
    field = ed.field
    q_inv = ed.mu + ed.t  # exact inverse of q
    half_sum = field.parts((ed.q + q_inv) / 2)    # equals mu
    half_diff = field.parts((ed.q - q_inv) / 2)   # equals -delta/n
    ma, mb, mc = field.parts(ed.mu)
    dn, dd = delta.numerator, delta.denominator
    zero = field.surd(0, 0, 1)
    rows = []
    for j in range(0, n + 1):
        row = [zero] * max(j - 1, 0)  # C(k,j) = 0 for k < j
        for k in range(max(j, 1), n + 1):
            e = k - j
            wa, wb, wc = half_sum if e % 2 == 0 else half_diff
            f = math.comb(k, j) * dn ** e
            a, b, c = f * wa, f * wb, dd ** e * wc
            if e == 1:  # + delta**2, with c = dd wc
                a, b, c = a * dd + dn * dn * wc, b * dd, c * dd
            elif e == 0:  # - mu
                a, b, c = a * mc - ma * c, b * mc - mb * c, c * mc
            row.append(field.surd(a, b, c))
        rows.append(tuple(row))
    return ConstraintSystem(n=n, delta=delta, rows=tuple(rows))


def solve_constraint_system(system: ConstraintSystem) -> tuple[QuadraticSurd, ...]:
    """Exact solve by back-substitution, returned as alpha_1..alpha_n with
    alpha_n = 1.

    With q + 1/q = 2 mu and q - 1/q = -2 delta/n, row j, column k is
    C(k,j) delta^(k-j) w_(k-j) + delta**2 [k = j+1] - mu [k = j], where
    w is mu for even k-j and -delta/n for odd k-j.  So the entries with
    k < j vanish (C(k,j) = 0), the diagonal k = j is mu - mu = 0, and the
    superdiagonal k = j+1 is (j+1) delta (-delta/n) + delta**2
    = delta**2 (1 - (j+1)/n): nonzero for j <= n-2, zero for j = n-1.
    Rows n-1 and n therefore vanish, and rows 0..n-2 are strictly upper
    triangular with a nonzero superdiagonal, so the solutions form one
    line.  Fixing c_n = ell_n (alpha_n = 1), row j gives, for
    j = n-2 down to 0,

        c_(j+1) = -(sum_{k>j+1} row_j[k] c_k) / row_j[j+1],

    and alpha_k = c_k/ell_k.  Each premise is checked exactly before the
    solve; a failed one raises ArithmeticError naming its row and column.
    """
    n = system.n
    rows = system.rows
    if len(rows) != n + 1 or any(len(row) != n for row in rows):
        raise ArithmeticError(
            f"expected {n + 1} rows of {n} entries for n={n}")
    for j, row in enumerate(rows):
        for k in range(1, min(j + 1, n) + 1):
            # on and below the diagonal, zero; at k = j+1, zero only in row n-1
            vanishes = k <= j or j == n - 1
            if vanishes != row[k - 1].is_zero():
                raise ArithmeticError(
                    f"row {j}, column {k} is {row[k - 1]} for n={n}, "
                    f"delta={system.delta}; expected "
                    f"{'zero' if vanishes else 'nonzero'}")
    ell = laguerre_ref(n).coefficients
    c = {n: as_surd(ell[n])}
    for j in range(n - 2, -1, -1):
        row = rows[j]
        tail = sum((row[k - 1] * c[k] for k in range(j + 2, n + 1)),
                   as_surd(0))
        c[j + 1] = -tail / row[j]
    return tuple(c[k] / ell[k] for k in range(1, n + 1))


def _horner(pairs: tuple[tuple[int, int], ...], k: int) -> tuple[int, int]:
    """sum_j (a_j + b_j sqrt(p)) k^j, j >= 1, as a pair, from the highest
    degree down."""
    a = b = 0
    for ca, cb in pairs:
        a = a * k + ca
        b = b * k + cb
    return a * k, b * k


def wavefunction(n: int, delta: RationalLike, k: int) -> QuadraticSurd:
    """Exact lattice eigenfunction value u^n_k at grid point r = k*delta.

    q^k is a fresh power, the reference for the running product of
    `wavefunction_values`.
    """
    _index(k, "grid index", 1)
    ed = eigen_data(n, delta)
    pairs, den = ed.polynomial
    return ed.field.surd(*_horner(pairs, k), den) * surd_pow(ed.q, k)


def _wavefunction_row(n: int, delta: RationalLike, kmax: int
                      ) -> tuple[_StateField, int, Iterator[tuple[int, int]]]:
    """The state's field, den and the pairs H(k) = (Horner(a)(k),
    Horner(b)(k)) for k = 1..kmax, with u_k = H(k) q^k/den in the field
    (see `EigenData.polynomial`).  n, delta and kmax are checked here,
    before any pair is formed."""
    _index(kmax, "kmax", 0)
    ed = eigen_data(n, delta)
    pairs, den = ed.polynomial
    return ed.field, den, (_horner(pairs, k) for k in range(1, kmax + 1))


def _wavefunction_integers(n: int, delta: RationalLike,
                           kmax: int) -> Iterator[tuple[int, int, int]]:
    """u^n_1, ..., u^n_kmax as the field's integers (a, b, den td^k),
    formed by the field's `q_integers` from the pairs H(k), as
    `wavefunction_floats` rounds them."""
    field, den, row = _wavefunction_row(n, delta, kmax)
    return field.q_integers(row, den)


def wavefunction_values(n: int, delta: RationalLike,
                        kmax: int) -> Iterator[QuadraticSurd]:
    """u^n_1, ..., u^n_kmax in one pass, equal to `wavefunction` at each k.

    Read from one integer stream, one surd per k; no value is kept once
    the caller has moved past it.
    """
    integers = _wavefunction_integers(n, delta, kmax)
    return starmap(eigen_data(n, delta).field.surd, integers)


def wavefunction_floats(n: int, delta: RationalLike,
                        kmax: int) -> Iterator[float]:
    """The doubles nearest to u^n_1, ..., u^n_kmax, rounded by the field's
    `q_floats` from the small pairs H(k), with no exact power of q and no
    surd built."""
    field, den, row = _wavefunction_row(n, delta, kmax)
    return field.q_floats(row, den)


def wavefunction_float(n: int, delta: RationalLike,
                       r: RationalLike | float) -> float:
    """Float evaluation of u_n^(delta)(r) at arbitrary real r >= 0.

    r is exact (an int, a Fraction, or a float, which is a dyadic
    rational), so the bundle's
    `polynomial` is evaluated at k = r/delta = kn/kd by integer Horner as
    (A + B sqrt(p))/C, with no cancellation in doubles.  That value times
    2**-e2, e2 its binary exponent, is rounded once by the field's
    `to_float`, and u = f exp(e2 ln 2 + beta r) with
    beta = -arsinh(t)/delta, so neither factor leaves the double range
    where u does not.  An r beyond the double range is rejected like an
    infinite one.
    """
    _real(r, "r")
    if not 0 <= r <= sys.float_info.max:
        raise ValueError(f"r must be finite and >= 0, got {r}")
    ed = eigen_data(n, delta)
    pairs, den = ed.polynomial
    kn, kd = (Fraction(r) / ed.delta).as_integer_ratio()
    # sum_j (a_j + b_j sqrt(p)) kn^j kd^(n-j) over den kd^n
    a, b = _horner(tuple((ca * kd ** i, cb * kd ** i)
                         for i, (ca, cb) in enumerate(pairs)), kn)
    c = den * kd ** ed.n
    e2 = max(a.bit_length(), b.bit_length() + ed.field.p.bit_length() // 2
             ) - c.bit_length()
    f = ed.field.to_float(a << max(-e2, 0), b << max(-e2, 0), c << max(e2, 0))
    beta = -math.asinh(float(ed.t)) / float(ed.delta)
    return f * math.exp(e2 * math.log(2) + beta * float(r))


def residual_row(u_prev, u_here, u_next, k: int, delta, mu):
    """Row k of the difference equation,
    u_{k-1}/2 + u_{k+1}/2 + (delta/k) u_k - mu u_k, in the entries' type."""
    return u_prev / 2 + u_next / 2 + u_here * (delta / k) - mu * u_here


def difference_residual(n: int, delta: RationalLike, k: int) -> QuadraticSurd:
    """Exact residual u_{k-1}/2 + u_{k+1}/2 + delta*u_k/k - mu*u_k.

    Zero for every row of the closed-form eigenfunction (u_0 = 0).
    """
    _index(k, "grid index", 1)
    delta = _step(delta)
    ed = eigen_data(n, delta)
    u_prev = wavefunction(n, delta, k - 1) if k >= 2 else as_surd(0)
    u_here = wavefunction(n, delta, k)
    u_next = wavefunction(n, delta, k + 1)
    return residual_row(u_prev, u_here, u_next, k, delta, ed.mu)
