import math
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from hydrogrid import coordinate, numerics
from hydrogrid.coordinate import (
    AlphaTable,
    alpha_inner,
    ansatz_constraint_system,
    c_coeff,
    continuum_energy,
    difference_residual,
    eigen_data,
    laguerre_ref,
    solve_constraint_system,
    wavefunction,
    wavefunction_float,
    wavefunction_floats,
    wavefunction_values,
)
from hydrogrid.numerics import (MixedRadicandError, QuadraticSurd, as_surd,
                                floats_close, surd_pow, surd_to_float)
from hydrogrid.pollaczek import mass_point
from hydrogrid.spectral import closed_form_vector
from hydrogrid.verify import _check_difference_residual

DELTAS = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def continuum_u(n, r):
    """The continuum solution u_n(r) = e^(-r/n) sum_k ell_k r^k in floats."""
    poly = sum(float(c) * r ** k
               for k, c in laguerre_ref(n).coefficients.items())
    return poly * math.exp(-r / n)


def difference0_residual(u, r, delta, energy):
    """Float residual of the original difference equation for any candidate
    function: -(u(r-d) - 2u(r) + u(r+d))/(2 d**2) - u(r)/r - E u(r)."""
    second = (u(r - delta) - 2.0 * u(r) + u(r + delta)) / (2.0 * delta * delta)
    return -second - u(r) / r - energy * u(r)


def test_eigen_data_n1_delta1():
    ed = eigen_data(1, 1)
    assert ed.mu == QuadraticSurd(0, 1, 2)
    assert ed.E == QuadraticSurd(1, -1, 2)
    assert ed.q == QuadraticSurd(-1, 1, 2)
    assert floats_close(float(ed.E), -0.41421356237309504)


def test_eigen_data_small_delta_energy():
    # series oracle: E = -1/(2n^2) + delta^2/(8n^4) + O(delta^4)
    ed = eigen_data(1, Fraction(1, 10))
    assert floats_close(float(ed.E), -0.49875621120890270, rel_tol=1e-12)
    series = -0.5 + 0.01 / 8
    assert abs(float(ed.E) - series) < 1e-5


def test_eigen_data_invariants_exact():
    for delta in DELTAS:
        for n in range(1, 13):
            ed = eigen_data(n, delta)
            t = delta / n
            assert ed.mu * ed.mu - t * t == 1
            assert -delta * delta * ed.E + 1 == ed.mu
            assert ed.q * (ed.mu + t) == 1


def test_eigen_data_rejects_bad_input():
    with pytest.raises(ValueError):
        eigen_data(0, 1)
    with pytest.raises(ValueError):
        eigen_data(2, 0)


@pytest.mark.parametrize("n", [True, False, 1.0, 2.5, "1"])
def test_eigen_data_rejects_a_state_index_that_is_not_an_int(n):
    # a bool or float index used to reach the cached bundle: True cached
    # state 1 under n = True, and a warm cache answered 1.0 with state 1
    delta = Fraction(7, 11)
    with pytest.raises(TypeError, match="state index must be int"):
        eigen_data(n, delta)
    ed = eigen_data(1, delta)
    assert type(ed.n) is int
    with pytest.raises(TypeError, match="state index must be int"):
        eigen_data(n, delta)
    assert eigen_data(1, delta) is ed


@pytest.mark.parametrize("bad", [True, False, 1.0, 0.0, "1"])
@pytest.mark.parametrize("call", [
    lambda bad, d: alpha_inner(bad, 0).assembled(0, d),
    lambda bad, d: alpha_inner(1, bad).assembled(0, d),
    lambda bad, d: c_coeff(bad, 0, 0),
    lambda bad, d: c_coeff(1, bad, 0),
    lambda bad, d: c_coeff(1, 0, bad),
])
def test_coefficient_tables_reject_an_index_that_is_not_an_int(call, bad):
    # alpha_inner(True, 0).assembled(0, 1/2) used to cache state 1 under
    # n = True, and a warm cache answered a float or bool index with the
    # int entry; the index is rejected before any table is built
    delta = Fraction(5, 17)
    with pytest.raises(TypeError, match="must be int"):
        call(bad, delta)
    assert type(eigen_data(1, delta).n) is int
    alpha_inner(1, 0), c_coeff(1, 0, 0)
    with pytest.raises(TypeError, match="must be int"):
        call(bad, delta)
    assert type(alpha_inner(1, 0).n) is int


@pytest.mark.parametrize("index", [True, False, 3.0, 2.5, "1"])
def test_grid_indices_must_be_ints(index):
    # wavefunction(1, 1/2, True) used to return u_1, and
    # wavefunction_values(1, 1/2, True) yielded one value
    delta = Fraction(1, 2)
    for pointwise in (wavefunction, difference_residual):
        with pytest.raises(TypeError, match="grid index must be int"):
            pointwise(2, delta, index)
    for stream in (wavefunction_values, wavefunction_floats):
        with pytest.raises(TypeError, match="kmax must be int"):
            stream(2, delta, index)


@pytest.mark.parametrize("delta", [Fraction(-1), Fraction(-1, 2)])
@pytest.mark.parametrize("entry", [
    lambda d: eigen_data(1, d),
    lambda d: wavefunction(1, d, 3),
    lambda d: list(wavefunction_values(1, d, 3)),
    lambda d: ansatz_constraint_system(2, d),
    lambda d: closed_form_vector(1, d, 3),
    lambda d: mass_point(0, d),
    lambda d: alpha_inner(3, 2).assembled(0, d),
    lambda d: alpha_inner(3, 2).assembled(1, d),
], ids=["eigen_data", "wavefunction", "wavefunction_values",
        "ansatz_constraint_system", "closed_form_vector", "mass_point",
        "assembled-even-k", "assembled-odd-k"])
def test_negative_delta_rejected(entry, delta):
    with pytest.raises(ValueError):
        entry(delta)


def test_continuum_energy():
    assert continuum_energy(2) == Fraction(-1, 8)
    assert continuum_energy(1) == Fraction(-1, 2)


def test_laguerre_ref_small_n():
    assert dict(laguerre_ref(1).coefficients) == {1: Fraction(1)}
    assert dict(laguerre_ref(2).coefficients) == {1: Fraction(1),
                                                  2: Fraction(-1, 2)}
    assert laguerre_ref(3).coefficients[2] == Fraction(-2, 3)
    for n in range(1, 10):
        assert laguerre_ref(n).coefficients[1] == 1


def test_laguerre_ref_evaluates_ground_state():
    for r in (0.3, 1.0, 2.5):
        assert floats_close(continuum_u(1, r), r * math.exp(-r))


def test_c_coeff_values():
    for n in (0, 1, 4, 9):
        assert c_coeff(n, 0, 0) == 1
    assert c_coeff(3, 1, 1) == -18
    with pytest.raises(ValueError):
        c_coeff(2, 1, 2)
    with pytest.raises(ValueError):
        c_coeff(3, -1, 0)


def test_c_coeff_and_laguerre_ref_equal_their_factor_by_factor_products():
    # both build one Fraction from integers; the references multiply the
    # factors of their docstrings one Fraction at a time
    f = math.factorial
    for n in range(25):
        for k in range(n + 1):
            prod = math.prod(range(n - k, n))  # prod_{m=1..k} (n - m)
            for l in range(n - k + 1):
                assert c_coeff(n, k, l) == (
                    Fraction(-n, 2) ** k * prod
                    * Fraction(f(n), f(k) * f(l) * f(n - k - l)))
    for n in range(1, 40):
        assert laguerre_ref(n).coefficients == {
            k: Fraction(-2, n) ** (k - 1) / f(k) * math.comb(n - 1, k - 1)
            for k in range(1, n + 1)}


@pytest.mark.parametrize("n", range(3, 13))
def test_alpha_inner_leading_terms(n):
    table = alpha_inner(n, min(4, n - 1))
    assert table.inner_coeff(2, 1) == Fraction(3 * n - 1, 3 * n * n * (n - 1))
    if n >= 4:
        assert table.inner_coeff(3, 1) == Fraction(1, n * (n - 2))
    if n >= 5:
        assert table.inner_coeff(4, 1) == Fraction(2 * (n - 1), n * n * (n - 3))
        assert table.inner_coeff(4, 2) == Fraction(
            15 * n ** 3 - 30 * n ** 2 + 5 * n + 2,
            15 * n ** 4 * (n - 1) * (n - 2) * (n - 3))


@pytest.mark.parametrize("n", range(5, 13))
def test_alpha_order_normalized_leading_forms(n):
    table = alpha_inner(n, 4)
    assert table.order_normalized(2, 1) == Fraction(3 * n - 1, 3)
    assert table.order_normalized(3, 1) == n
    assert table.order_normalized(4, 1) == n - 1


def test_alpha_order_normalized_rejects_unnormalized_orders():
    table = alpha_inner(6, 5)
    for k, m in ((2, 0), (3, 2), (4, 3)):
        with pytest.raises(ValueError):
            table.order_normalized(k, m)


def test_alpha_inner_base_row_and_impossible_entries():
    table = alpha_inner(6, 5)
    for k in range(6):
        assert table.inner_coeff(k, 0) == 1
    assert table.inner_coeff(3, 2) == 0
    assert table.inner_coeff(2, 5) == 0


def test_alpha_table_rejects_rows_outside_the_table():
    table = alpha_inner(5, 2)
    with pytest.raises(ValueError, match="kmax"):
        table.inner_coeff(3, 1)
    with pytest.raises(ValueError, match="kmax"):
        table.order_normalized(3, 1)
    for k in (3, -1, -2):
        with pytest.raises(ValueError, match="table range"):
            table.assembled(k, Fraction(1, 2))
    # impossible m (m = -1, m > k//2) stay zero, since the level recursion
    # reads them; so do rows k < 0, which it never reads
    assert table.inner_coeff(-1, 0) == 0
    assert table.inner_coeff(-2, 1) == 0
    assert table.inner_coeff(2, 2) == 0
    assert table.inner_coeff(2, -1) == 0


@pytest.mark.parametrize("bad", [True, False, 2.0, 3.0, "2"],
                         ids=["True", "False", "2.0", "3.0", "str"])
@pytest.mark.parametrize("name, call", [
    ("k", lambda table, v: table.inner_coeff(v, 0)),
    ("m", lambda table, v: table.inner_coeff(4, v)),
    ("k", lambda table, v: table.order_normalized(v, 1)),
    ("m", lambda table, v: table.order_normalized(4, v)),
    ("k", lambda table, v: table.assembled(v, Fraction(1, 2))),
], ids=["inner_coeff-k", "inner_coeff-m", "order_normalized-k",
        "order_normalized-m", "assembled-k"])
def test_alpha_table_methods_take_only_int_indices(name, call, bad):
    # inner_coeff(2.0, 1) returned the entry 17/540, inner_coeff(True, 0)
    # returned 1, order_normalized(4, True) returned 5, assembled(True, 1/2)
    # returned alpha for k = 1, and order_normalized(2.0, 1) and
    # assembled(3.0, 1/2) leaked math's "cannot be interpreted" message
    with pytest.raises(TypeError, match=f"^{name} must be int, got "):
        call(alpha_inner(6, 5), bad)


def test_alpha_inner_rejects_kmax_beyond_n():
    with pytest.raises(ValueError):
        alpha_inner(4, 4)


@pytest.mark.parametrize("n", range(1, 13))
def test_bundle_alpha_table_holds_every_smaller_table(n):
    # verify's order-normalized diagnostic reads the bundle's table for
    # k <= min(kmax, n - 1) in place of alpha_inner(n, min(kmax, n - 1)).
    table = eigen_data(n, Fraction(1, 2)).alpha_table
    assert table == alpha_inner(n, n - 1)
    for kmax in range(n):
        small = alpha_inner(n, kmax).inner
        assert small == {key: v for key, v in table.inner.items()
                         if key[0] <= kmax}


def _c_or_zero(n, k, l):
    if k < 0 or l < 0 or n - k - l < 0:
        return Fraction(0)
    return c_coeff(n, k, l)


def two_branch_alpha_inner(n, kmax):
    """The level recursion as two branches, one per parity of k, with
    three sums for even k and two for odd k, zero C coefficients for
    out-of-range indices and a zero-divisor check: the reference for
    `alpha_inner`'s one parity rule."""
    inner = {}
    get = AlphaTable(n=n, kmax=kmax, inner=inner).inner_coeff
    for k in range(0, kmax + 1):
        inner[(k, 0)] = Fraction(1)
        kp = k // 2
        if kp == 0:
            continue
        denom = _c_or_zero(n, k, 1) / n - _c_or_zero(n, k, 0)
        for m in range(1, kp + 1):
            if denom == 0:
                raise ArithmeticError(f"zero divisor at n={n}, k={k}")
            if k % 2 == 0:
                t1 = sum(_c_or_zero(n, 2 * l, k + 1 - 2 * l)
                         * get(2 * l, l + m - kp)
                         for l in range(kp - m, kp)) / n
                t2 = sum(_c_or_zero(n, 2 * l + 1, k - 2 * l)
                         * get(2 * l + 1, l + m - kp + 1)
                         for l in range(kp - m - 1, kp))
                t3 = sum(_c_or_zero(n, 2 * l + 1, k - 2 * l)
                         * get(2 * l + 1, l + m - kp)
                         for l in range(kp - m, kp)) / (n * n)
                inner[(k, m)] = (-t1 + t2 + t3) / denom
            else:
                t1 = sum(_c_or_zero(n, 2 * l + 1, k - 2 * l)
                         * get(2 * l + 1, l + m - kp)
                         for l in range(kp - m, kp)) / n
                t2 = sum(_c_or_zero(n, 2 * l, k + 1 - 2 * l)
                         * get(2 * l, l + m - kp)
                         for l in range(kp - m, kp + 1))
                inner[(k, m)] = (-t1 + t2) / denom
    return inner


def test_alpha_inner_equals_two_branch_reference():
    for n in (*range(1, 41), 48, 60):
        assert alpha_inner(n, n - 1).inner == two_branch_alpha_inner(n, n - 1)


def test_order_normalized_equals_its_fraction_product():
    for n in range(1, 31):
        table = alpha_inner(n, n - 1)
        for k in range(n):
            for m in range(1, k // 2 + 1):
                assert table.order_normalized(k, m) == (
                    table.inner_coeff(k, m) * n ** (2 * m)
                    * Fraction(math.factorial(n - k + 2 * m - 1),
                               math.factorial(n - k))
                    / math.comb(k // 2, m))


def test_level_divisor_is_nonzero():
    # C(n,k,1)/C(n,k,0) = n - k, so the divisor is -(k/n) C(n,k,0), and
    # C(n,k,0) holds prod_{m<=k}(n - m), nonzero for k <= n - 1
    for n in range(3, 80):
        for k in range(2, n):
            divisor = c_coeff(n, k, 1) / n - c_coeff(n, k, 0)
            assert divisor == -Fraction(k, n) * c_coeff(n, k, 0) != 0


def test_alpha_assemble_examples():
    table = alpha_inner(3, 2)
    assert table.assembled(0, 1) == 1
    assert table.assembled(1, 1) == eigen_data(3, 1).mu
    assert table.assembled(2, 1) == Fraction(31, 27)


def test_alpha_assemble_parity_structure():
    table = alpha_inner(7, 6)
    for delta in DELTAS:
        for k in range(7):
            value = table.assembled(k, delta)
            if k % 2 == 0:
                assert value.is_rational()
            else:
                assert value.D == 1 + (delta / 7) ** 2


def test_ansatz_rows_for_top_powers_vanish():
    for n in (2, 4, 7):
        system = ansatz_constraint_system(n, Fraction(1, 2))
        for row in (system.rows[n], system.rows[n - 1]):
            assert all(c.is_zero() for c in row)


def test_ansatz_n1_vacuous():
    system = ansatz_constraint_system(1, 1)
    assert solve_constraint_system(system) == (QuadraticSurd(1),)


def test_ansatz_n2_ratio_is_mu():
    system = ansatz_constraint_system(2, 1)
    alphas = solve_constraint_system(system)
    assert alphas[1] == 1
    assert alphas[0] == eigen_data(2, 1).mu


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(1), Fraction(3, 4)])
@pytest.mark.parametrize("n", [*range(1, 9), 16, 24])
def test_ansatz_solution_matches_alpha_tables(n, delta):
    solved = solve_constraint_system(ansatz_constraint_system(n, delta))
    table = alpha_inner(n, n - 1)
    expected = tuple(table.assembled(n - j, delta) for j in range(1, n + 1))
    assert solved == expected


def reference_constraint_rows(n, delta):
    """The constraint rows summed entry by entry on surds and Fractions,
    the form `ansatz_constraint_system` must reproduce."""
    ed = eigen_data(n, delta)
    q_inv = ed.mu + ed.t
    half_sum = (ed.q + q_inv) / 2
    half_diff = (ed.q - q_inv) / 2
    rows = []
    for j in range(0, n + 1):
        row = []
        for k in range(1, n + 1):
            coef = as_surd(0)
            if k >= j:
                w = half_sum if (k - j) % 2 == 0 else half_diff
                coef = coef + math.comb(k, j) * delta ** (k - j) * w
            if k == j + 1:
                coef = coef + delta * delta
            if k == j:
                coef = coef - ed.mu
            row.append(coef)
        rows.append(tuple(row))
    return tuple(rows)


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4),
                                   Fraction(7, 3), Fraction(1, 10),
                                   Fraction(4, 3)])
def test_ansatz_system_equals_its_surd_form(delta):
    # delta = 3/4 at n = 1 is t = 3/4, p = 5**2: the field is Q
    for n in range(1, 25):
        rows = ansatz_constraint_system(n, delta).rows
        want = reference_constraint_rows(n, delta)
        assert rows == want
        # entries print in solve_constraint_system's errors
        assert [list(map(str, row)) for row in rows] == \
            [list(map(str, row)) for row in want]


def test_ansatz_system_builds_one_surd_per_entry(monkeypatch):
    # Each entry is summed on the field's integers and built once by the
    # trusted constructor, which the numerics code calls by its global
    # name; the cold bundle and the derivation from q add a few more.
    built = []
    original = numerics._make

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(numerics, "_make", counting)
    for n in (1, 2, 7, 16):
        coordinate._state.cache_clear()
        built.clear()
        ansatz_constraint_system(n, Fraction(3, 4))
        assert len(built) <= n * (n + 1) + 8


def _with_entry(system, j, k, value):
    """The system with row j, column k (1-based) replaced by value."""
    rows = [list(row) for row in system.rows]
    rows[j][k - 1] = QuadraticSurd(value)
    return system._replace(rows=tuple(tuple(row) for row in rows))


@pytest.mark.parametrize("n", [6, 8])
@pytest.mark.parametrize("j, k, value", [
    (3, 2, Fraction(1, 7)),   # below the diagonal
    (3, 3, Fraction(1, 7)),   # on the diagonal
    (-2, 4, 1),               # row n-1
    (-1, 5, 1),               # row n
    (2, 3, 0),                # the superdiagonal pivot of row 2
], ids=["below-diagonal", "diagonal", "row-n-1", "row-n", "zero-pivot"])
def test_constraint_solve_rejects_broken_structure(n, j, k, value):
    system = ansatz_constraint_system(n, Fraction(1, 2))
    j %= n + 1
    with pytest.raises(ArithmeticError, match=f"row {j}, column {k} "):
        solve_constraint_system(_with_entry(system, j, k, value))


def test_constraint_solve_rejects_wrong_shape():
    system = ansatz_constraint_system(4, Fraction(1, 2))
    with pytest.raises(ArithmeticError, match="5 rows of 4 entries"):
        solve_constraint_system(system._replace(rows=system.rows[:-1]))


def test_wavefunction_n1_closed_form():
    q = eigen_data(1, 1).q
    for k in (1, 2, 5, 9):
        assert wavefunction(1, 1, k) == k * surd_pow(q, k)


def test_wavefunction_rejects_bad_grid_index():
    with pytest.raises(ValueError):
        wavefunction(2, 1, 0)
    with pytest.raises(ValueError, match="kmax"):
        wavefunction_values(1, 1, -5)
    assert list(wavefunction_values(1, 1, 0)) == []


def test_wavefunction_float_at_origin():
    for n in (1, 3, 5):
        assert wavefunction_float(n, Fraction(1, 2), 0.0) == 0.0


@pytest.mark.parametrize("r", [-3.0, -1e-300, math.nan, math.inf, -math.inf])
def test_wavefunction_float_rejects_r_outside_domain(r):
    with pytest.raises(ValueError, match="r must be finite and >= 0"):
        wavefunction_float(2, 1, r)


def test_wavefunction_float_matches_exact_grid_values():
    for n in (1, 2, 4):
        for delta in DELTAS:
            for k in (1, 2, 6):
                exact = float(wavefunction(n, delta, k))
                approx = wavefunction_float(n, delta, float(k * delta))
                assert floats_close(exact, approx, rel_tol=1e-9, abs_tol=1e-12)


def test_wavefunction_float_underflows_at_a_large_r():
    # r ** j overflowed here, though exp(beta r) is 0.0 long before
    assert wavefunction_float(2, 1, 1e300) == 0.0
    # an int beyond the double range is out of the domain, like inf
    with pytest.raises(ValueError, match="r must be finite and >= 0"):
        wavefunction_float(2, 1, 10 ** 400)


@pytest.mark.parametrize("k", [400, 1600])
def test_wavefunction_float_matches_far_grid_values(k):
    delta = Fraction(1, 2)
    exact = float(wavefunction(3, delta, k))
    approx = wavefunction_float(3, delta, float(k * delta))
    assert floats_close(exact, approx, rel_tol=1e-9, abs_tol=0.0)


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(7, 3),
                                   Fraction(1, 100), Fraction(10 ** 20)],
                         ids=str)
def test_wavefunction_floats_round_as_the_exact_stream(delta):
    # at 10**20 the first grid points of n >= 3 cancel past the kernel's
    # guard bits and take its exact fallback, and every value from k = 17
    # on underflows, so that sweep stops at k = 60
    kmax = 60 if delta > 1 else 300
    for n in range(1, 9):
        field = eigen_data(n, delta).field
        assert [x.hex() for x in wavefunction_floats(n, delta, kmax)] == [
            field.to_float(*u).hex()
            for u in coordinate._wavefunction_integers(n, delta, kmax)]


@pytest.mark.parametrize("n", [8, 16, 20, 30])
def test_wavefunction_float_is_accurate_up_to_n_30(n):
    # the monomial sum in doubles cancelled: 5.4e-12 relative at n = 8,
    # 4.7e-6 at n = 20 and 3.1e-2 at n = 30 on this grid
    delta = Fraction(1, 2)
    exact = list(wavefunction_floats(n, delta, 40 * n - 1))
    for k in range(1, 40 * n, 7):
        approx = wavefunction_float(n, delta, float(k * delta))
        assert floats_close(exact[k - 1], approx, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("n, r, exact", [(40, 1000.0, 1.8239388949708497),
                                         (90, 8100.0, -3.5899410930587514)])
def test_wavefunction_float_at_a_high_state(n, r, exact):
    # 191.64 was returned at n = 40, and n = 90 raised OverflowError
    assert float(wavefunction(n, 1, int(r))) == exact
    assert floats_close(wavefunction_float(n, 1, r), exact, rel_tol=1e-12,
                        abs_tol=0.0)


def test_wavefunction_small_delta_tends_to_continuum():
    # continuum limit oracle: u_1(r) = r e^{-r}
    delta = Fraction(1, 100)
    for r in (0.5, 1.0, 2.0):
        lattice = wavefunction_float(1, delta, r)
        continuum = r * math.exp(-r)
        assert abs(lattice - continuum) < 5e-5 * continuum + 1e-12


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("n", range(1, 13))
def test_difference_residual_exactly_zero(n, delta):
    for k in range(1, 41):
        assert difference_residual(n, delta, k).is_zero()


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("n", [1, 2, 5])
def test_wavefunction_values_equal_pointwise(n, delta):
    assert list(wavefunction_values(n, delta, 30)) \
        == [wavefunction(n, delta, k) for k in range(1, 31)]


def test_wavefunction_values_empty_for_no_rows():
    assert list(wavefunction_values(3, 1, 0)) == []


def fraction_polynomial(n, delta, k):
    """sum_j alpha_j ell_j (k delta)^j in Fraction arithmetic over each
    coefficient's parts a + b sqrt(D): the reference for the integer
    stream, independent of its common denominator and its pairs."""
    table = alpha_inner(n, n - 1)
    ell = laguerre_ref(n).coefficients
    parts = [(c.a, c.b) for c in (table.assembled(n - j, delta) * ell[j]
                                  for j in range(1, n + 1))]
    r = k * delta
    a = b = Fraction(0)
    power = Fraction(1)
    for ca, cb in parts:
        power *= r
        a += ca * power
        b += cb * power
    return QuadraticSurd(a, b, eigen_data(n, delta).mu.D)


def assert_stream_matches_reference(n, delta, kmax):
    q = eigen_data(n, delta).q
    exact = list(wavefunction_values(n, delta, kmax))
    assert exact == [fraction_polynomial(n, delta, k) * surd_pow(q, k)
                     for k in range(1, kmax + 1)]
    assert wavefunction(n, delta, kmax) == exact[-1]
    # bit for bit, signed zeros included
    assert [x.hex() for x in wavefunction_floats(n, delta, kmax)] \
        == [surd_to_float(u).hex() for u in exact]
    return exact


@settings(max_examples=60, deadline=None)
@given(r=st.integers(1, 40), s=st.integers(1, 40), n=st.integers(1, 10),
       kmax=st.integers(1, 60))
def test_wavefunction_stream_equals_fraction_reference(r, s, n, kmax):
    assert_stream_matches_reference(n, Fraction(r, s), kmax)


@pytest.mark.parametrize("n, delta", [(1, Fraction(3, 4)),
                                      (2, Fraction(3, 2))])
def test_wavefunction_stream_over_a_perfect_square(n, delta):
    # t = delta/n = 3/4 gives p = 4**2 + 3**2 = 25: sqrt(p) folds into the
    # integers, and mu = 5/4 and q = 1/2 are rational
    assert eigen_data(n, delta).q == Fraction(1, 2)
    exact = assert_stream_matches_reference(n, delta, 60)
    assert all(u.is_rational() for u in exact)


@pytest.mark.parametrize("n, delta", [(3, Fraction(1, 2)),
                                      (3, Fraction(9, 4))])
def test_integer_streams_are_written_over_the_field_of_mu(n, delta):
    # the wavefunction stream and the closed-form sequence both read the
    # bundle's one field: an irrational value is written over the r and s
    # of mu itself, and the running q-power is q^k exactly
    ed = eigen_data(n, delta)
    field = ed.field
    assert field is ed.field is mass_point(n - 1, delta).field
    powers = [field.surd(*num, den)
              for num, den in islice(field.q_powers(), 61)]
    assert powers == [surd_pow(ed.q, k) for k in range(61)]
    sequence = mass_point(n - 1, delta).sequence
    values = [*wavefunction_values(n, delta, 60), *powers,
              *(sequence.value(j) for j in range(61))]
    irrational = [v for v in values if not v.is_rational()]
    if delta == Fraction(9, 4):  # t = 3/4: p = 25, mu = 5/4
        assert ed.mu == Fraction(5, 4)
        assert not irrational
    else:
        assert len(irrational) > 150
        assert all((v._r, v._s) == (ed.mu._r, ed.mu._s) for v in irrational)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8),
       st.fractions(min_value=0, max_value=4, max_denominator=12))
@example(4, Fraction(3))  # t = 3/4: p = 25 is a square, mu = 5/4
@example(1, Fraction(0))  # the Chebyshev limit: mu = q = 1
def test_each_state_is_built_from_n_and_delta(n, delta):
    # mass_point reaches delta = 0; the bundle derives t, the field, mu
    # and q itself, and every value of it is stored as the field's integers
    ed = mass_point(n - 1, delta)
    t = delta / n
    assert ed.t == t and ed.delta == delta
    assert ed.mu * ed.mu == 1 + t * t
    assert ed.q == ed.mu - t and ed.q * (ed.mu + t) == 1
    field = ed.field
    for x in (ed.mu, ed.q, *(ed.sequence.value(j) for j in (0, 1, 5, 9))):
        assert field.surd(*field.parts(x)) == x
    p = t.denominator ** 2 + t.numerator ** 2
    root = math.isqrt(p)
    if root * root == p:
        assert ed.mu == Fraction(root, t.denominator)
    else:
        assert (ed.mu._r, ed.mu._s) == (p, t.denominator)
        assert field.parts(ed.mu) == (0, 1, t.denominator)


@pytest.mark.parametrize("d", [Fraction(5, 4), 5, 20])
def test_field_reads_a_surd_over_any_equivalent_radicand(d):
    # state 2 at delta = 1: t = 1/2, p = 5, D = 5/4; membership is by
    # value, so sqrt(5/4), sqrt(5) and sqrt(20) are all in the field
    field = eigen_data(2, 1).field
    assert field.p == 5
    y = QuadraticSurd(Fraction(1, 7), -3, d)
    assert field.surd(*field.parts(y)) == y


def test_field_rejects_a_surd_of_another_field():
    with pytest.raises(MixedRadicandError):
        eigen_data(2, 1).field.parts(QuadraticSurd(1, 1, 3))
    # state 3 at delta = 4: t = 4/3, p = 25, so the field is Q itself
    field = eigen_data(3, 4).field
    assert field.p == 25
    with pytest.raises(MixedRadicandError):
        field.parts(QuadraticSurd(0, 1, 2))
    assert field.parts(QuadraticSurd(Fraction(7, 3))) == (7, 0, 3)


@pytest.mark.parametrize("broken", [None, 1, 2, 7, 11, 12])
def test_windowed_residual_check_agrees_with_pointwise(broken, monkeypatch):
    # Entry u_broken of state 3 is perturbed (None: none is); the windowed
    # check over rows 1..10 must fail exactly when some pointwise row is
    # nonzero.  Rows 1..10 read u_1..u_11, so breaking u_12 is invisible.
    delta, k_max = Fraction(1, 2), 10
    values = {n: [QuadraticSurd(0)] + list(wavefunction_values(n, delta, 12))
              for n in (1, 2, 3)}
    if broken is not None:
        values[3][broken] += Fraction(1, 10 ** 6)

    monkeypatch.setattr("hydrogrid.coordinate.wavefunction",
                        lambda n, d, k: values[n][k])
    monkeypatch.setattr("hydrogrid.coordinate._wavefunction_integers",
                        lambda n, d, kmax: iter(
                            [eigen_data(n, d).field.parts(u)
                             for u in values[n][1:kmax + 1]]))
    pointwise = all(difference_residual(n, delta, k).is_zero()
                    for n in (1, 2, 3) for k in range(1, k_max + 1))
    assert pointwise == (broken in (None, 12))
    assert _check_difference_residual(delta, 3, k_max) == pointwise


def test_perturbed_eigenvalue_leaves_residual():
    # residual with mu shifted by 1/1000 is off by exactly shift*u_k
    n, delta, k = 2, Fraction(1), 3
    mu = eigen_data(n, delta).mu
    shift = Fraction(1, 1000)
    u_prev = wavefunction(n, delta, k - 1)
    u_here = wavefunction(n, delta, k)
    u_next = wavefunction(n, delta, k + 1)
    residual = (u_prev / 2 + u_next / 2 + u_here * (delta / k)
                - (mu + shift) * u_here)
    assert not residual.is_zero()
    assert residual == -shift * u_here


def test_difference0_residual_second_order():
    # Taylor-expansion oracle: the residual of the continuum solution is
    # O(delta^2) and shrinks by ~4 when delta halves
    u = partial(continuum_u, 2)
    energy = float(continuum_energy(2))
    for r in (0.8, 1.7, 3.0):
        coarse = difference0_residual(u, r, 0.1, energy)
        fine = difference0_residual(u, r, 0.05, energy)
        ratio = coarse / fine
        assert 3.4 < ratio < 4.6
