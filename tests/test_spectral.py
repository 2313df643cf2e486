import hashlib
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from hydrogrid import coordinate, numerics, pollaczek, spectral, verify
from hydrogrid.cli import RunConfig
from hydrogrid.coordinate import eigen_data, wavefunction, wavefunction_values
from hydrogrid.numerics import (MixedRadicandError, QuadraticSurd,
                                floats_close, surd_to_float)
from hydrogrid.pollaczek import mass_point
from hydrogrid.spectral import (
    BracketError,
    build_truncated,
    closed_form_vector,
    coordinate_ratio,
    eigen_bisection,
    eigen_residual,
    eigenvalues_between,
    exact_sturm_count,
    exp_part,
    exp_part_float_reference,
    gram_matrix,
    inner_product,
    point_spectrum_above,
    sturm_count,
)
from spectral_walks import (SOLVERS_SPECTRA, record_walks, spectrum_walks,
                            sturm_rows)

DELTAS = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def materialize(op):
    """The operator as a dense numpy matrix, the oracle for the solvers:
    diagonal delta/k, off-diagonal 1/2."""
    mat = np.zeros((op.size, op.size))
    mat[np.diag_indices(op.size)] = list(op._diag)
    idx = np.arange(op.size - 1)
    mat[idx, idx + 1] = 0.5
    mat[idx + 1, idx] = 0.5
    return mat


def test_build_small_operators():
    op = build_truncated(1, 1)
    assert materialize(op).tolist() == [[1.0]]
    op2 = build_truncated(1, 2)
    assert materialize(op2).tolist() == [[1.0, 0.5], [0.5, 0.5]]
    # diagonal delta/k, off-diagonal 1/2
    assert list(op2._diag) == [1.0, 0.5]


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        build_truncated(1, 0)


@pytest.mark.parametrize("size", [2.0, 2.5, True, "3"])
def test_build_rejects_a_size_that_is_not_an_int(size):
    # 2.0 used to build and fail at the first count; True was size 1
    with pytest.raises(TypeError, match="int"):
        build_truncated(Fraction(1, 2), size)
    with pytest.raises(TypeError, match="int"):
        spectral.TridiagonalOperator(delta=Fraction(1, 2), size=size)


@pytest.mark.parametrize("delta", ["1/2", True, None])
def test_operator_rejects_a_delta_that_is_not_exact(delta):
    with pytest.raises(TypeError, match="delta must be int, Fraction or float"):
        spectral.TridiagonalOperator(delta=delta, size=3)


def test_operator_takes_a_float_delta_at_its_exact_value():
    # a float delta used to build and count, then fail in
    # exact_sturm_count with AttributeError; it is now held exactly
    op = spectral.TridiagonalOperator(0.5, 3)
    assert op == build_truncated(0.5, 3)
    assert type(op.delta) is Fraction and op.delta == Fraction(1, 2)


def test_operator_equality_and_hash_are_by_delta_and_size():
    op = build_truncated(Fraction(1, 2), 4)
    twin = spectral.TridiagonalOperator(Fraction(1, 2), 4)
    assert op == twin and hash(op) == hash(twin)
    assert hash(op) == hash((Fraction(1, 2), 4))
    assert op != build_truncated(Fraction(1, 2), 5)
    assert op != build_truncated(Fraction(1, 3), 4)
    assert op != (Fraction(1, 2), 4)
    assert len({op, twin, build_truncated(1, 4)}) == 2
    assert repr(op) == "TridiagonalOperator(delta=Fraction(1, 2), size=4)"


@pytest.mark.parametrize("make, field", [
    (lambda: eigen_data(2, Fraction(1, 2)), "mu"),
    (lambda: eigen_data(2, Fraction(1, 2)), "sequence"),
    (lambda: coordinate.laguerre_ref(3), "coefficients"),
    (lambda: coordinate.alpha_inner(3, 2), "inner"),
    (lambda: coordinate.ansatz_constraint_system(3, Fraction(1, 2)), "rows"),
    (lambda: build_truncated(Fraction(1, 2), 4), "size"),
    (lambda: RunConfig(command="spectrum"), "delta"),
], ids=["EigenData", "EigenData-cached", "LaguerreRef", "AlphaTable",
        "ConstraintSystem", "TridiagonalOperator", "RunConfig"])
def test_value_classes_are_read_only(make, field):
    value = make()
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, None)
    with pytest.raises(AttributeError):
        delattr(value, field)
    assert getattr(value, field) is before


def test_value_classes_compare_by_value():
    delta = Fraction(1, 2)
    system = coordinate.ansatz_constraint_system(3, delta)
    assert system == coordinate.ansatz_constraint_system(3, delta)
    assert system is not coordinate.ansatz_constraint_system(3, delta)
    ref = coordinate.laguerre_ref(3)
    assert ref == coordinate.LaguerreRef(n=3, coefficients=dict(ref.coefficients))
    table = coordinate.alpha_inner(3, 2)
    assert table == coordinate.AlphaTable(3, 2, dict(table.inner))
    assert RunConfig(command="spectrum") == RunConfig("spectrum", Fraction(1))
    assert hash(RunConfig(command="verify")) == hash(RunConfig("verify"))


@pytest.mark.parametrize("bad", [True, 1.0])
@pytest.mark.parametrize("call, lo", [
    (lambda i: closed_form_vector(i, Fraction(1, 2), 3), 1),
    (lambda i: closed_form_vector(1, Fraction(1, 2), i), 1),
    (lambda i: inner_product(i, 1, Fraction(1, 2)), 1),
    (lambda i: inner_product(1, i, Fraction(1, 2)), 1),
    (lambda i: gram_matrix([i, 2], Fraction(1, 2)), 1),
    (lambda i: coordinate.laguerre_ref(i), 1),
    (lambda i: coordinate.continuum_energy(i), 1),
    (lambda i: exp_part(i, 1, Fraction(1, 2)), 0),
    (lambda i: exp_part_float_reference(i, 1, Fraction(1, 2)), 0),
    (lambda i: exp_part_float_reference(1, i, Fraction(1, 2)), 1),
    (lambda i: pollaczek.pollaczek_seq(Fraction(1, 2), Fraction(1, 3), i), 0),
    (lambda i: pollaczek.pollaczek_explicit_trig(1, 0, 0, 0.5, i), 0),
    (lambda i: pollaczek.pollaczek_trig_conjugate(1, 0, 0, 0.5, i), 0),
    (lambda i: numerics.surd_pow(QuadraticSurd(0, 1, 2), i), 0),
    (lambda i: pollaczek.chebyshev_u(i, 0.5), 0),
], ids=["closed_form_vector-n", "closed_form_vector-length",
        "inner_product-n", "inner_product-n2", "gram_matrix",
        "laguerre_ref", "continuum_energy", "exp_part",
        "exp_part_float_reference-k", "exp_part_float_reference-n",
        "pollaczek_seq",
        "pollaczek_explicit_trig", "pollaczek_trig_conjugate", "surd_pow",
        "chebyshev_u"])
def test_state_indices_must_be_ints(call, lo, bad):
    # each used to answer True with the value at 1, or fail with a
    # message from deep inside; a warm cache does not change that.  Below
    # its lower end, each states the bound and the value: pollaczek_seq
    # and surd_pow used to word it otherwise, and inner_product(0, 1, d)
    # said "mass-point index must be nonnegative"
    call(1)
    with pytest.raises(TypeError, match="must be int, got"):
        call(bad)
    with pytest.raises(ValueError, match=f"must be >= {lo}, got {lo - 1}$"):
        call(lo - 1)
    assert type(coordinate.laguerre_ref(1).n) is int


# Every entry point that takes a lattice step delta, and whether it
# accepts delta = 0 (the Chebyshev limit).
DELTA_ENTRY_POINTS = [
    ("eigen_data", lambda d: eigen_data(1, d), False),
    ("ansatz_constraint_system",
     lambda d: coordinate.ansatz_constraint_system(2, d), False),
    ("assembled", lambda d: coordinate.alpha_inner(3, 2).assembled(1, d),
     True),
    ("difference_residual",
     lambda d: coordinate.difference_residual(1, d, 1), False),
    ("mass_point", lambda d: mass_point(0, d), True),
    ("build_truncated", lambda d: build_truncated(d, 3), True),
    ("TridiagonalOperator", lambda d: spectral.TridiagonalOperator(d, 3),
     True),
    ("inner_product", lambda d: inner_product(1, 2, d), False),
    ("gram_matrix", lambda d: gram_matrix([1, 2], d), False),
    ("gram_matrix-empty", lambda d: gram_matrix([], d), False),
    ("closed_form_vector", lambda d: closed_form_vector(1, d, 3), True),
    ("coordinate_ratio", lambda d: coordinate_ratio(1, d, 3), False),
    ("run_verification", lambda d: verify.run_verification(d, 1, 2, 2),
     False),
]


@pytest.mark.parametrize("bad, error", [
    (True, TypeError), ("1/2", TypeError), (None, TypeError),
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
    (-1, ValueError), (Fraction(-1, 10**9), ValueError), (-0.5, ValueError),
], ids=["True", "str", "None", "nan", "inf", "-inf", "-1", "-1e-9", "-0.5"])
@pytest.mark.parametrize("name, call, zero_ok", DELTA_ENTRY_POINTS,
                         ids=[row[0] for row in DELTA_ENTRY_POINTS])
def test_every_delta_entry_point_checks_one_domain(name, call, zero_ok,
                                                   bad, error):
    # True and "1/2" used to be taken (a str built a second bundle for a
    # cached state), inf escaped as OverflowError, and the same rejection
    # was worded five ways
    with pytest.raises(error, match="^delta must be"):
        call(bad)


# Entry points that take delta of either sign: the type and finiteness
# half of the step check, and no sign check.
SIGNED_DELTA_ENTRY_POINTS = [
    ("pollaczek_seq",
     lambda d: pollaczek.pollaczek_seq(d, Fraction(1, 2), 2)),
    ("eigen_residual", lambda d: eigen_residual(
        closed_form_vector(1, Fraction(1, 2), 4), d,
        mass_point(0, Fraction(1, 2)).mu)),
    ("exp_part_float_reference",
     lambda d: spectral.exp_part_float_reference(1, 1, d)),
]


@pytest.mark.parametrize("bad, error", [
    (True, TypeError), ("1/2", TypeError), (None, TypeError),
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
], ids=["True", "str", "None", "nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", SIGNED_DELTA_ENTRY_POINTS,
                         ids=[row[0] for row in SIGNED_DELTA_ENTRY_POINTS])
def test_every_signed_delta_entry_point_checks_type_and_finiteness(
        name, call, bad, error):
    # True ran at delta = 1, "1/2" was parsed, and NaN and inf escaped
    # from Fraction with its own message
    with pytest.raises(error, match="^delta must be"):
        call(bad)


@pytest.mark.parametrize("name, call", SIGNED_DELTA_ENTRY_POINTS,
                         ids=[row[0] for row in SIGNED_DELTA_ENTRY_POINTS])
def test_signed_delta_entry_points_accept_a_negative_step(name, call):
    call(-1)
    call(Fraction(-1, 2))


def test_signed_delta_entry_points_take_a_float_at_its_exact_value():
    # eigen_residual(..., True, mu) used to run at delta = 1 and report 1/2
    # for an exact eigenvector
    vector = closed_form_vector(1, Fraction(1, 2), 4)
    mu = mass_point(0, Fraction(1, 2)).mu
    assert eigen_residual(vector, 0.5, mu).is_zero()
    assert (pollaczek.pollaczek_seq(0.5, Fraction(1, 3), 4)
            == pollaczek.pollaczek_seq(Fraction(1, 2), Fraction(1, 3), 4))
    assert (exp_part_float_reference(3, 2, 0.5)
            == exp_part_float_reference(3, 2, Fraction(1, 2)))


# Every real argument other than delta that takes any sign, through the
# same type-and-finiteness check, named by the argument.
REAL_ARGUMENTS = [
    ("x", lambda v: pollaczek.pollaczek_seq(Fraction(1, 2), v, 2)),
    ("x", lambda v: exact_sturm_count(build_truncated(1, 5), v)),
    ("lam", lambda v: pollaczek.pollaczek_explicit_trig(v, 0, -1, 0.5, 2)),
    ("a", lambda v: pollaczek.pollaczek_explicit_trig(1, v, -1, 0.5, 2)),
    ("b", lambda v: pollaczek.pollaczek_explicit_trig(1, 0, v, 0.5, 2)),
    ("lam", lambda v: pollaczek.pollaczek_trig_conjugate(v, 0, -1, 0.5, 2)),
    ("a", lambda v: pollaczek.pollaczek_trig_conjugate(1, v, -1, 0.5, 2)),
    ("b", lambda v: pollaczek.pollaczek_trig_conjugate(1, 0, v, 0.5, 2)),
]
REAL_ARGUMENT_IDS = ["pollaczek_seq-x", "exact_sturm_count-x",
                     "explicit_trig-lam", "explicit_trig-a", "explicit_trig-b",
                     "trig_conjugate-lam", "trig_conjugate-a",
                     "trig_conjugate-b"]


@pytest.mark.parametrize("bad, error", [
    (True, TypeError), ("1/2", TypeError), (None, TypeError),
    (math.nan, ValueError), (math.inf, ValueError), (-math.inf, ValueError),
], ids=["True", "str", "None", "nan", "inf", "-inf"])
@pytest.mark.parametrize("name, call", REAL_ARGUMENTS, ids=REAL_ARGUMENT_IDS)
def test_every_real_argument_checks_type_and_finiteness(name, call, bad,
                                                        error):
    # True ran as 1 (pollaczek_seq at x = 1, exact_sturm_count counted 4),
    # "1/2" was parsed, NaN and inf returned NaN or inf values, and a NaN
    # for a leaked "cannot convert NaN to integer ratio"
    with pytest.raises(error, match=f"^{name} must be"):
        call(bad)


# Every real argument with a range of its own (an angle, a tolerance, a
# bound, a radius): the same type check, then that range's own message.
BOUNDED_ARGUMENTS = [
    ("theta", lambda v: pollaczek.chebyshev_u(2, v)),
    ("theta", lambda v: pollaczek.pollaczek_explicit_trig(1, 0, 0, v, 2)),
    ("theta", lambda v: pollaczek.pollaczek_trig_conjugate(1, 0, 0, v, 2)),
    ("tol", lambda v: eigen_bisection(build_truncated(1, 50), (1.1, 1.2), v)),
    ("tol", lambda v: eigenvalues_between(build_truncated(1, 50), 1.0, 2.0, v)),
    ("tol", lambda v: point_spectrum_above(build_truncated(1, 50), 1.0, v)),
    ("tol", lambda v: spectral.inner_product(1, 1, Fraction(1, 2), v)),
    ("tol", lambda v: spectral.gram_matrix([1, 2], Fraction(1, 2), v)),
    ("lo", lambda v: eigen_bisection(build_truncated(1, 50), (v, 1.2), 1e-9)),
    ("hi", lambda v: eigen_bisection(build_truncated(1, 50), (1.1, v), 1e-9)),
    ("lo", lambda v: eigenvalues_between(build_truncated(1, 50), v, 2.0)),
    ("hi", lambda v: eigenvalues_between(build_truncated(1, 50), 1.0, v)),
    ("threshold", lambda v: point_spectrum_above(build_truncated(1, 50), v)),
    ("r", lambda v: coordinate.wavefunction_float(2, 1, v)),
]
BOUNDED_ARGUMENT_IDS = [
    "chebyshev_u-theta", "explicit_trig-theta", "trig_conjugate-theta",
    "eigen_bisection-tol", "eigenvalues_between-tol",
    "point_spectrum_above-tol", "inner_product-tail_tol",
    "gram_matrix-tail_tol", "eigen_bisection-lo", "eigen_bisection-hi",
    "eigenvalues_between-lo", "eigenvalues_between-hi",
    "point_spectrum_above-threshold", "wavefunction_float-r"]


@pytest.mark.parametrize("bad", [True, "1/2", None], ids=["True", "str", "None"])
@pytest.mark.parametrize("name, call", BOUNDED_ARGUMENTS,
                         ids=BOUNDED_ARGUMENT_IDS)
def test_every_bounded_real_argument_checks_its_type(name, call, bad):
    # True ran as 1: chebyshev_u(2, True) returned 0.168 and
    # eigen_bisection(op, (1.1, 1.2), True) returned 1.15 unrefined;
    # a str leaked Python's "'<' not supported between instances of"
    with pytest.raises(TypeError, match=f"^{name} must be int, Fraction or "
                                        f"float, got "):
        call(bad)


@pytest.mark.parametrize("bad", [10 ** 400, Fraction(10 ** 400),
                                 Fraction(-10 ** 401, 3)],
                         ids=["int", "Fraction", "negative-Fraction"])
@pytest.mark.parametrize("name, call", REAL_ARGUMENTS[2:],  # the trig sums
                         ids=REAL_ARGUMENT_IDS[2:])
def test_trig_sum_arguments_lie_in_the_double_range(name, call, bad):
    # the trig sums run in doubles: an exact value beyond the double range
    # leaked "integer division result too large for a float"
    with pytest.raises(ValueError, match=f"^{name} must be at most "):
        call(bad)


@pytest.mark.parametrize("name, call", REAL_ARGUMENTS, ids=REAL_ARGUMENT_IDS)
def test_real_arguments_take_any_sign_and_a_float(name, call):
    for value in (-1, Fraction(-1, 3), Fraction(1, 2), 0.25, -0.75):
        call(value)


def test_a_float_x_runs_in_doubles_and_an_exact_x_exactly():
    floats = pollaczek.pollaczek_seq(Fraction(1, 2), 0.25, 3)
    exact = pollaczek.pollaczek_seq(Fraction(1, 2), Fraction(1, 4), 3)
    assert all(type(v) is float for v in floats)
    assert all(type(v) is Fraction for v in exact)
    assert all(floats_close(f, float(e)) for f, e in zip(floats, exact))
    op = build_truncated(Fraction(1, 2), 6)
    assert exact_sturm_count(op, 0.25) == exact_sturm_count(op, Fraction(1, 4))


@pytest.mark.parametrize("name, call, zero_ok", DELTA_ENTRY_POINTS,
                         ids=[row[0] for row in DELTA_ENTRY_POINTS])
def test_delta_zero_is_rejected_exactly_where_delta_must_be_positive(
        name, call, zero_ok):
    if zero_ok:
        call(0)
    else:
        with pytest.raises(ValueError, match=r"^delta must be > 0 .*got 0$"):
            call(0)


def test_a_step_is_one_exact_fraction_whatever_its_type():
    assert (mass_point(0, 0.5) is mass_point(0, Fraction(1, 2))
            is eigen_data(1, Fraction(1, 2)))
    assert type(numerics._step(1)) is Fraction
    # finiteness is tested on floats only: a step beyond the double
    # range is exact, not infinite
    huge = Fraction(10**400)
    assert numerics._step(huge) == numerics._step(10**400) == huge
    assert mass_point(0, huge).delta == huge


def test_build_truncated_converts_delta_exactly():
    op = build_truncated(0.5, 3)
    assert op.delta == Fraction(1, 2) and type(op.delta) is Fraction
    integral = spectral.TridiagonalOperator(delta=1, size=3)
    assert exact_sturm_count(integral, 1) == sturm_count(integral, 1.0)


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
def test_exact_sturm_count_rejects_a_non_finite_x(x):
    # NaN used to leak Fraction's message and +-inf raised OverflowError
    with pytest.raises(ValueError, match="x must be finite") as info:
        exact_sturm_count(build_truncated(Fraction(1, 2), 4), x)
    assert str(x) in str(info.value)


def test_free_lattice_spectrum_inside_band():
    op = build_truncated(0, 3)
    eigs = np.linalg.eigvalsh(materialize(op))
    assert np.all(eigs > -1.0) and np.all(eigs < 1.0)


def test_sturm_single_row():
    op = build_truncated(1, 1)
    assert sturm_count(op, 2.0) == 1
    assert sturm_count(op, 0.5) == 0


def test_sturm_two_rows():
    # eigenvalues (3 +/- sqrt(5))/4 ~ 0.191, 1.309 from the characteristic
    # polynomial of [[1, 1/2], [1/2, 1/2]]
    op = build_truncated(1, 2)
    # x = 1.0 makes the first pivot 1/1 - 1.0 exactly zero; it is replaced
    # by a tiny negative number, as in the full walk
    assert sturm_count(op, 1.0) == reference_sturm_count(op, 1.0) == 1
    assert sturm_count(op, 0.1) == 0
    assert sturm_count(op, 1.5) == 2


def test_sturm_below_gershgorin_bound():
    for delta in DELTAS:
        assert sturm_count(build_truncated(delta, 50), -2.0) == 0


@pytest.mark.parametrize("size", [3, 7, 20])
def test_sturm_agrees_with_dense_diagonalization(size):
    # independent oracle: numpy dense eigenvalues
    op = build_truncated(Fraction(3, 4), size)
    eigs = np.linalg.eigvalsh(materialize(op))
    for x in (-0.9, 0.2, 0.9, 1.01, 1.3):
        assert sturm_count(op, x) == int(np.sum(eigs < x))


def test_bisection_quadratic_root():
    op = build_truncated(1, 2)
    found = eigen_bisection(op, (1.2, 1.4), 1e-12)
    assert abs(found - (3 + math.sqrt(5)) / 4) < 1e-11


def test_bisection_rejects_bad_bracket():
    op = build_truncated(1, 2)
    with pytest.raises(BracketError):
        eigen_bisection(op, (0.0, 2.0), 1e-10)
    with pytest.raises(BracketError):
        eigen_bisection(op, (2.0, 3.0), 1e-10)


def test_bisection_recovers_mass_points_at_n400():
    op = build_truncated(1, 400)
    sqrt2 = eigen_bisection(op, (1.40, 1.43), 1e-12)
    assert abs(sqrt2 - math.sqrt(2)) < 1e-10
    x1 = eigen_bisection(op, (1.10, 1.13), 1e-12)
    assert abs(x1 - math.sqrt(1.25)) < 1e-8


def test_point_spectrum_enumeration():
    op = build_truncated(1, 200)
    found = point_spectrum_above(op, 1.0 + 1e-9, tol=1e-11)
    for m in range(3):
        target = surd_to_float(mass_point(m, 1).mu)
        assert any(abs(x - target) < 1e-8 for x in found)


def test_eigenvalues_between_matches_dense():
    op = build_truncated(Fraction(1, 2), 30)
    dense = np.linalg.eigvalsh(materialize(op))
    ours = eigenvalues_between(op, -2.0, 2.0, tol=1e-12)
    assert len(ours) == 30
    assert np.allclose(sorted(ours), dense, atol=1e-9)


def test_closed_form_vector_entries():
    vec = closed_form_vector(1, 1, 3)
    assert vec == (QuadraticSurd(1), QuadraticSurd(-2, 2, 2),
                   QuadraticSurd(9, -6, 2))
    assert closed_form_vector(2, 1, 1) == (QuadraticSurd(1),)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("n", range(1, 7))
def test_eigen_residual_exactly_zero(n, delta):
    vec = closed_form_vector(n, delta, 25)
    residual = eigen_residual(vec, delta, eigen_data(n, delta).mu)
    assert isinstance(residual, QuadraticSurd)
    assert residual.is_zero()


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("n", range(1, 5))
def test_eigen_residual_reads_wavefunction_values_in_one_pass(n, delta):
    # a generator is read once: the coordinate-space eigenfunction also
    # satisfies every row exactly
    values = wavefunction_values(n, delta, 25)
    assert eigen_residual(values, delta, eigen_data(n, delta).mu).is_zero()
    assert next(values, None) is None


def test_eigen_residual_nonzero_for_random_vector():
    rng = np.random.default_rng(7)
    entries = tuple(Fraction(int(p), int(r)) for p, r in
                    zip(rng.integers(-50, 50, 10), rng.integers(1, 50, 10)))
    residual = eigen_residual(entries, 1, eigen_data(1, 1).mu)
    assert not residual.is_zero()


def test_eigen_residual_wrong_eigenvalue():
    # a wrong mu over the same radicand stays exact and is clearly nonzero
    vec = closed_form_vector(1, 1, 12)
    wrong_mu = QuadraticSurd(0, Fraction(3, 2), 2)
    residual = eigen_residual(vec, 1, wrong_mu)
    assert residual >= Fraction(1, 100)


def test_eigen_residual_rejects_mu_over_another_radicand():
    # mu of the neighbouring state lives over another radicand
    vec = closed_form_vector(1, 1, 12)
    with pytest.raises(MixedRadicandError):
        eigen_residual(vec, 1, eigen_data(2, 1).mu)


@pytest.mark.parametrize("length", [0, 1])
def test_eigen_residual_needs_one_interior_row(length):
    entries = iter(closed_form_vector(1, 1, 2)[:length])
    with pytest.raises(ValueError, match="interior row"):
        eigen_residual(entries, 1, eigen_data(1, 1).mu)


def max_residual_row(entries, delta, mu):
    """The oracle for the integer rows: max |residual_row| over the
    interior rows, each row on surds, with u_0 = 0."""
    u = [numerics.as_surd(0)] + [numerics.as_surd(v) for v in entries]
    return max((abs(coordinate.residual_row(u[k - 1], u[k], u[k + 1], k,
                                            Fraction(delta), mu))
                for k in range(1, len(u) - 1)))


def perturbed(vector, k, by):
    return vector[:k] + (vector[k] + by,) + vector[k + 1:]


def over_sqrt_20(x):
    """x over D = 5/4 written over D = 20, since sqrt(5/4) = sqrt(20)/4."""
    assert x.D in (0, Fraction(5, 4))
    return QuadraticSurd(x.a, x.b / 4, 20) if x.b else x


# (n, delta) = (2, 1) has p = 5 and D = 5/4; (1, 3/4) has p = 25, a
# perfect square, so mu = 5/4 and every entry is rational
RESIDUAL_CASES = {
    "exact": (2, Fraction(1), lambda v: v, None),
    "perturbed-rational": (2, Fraction(1),
                           lambda v: perturbed(v, 3, Fraction(1, 7)), None),
    "perturbed-surd": (3, Fraction(1, 2),  # p = 37
                       lambda v: perturbed(v, 0, QuadraticSurd(0, 1, 37)),
                       None),
    "perturbed-last": (1, Fraction(3, 4), lambda v: perturbed(v, -1, 1),
                       None),
    "wrong-mu": (2, Fraction(1), lambda v: v,
                 QuadraticSurd(Fraction(1, 3), Fraction(1, 2), 5)),
    "rational-mu-of-a-surd-vector": (2, Fraction(1), lambda v: v,
                                     Fraction(9, 8)),
    "square-field": (1, Fraction(3, 4), lambda v: v, None),
    "square-field-wrong-mu": (1, Fraction(3, 4), lambda v: v, Fraction(4, 3)),
    "fraction-and-int-entries": (
        1, Fraction(3, 4),
        lambda v: tuple(Fraction(x.a) if i % 2 else int(x.a * 4 ** i)
                        for i, x in enumerate(v)), None),
    "entries-over-sqrt-20": (2, Fraction(1),
                             lambda v: tuple(map(over_sqrt_20, v)), None),
    "perturbed-over-sqrt-20": (
        2, Fraction(1),
        lambda v: perturbed(tuple(map(over_sqrt_20, v)), 4,
                            QuadraticSurd(0, Fraction(1, 9), 20)), None),
    "mu-over-sqrt-20": (2, Fraction(1), lambda v: v,
                        QuadraticSurd(0, Fraction(1, 4), 20)),
    "negative-delta": (2, Fraction(-1), lambda v: v, None),
}


@pytest.mark.parametrize("case", RESIDUAL_CASES)
def test_eigen_residual_equals_the_largest_surd_row(case):
    n, delta, change, mu = RESIDUAL_CASES[case]
    entries = change(closed_form_vector(n, abs(delta), 14))
    if mu is None:
        mu = eigen_data(n, abs(delta)).mu
    residual = eigen_residual(iter(entries), delta, mu)
    assert type(residual) is QuadraticSurd
    assert residual == max_residual_row(entries, delta, mu)
    assert residual.is_zero() == (case in ("exact", "square-field",
                                           "entries-over-sqrt-20",
                                           "mu-over-sqrt-20"))


def test_eigen_residual_of_rational_rows_is_a_surd():
    # every entry and mu rational: the rows used to come out as
    # Fractions, and the max with them, though callers read .is_zero();
    # row 1 = 3/2 + 1/6 - 1 = 2/3, row 2 = 1/4 - 1/8 + 1/2 - 6 = -43/8
    residual = eigen_residual([Fraction(1, 2), 3, Fraction(-1, 4)],
                              Fraction(1, 3), Fraction(2))
    assert type(residual) is QuadraticSurd
    assert residual == Fraction(43, 8)


def test_eigen_residual_sees_a_row_with_no_rational_part():
    # row 1 = u_2/2 = sqrt(2)/2; row 2 = (1 - sqrt(2)) u_2 = sqrt(2) - 2
    entries = [0, QuadraticSurd(0, 1, 2), 0]
    mu = QuadraticSurd(0, 1, 2)
    assert eigen_residual(entries, 2, mu) == QuadraticSurd(0, Fraction(1, 2), 2)
    assert eigen_residual(entries, 2, mu) == max_residual_row(entries, 2, mu)


@pytest.mark.parametrize("entries, mu", [
    ((QuadraticSurd(0, 1, 2), QuadraticSurd(1, 1, 3)), Fraction(1)),
    ((Fraction(1), QuadraticSurd(1, 1, 3)), QuadraticSurd(0, 1, 2)),
    ((QuadraticSurd(0, 1, 2), Fraction(1)), QuadraticSurd(0, 1, 3)),
])
def test_eigen_residual_rejects_entries_over_another_radicand(entries, mu):
    with pytest.raises(MixedRadicandError):
        eigen_residual(entries, 1, mu)


@pytest.mark.parametrize("entries, mu", [
    ((Fraction(1), 0.5), Fraction(1)),
    ((Fraction(1), Fraction(1)), 1.25),
    ((Fraction(1), "1"), Fraction(1)),
])
def test_eigen_residual_takes_exact_entries_only(entries, mu):
    with pytest.raises(TypeError, match="must be int, Fraction or "
                                        "QuadraticSurd"):
        eigen_residual(entries, 1, mu)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("n", range(1, 5))
def test_eigen_residual_reads_entries_given_as_integers(n, delta):
    # the field's integers (a, b, den) of an entry read as its surd, alone
    # or mixed with surds, with no surd built for them
    mu = eigen_data(n, delta).mu
    field = eigen_data(n, delta).field
    entries = spectral._closed_form_integers(n, delta, 20)
    assert eigen_residual(iter(entries), delta, mu).is_zero()
    a, b, den = entries[7]
    entries[7] = (a + den, b, den)
    surds = [field.surd(*entry) for entry in entries]
    residual = eigen_residual(surds, delta, mu)
    assert not residual.is_zero()
    assert eigen_residual(entries, delta, mu) == residual
    mixed = [s if k % 3 else e for k, (s, e) in enumerate(zip(surds, entries))]
    assert eigen_residual(mixed, delta, mu) == residual


@pytest.mark.parametrize("entry, error", [
    ((1, 0), TypeError), ((1, 0, 1, 0), TypeError), ((1, 0.0, 1), TypeError),
    ((True, 0, 1), TypeError), ((1, 0, 0), ValueError),
    ((1, 0, -2), ValueError)])
def test_eigen_residual_checks_an_entry_given_as_integers(entry, error):
    with pytest.raises(error, match="entry"):
        eigen_residual([Fraction(1), entry, 2], 1, Fraction(1))


def test_eigen_residual_needs_a_radicand_for_an_irrational_integer_entry():
    # B != 0 means nothing with every entry and mu rational
    with pytest.raises(ValueError, match="irrational"):
        eigen_residual([1, (1, 1, 1), 2], 1, Fraction(1))
    assert eigen_residual([1, (1, 1, 1), 2], 1, QuadraticSurd(0, 1, 2)) \
        == eigen_residual([1, QuadraticSurd(1, 1, 2), 2], 1,
                          QuadraticSurd(0, 1, 2))


def test_exp_part_values():
    assert exp_part(0, 3, Fraction(5, 7)) == 1
    assert exp_part(2, 1, 1) == QuadraticSurd(3, -2, 2)


def test_exp_part_matches_transcendental_form():
    assert floats_close(surd_to_float(exp_part(5, 2, 1)),
                        math.exp(-5 * math.asinh(0.5)), rel_tol=1e-12)
    for n in (1, 2, 5):
        for k in (1, 10, 100):
            exact = surd_to_float(exp_part(k, n, Fraction(1, 2)))
            ref = exp_part_float_reference(k, n, Fraction(1, 2))
            assert floats_close(exact, ref, rel_tol=1e-10, abs_tol=0.0)


def test_inner_product_orthogonality():
    cross = inner_product(1, 2, 1)
    norm1 = math.sqrt(inner_product(1, 1, 1))
    norm2 = math.sqrt(inner_product(2, 2, 1))
    assert abs(cross / (norm1 * norm2)) < 1e-10


def test_inner_product_positive_on_diagonal():
    for n in (1, 2, 3):
        assert inner_product(n, n, Fraction(1, 2)) > 0


def test_inner_product_truncation_against_longer_sum():
    # brute-force oracle: a much longer explicit sum
    from hydrogrid.pollaczek import pollaczek_mass_closed

    value = inner_product(1, 1, 1, tail_tol=1e-12)
    mp = mass_point(0, 1)
    brute = sum(float(pollaczek_mass_closed(k - 1, mp)) ** 2
                for k in range(1, 200))
    assert abs(value - brute) < 1e-11


def test_inner_product_rejects_nonpositive_delta():
    with pytest.raises(ValueError):
        inner_product(1, 2, 0)


# A tail_tol that is not positive is never reached by the tail bound:
# unchecked, the sum runs forever.
@pytest.mark.parametrize("tail_tol",
                         [0.0, -1e-12, math.nan, -math.inf, math.inf])
def test_inner_product_rejects_bad_tail_tol(tail_tol):
    with pytest.raises(ValueError, match="tol"):
        inner_product(1, 1, Fraction(1, 2), tail_tol)


@pytest.mark.parametrize("tail_tol",
                         [0.0, -1e-12, math.nan, -math.inf, math.inf])
def test_gram_matrix_rejects_bad_tail_tol(tail_tol):
    with pytest.raises(ValueError, match="tol"):
        gram_matrix([1, 2], Fraction(1, 2), tail_tol)


def test_gram_matrix_orthonormal():
    gram = gram_matrix([1, 2, 3], 1)
    assert np.max(np.abs(gram - np.eye(3))) < 1e-10


def test_closed_n1_proportional_to_coordinate_wavefunction():
    # spec'd constant for n=1: u_k = k*delta*q^k vs entries k*q^(k-1)
    delta = Fraction(1, 2)
    ratio = coordinate_ratio(1, delta, length=10)
    ed = eigen_data(1, delta)
    assert ratio == delta * ed.q


@pytest.mark.parametrize("n", range(1, 7))
def test_coordinate_spectral_ratio_constant(n):
    ratio = coordinate_ratio(n, 1, length=10)
    vec = closed_form_vector(n, 1, 10)
    for k in (4, 7, 10):
        assert wavefunction(n, 1, k) == ratio * vec[k - 1]


# float.hex() of the truncated inner products and of the Gram matrix at
# delta = 1/2; every value must stay bitwise identical.
GOLDEN_INNER_PRODUCTS = {
    (1, 1): "0x1.76a99b4b1f3dcp+2",
    (1, 2): "0x1.cd1be226eeaadp-41",
    (1, 3): "-0x1.bbc9bbeeebfefp-41",
    (1, 4): "0x1.82faea33ba390p-41",
    (2, 2): "0x1.63083ca9eb10cp+5",
    (2, 3): "0x1.90db7300620d6p-41",
    (2, 4): "-0x1.0ae9fdbac5adep-40",
    (3, 3): "0x1.28441eb8265bdp+7",
    (3, 4): "0x1.0baf4aadcb766p-40",
    (4, 4): "0x1.5dbe014c630bep+8",
}
GOLDEN_GRAM = [
    ["0x1.0000000000000p+0", "0x1.ed39266c6d97bp-49", "-0x1.73a30a31c3abfp-49",
     "0x1.0c5046dfe2844p-49", "-0x1.db651db3be206p-50", "-0x1.33aa2c2452275p-51"],
    ["0x1.ed39266c6d97bp-49", "0x1.0000000000001p+0", "0x1.003bf4f15526bp-50",
     "-0x1.b96e7a22c30e1p-51", "0x1.0b4afd14ae1d0p-51", "-0x1.fed8bcd8a3379p-52"],
    ["-0x1.73a30a31c3abfp-49", "0x1.003bf4f15526bp-50", "0x1.0000000000000p+0",
     "0x1.f2bcdb18b4f12p-52", "-0x1.1578cf41c3fb6p-52", "0x1.0f92c89cf1124p-52"],
    ["0x1.0c5046dfe2844p-49", "-0x1.b96e7a22c30e1p-51", "0x1.f2bcdb18b4f12p-52",
     "0x1.0000000000001p+0", "0x1.4ab7a8473b0b3p-52", "-0x1.7fe8dbc4b52cep-53"],
    ["-0x1.db651db3be206p-50", "0x1.0b4afd14ae1d0p-51", "-0x1.1578cf41c3fb6p-52",
     "0x1.4ab7a8473b0b3p-52", "0x1.0000000000000p+0", "0x1.17b5f9a4fc99ap-53"],
    ["-0x1.33aa2c2452275p-51", "-0x1.fed8bcd8a3379p-52", "0x1.0f92c89cf1124p-52",
     "-0x1.7fe8dbc4b52cep-53", "0x1.17b5f9a4fc99ap-53", "0x1.0000000000001p+0"],
]


def test_inner_products_bitwise_golden():
    for (n, n2), digest in GOLDEN_INNER_PRODUCTS.items():
        assert inner_product(n, n2, Fraction(1, 2)).hex() == digest


def test_gram_matrix_bitwise_golden():
    gram = gram_matrix(list(range(1, 7)), Fraction(1, 2))
    assert [[float(v).hex() for v in row] for row in gram] == GOLDEN_GRAM


def test_gram_matrix_floats_each_entry_once(monkeypatch):
    # Each entry P_j(x_m), j >= 1, is rounded by the field's `q_floats`
    # kernel, and P_0 = 1 by none.  The kernel's roundings are counted
    # with every call of the one integer core, `_int_surd_to_float`, which
    # the kernel calls for an exact fallback and `surd_to_float` for the
    # two decay factors q of each pair.
    calls = []
    original = numerics._int_surd_to_float
    kernel = numerics._StateField.q_floats

    def counting(*args):
        calls.append(args)
        return original(*args)

    def rounding(field, pairs, den):
        for value in kernel(field, pairs, den):
            calls.append(value)
            yield value

    monkeypatch.setattr(numerics, "_int_surd_to_float", counting)
    monkeypatch.setattr(numerics._StateField, "q_floats", rounding)
    coordinate._state.cache_clear()
    states = list(range(1, 7))
    spectral.gram_matrix(states, Fraction(1, 2))
    pairs = len(states) * (len(states) + 1) // 2
    # at most one rounding per distinct (state, k) entry, on top of q
    entries = sum(len(mass_point(n - 1, Fraction(1, 2)).sequence._floats)
                  for n in states)
    assert entries > 1000
    assert len(calls) <= entries + 2 * pairs


def test_gram_matrix_keeps_no_exact_term():
    # the float rows round from the small pairs S_j alone
    coordinate._state.cache_clear()
    states = list(range(1, 7))
    gram_matrix(states, Fraction(1, 2))
    for n in states:
        sequence = mass_point(n - 1, Fraction(1, 2)).sequence
        assert len(sequence._floats) > 70
        assert sequence._terms == []


def test_gram_matrix_builds_no_surd_per_term(monkeypatch):
    # The sums read integer numerators: the surds built from cold bundles
    # do not grow with the more than 1000 terms summed.  Every surd comes
    # from the one trusted constructor, which the numerics code calls by
    # its global name.
    built = []
    original = numerics._make

    def counting(*args):
        built.append(args)
        return original(*args)

    monkeypatch.setattr(numerics, "_make", counting)
    coordinate._state.cache_clear()
    states = list(range(1, 7))
    spectral.gram_matrix(states, Fraction(1, 2))
    assert len(built) <= 4 * len(states)


def reference_inner_product(n, n2, delta, tail_tol):
    """The truncated sum with an indexed read of each entry and a list
    window of the last three |terms|, the form `inner_product` must
    reproduce bit for bit."""
    mp1, mp2 = mass_point(n - 1, delta), mass_point(n2 - 1, delta)
    seq1, seq2 = mp1.sequence, mp2.sequence
    t = float(mp1.q) * float(mp2.q)
    power = n + n2
    total = 0.0
    window = []
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


@pytest.mark.parametrize("delta", [
    Fraction(1, 2), Fraction(3, 4), Fraction(1, 3), Fraction(7, 3),
    Fraction(2), Fraction(1, 5), Fraction(5, 7)])
def test_inner_product_equals_the_list_window_sum(delta):
    for tail_tol in (1e-12, 1e-13, 1e-8):
        for n in range(1, 9):
            for n2 in range(n, 9):
                got = inner_product(n, n2, delta, tail_tol)
                want = reference_inner_product(n, n2, delta, tail_tol)
                assert got.hex() == want.hex(), (n, n2, tail_tol)


def test_sequence_floats_share_float_value_cache():
    seq = mass_point(3, Fraction(2, 7)).sequence
    head = seq.float_value(5)
    rows = seq.floats()
    values = [next(rows) for _ in range(12)]
    assert values[5] == head
    assert values == [seq.float_value(j) for j in range(12)]
    assert len(seq._floats) == 12


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 17, 400, 3668, 6978])
def test_gershgorin_interval_equals_the_full_pass(size):
    deltas = [0, Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
              Fraction(7, 3), 2, 5, 10 ** 200, Fraction(1, 10 ** 300), 0.1]
    for delta in deltas:
        op = build_truncated(delta, size)
        diag = op._diag
        if size == 1:
            want = diag[0], diag[0]
        else:
            radii = [0.5 if k in (0, size - 1) else 1.0 for k in range(size)]
            want = (min(d - r for d, r in zip(diag, radii)),
                    max(d + r for d, r in zip(diag, radii)))
        got = op.gershgorin_interval()
        assert [x.hex() for x in got] == [x.hex() for x in want], delta


def reference_sturm_count(op, x):
    """The full-walk Sturm count the early-stopping one must reproduce:
    every row evaluated, diagonal recomputed per row."""
    return reference_walk(op, x)[0]


def reference_walk(op, x):
    """`reference_sturm_count` and the last pivot of its walk."""
    eps = sys.float_info.epsilon
    count = 0
    d = 1.0
    delta = float(op.delta)
    for k in range(1, op.size + 1):
        diag = delta / k - x
        if k == 1:
            d = diag
        else:
            d = diag - 0.25 / d
        if d == 0.0:
            d = -eps * max(1.0, abs(diag) + 1.0)
        if d < 0.0:
            count += 1
    return count, d


STURM_DELTAS = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(3, 4),
                Fraction(1), Fraction(2)]


@st.composite
def sturm_points(draw, max_size=3000):
    """An operator and an x: a special value, 1 + 10**-j, a random float,
    or the tail boundary diag[i] + 1 and its float neighbours."""
    op = build_truncated(draw(st.sampled_from(STURM_DELTAS)),
                         draw(st.integers(1, max_size)))
    kind = draw(st.sampled_from(["special", "near_one", "random",
                                 "boundary"]))
    if kind == "special":
        x = draw(st.sampled_from([math.inf, -math.inf, math.nan, 1.0, -1.0,
                                  0.0]))
    elif kind == "near_one":
        x = 1.0 + 10.0 ** -draw(st.integers(1, 16))
    elif kind == "random":
        x = draw(st.floats(-3.0, 4.0))
    else:
        x = list(op._diag)[draw(st.integers(0, op.size - 1))] + 1.0
        x = draw(st.sampled_from([x, math.nextafter(x, -math.inf),
                                  math.nextafter(x, math.inf)]))
    return op, x


@settings(max_examples=400, deadline=None)
@given(sturm_points())
def test_sturm_count_equals_full_walk(point):
    op, x = point
    assert sturm_count(op, x) == reference_sturm_count(op, x)


@settings(max_examples=150, deadline=None)
@given(sturm_points(max_size=600))
def test_sturm_count_equals_the_exact_count(point):
    # The exact count is the independent route behind the monotonicity
    # that `eigenvalues_between`'s known counts rest on.
    op, x = point
    assume(math.isfinite(x))
    assert sturm_count(op, x) == exact_sturm_count(op, x)


def float_counting(op, c):
    """The smallest float x with sturm_count(op, x) >= c, for 1 <= c <= N:
    where the c-th eigenvalue lies at float resolution."""
    lo, hi = -3.0, op.gershgorin_interval()[1] + 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            return hi
        if sturm_count(op, mid) >= c:
            hi = mid
        else:
            lo = mid


@st.composite
def ascending_points(draw):
    """An operator and ascending floats: consecutive floats around an
    eigenvalue above 1 (any eigenvalue when none lies above 1), a
    zero-pivot point x = diag[i] between its float neighbours, or a
    random pair in [-3, 4]."""
    op = build_truncated(draw(st.sampled_from(STURM_DELTAS)),
                         draw(st.integers(1, 3000)))
    kind = draw(st.sampled_from(["eigenvalue", "zero_pivot", "random"]))
    if kind == "eigenvalue":
        above_one = sturm_count(op, 1.0) + 1
        c = draw(st.integers(above_one if above_one <= op.size else 1,
                             op.size))
        xs = [float_counting(op, c)]
        for _ in range(draw(st.integers(0, 6))):
            xs.insert(0, math.nextafter(xs[0], -math.inf))
        while len(xs) < 8:
            xs.append(math.nextafter(xs[-1], math.inf))
    elif kind == "zero_pivot":
        x = op._diag[draw(st.integers(0, op.size - 1))]
        xs = [math.nextafter(x, -math.inf), x, math.nextafter(x, math.inf)]
    else:
        xs = sorted([draw(st.floats(-3.0, 4.0)), draw(st.floats(-3.0, 4.0))])
    return op, xs


@settings(max_examples=200, deadline=None)
@given(ascending_points())
def test_sturm_count_is_monotone_in_x(points):
    # The premise of `eigenvalues_between`'s known counts: x <= y gives
    # sturm_count(op, x) <= sturm_count(op, y).
    op, xs = points
    counts = [sturm_count(op, x) for x in xs]
    assert counts == sorted(counts)


def grid_points(op):
    """Special values, 1 + 10**-j and tail boundaries diag[i] + 1."""
    diag = list(op._diag)
    xs = [-math.inf, math.inf, math.nan, -1.0, 0.0, 1.0, 1.5, 3.0]
    xs += [1.0 + 10.0 ** -j for j in range(1, 17)]
    return xs + [diag[i] + 1.0 for i in range(0, op.size, max(1, op.size // 9))]


def test_sturm_count_equals_full_walk_on_a_grid():
    for delta in STURM_DELTAS:
        for size in (1, 2, 3, 50, 777):
            op = build_truncated(delta, size)
            xs = grid_points(op)
            for x in xs:
                assert sturm_count(op, x) == reference_sturm_count(op, x)
            assert sturm_count(op, math.inf) == size
            assert sturm_count(op, -math.inf) == 0
        # at solver scale: the ten lowest eigenvalues above 1, where a
        # count changes, and their float neighbours
        op = build_truncated(delta, 8000)
        for e in lowest_eigenvalues_above(op, 1.0, 10):
            for x in (math.nextafter(e, -math.inf), e,
                      math.nextafter(e, math.inf)):
                assert sturm_count(op, x) == reference_sturm_count(op, x)


def assert_pivot_walk_is_a_full_walk(op, x):
    # The count `_refine`'s homing records, and the d_N it steers by.
    count, d = spectral._pivot_walk(op, x)
    assert count == sturm_count(op, x)
    ref_count, ref_d = reference_walk(op, x)
    assert (count, d.hex()) == (ref_count, ref_d.hex())


@settings(max_examples=200, deadline=None)
@given(ascending_points())
def test_pivot_walk_equals_sturm_count_and_a_full_walk(points):
    # Float neighbours of eigenvalues, zero-pivot points and random pairs.
    op, xs = points
    for x in xs:
        assert_pivot_walk_is_a_full_walk(op, x)


@settings(max_examples=150, deadline=None)
@given(sturm_points(max_size=600))
def test_pivot_walk_equals_the_exact_count(point):
    # The points `sturm_count` is checked against the exact count at; at
    # x = diag[i] a float diagonal that is not the exact delta/k parts
    # the two counts, for the walk and `sturm_count` alike.
    op, x = point
    assume(math.isfinite(x))
    assert spectral._pivot_walk(op, x)[0] == exact_sturm_count(op, x)


@st.composite
def exact_zero_pivot_points(draw):
    """An operator with a binary-fraction delta and x = diag[k-1] for k
    a power of 2: a zero first-phase pivot where the float diagonal
    delta/k is exact."""
    delta = draw(st.sampled_from([Fraction(1, 2), Fraction(3, 4),
                                  Fraction(1), Fraction(2)]))
    size = draw(st.integers(1, 600))
    k = 2 ** draw(st.integers(0, size.bit_length() - 1))
    return build_truncated(delta, size), k


@settings(max_examples=100, deadline=None)
@given(exact_zero_pivot_points())
def test_the_counts_equal_the_exact_count_at_exact_zero_pivots(point):
    # The float-equals-exact-count property at the zero-pivot points
    # `sturm_points` does not draw: the zero pivot counts an eigenvalue
    # at x in all three counts.
    op, k = point
    x = op._diag[k - 1]
    assert Fraction(x) == op.delta / k
    assert (sturm_count(op, x) == spectral._pivot_walk(op, x)[0]
            == exact_sturm_count(op, x))


def test_a_zero_pivot_counts_the_float_diagonal_not_the_exact_one():
    # The documented convention, not a fault: delta = 1/3 has a float
    # diagonal below 1/3, and at x = diag[0] its zero pivot counts the
    # float eigenvalue at x, while the exact 1/3 lies above x.
    op = build_truncated(Fraction(1, 3), 1)
    x = op._diag[0]
    assert x == 0.3333333333333333 and Fraction(x) < Fraction(1, 3)
    assert sturm_count(op, x) == spectral._pivot_walk(op, x)[0] == 1
    assert exact_sturm_count(op, x) == 0
    assert exact_sturm_count(op, Fraction(1, 3)) == 1


def test_sturm_rows_counts_the_rows_of_the_early_stopping_count():
    # The rows tests/spectral_walks.py adds up for each `sturm_count`.
    op = build_truncated(Fraction(1, 2), 400)
    assert sturm_rows(op, 1.0 + 1e-9) == 400  # no row has diag - x <= -1
    assert sturm_rows(op, 4.0) == 1  # the first pivot is already <= -0.5
    assert sturm_rows(op, math.nan) == 0


def test_pivot_walk_equals_both_counts_and_a_full_walk_on_a_grid():
    # NaN is left out: the walk is asked only strictly inside a bracket.
    for delta in STURM_DELTAS:
        for size in (1, 2, 3, 50, 777):
            op = build_truncated(delta, size)
            for x in grid_points(op):
                if x == x:
                    assert_pivot_walk_is_a_full_walk(op, x)
                if math.isfinite(x):
                    assert (spectral._pivot_walk(op, x)[0]
                            == exact_sturm_count(op, x))
        op = build_truncated(delta, 8000)
        for e in lowest_eigenvalues_above(op, 1.0, 3):
            for x in (math.nextafter(e, -math.inf), e,
                      math.nextafter(e, math.inf)):
                assert_pivot_walk_is_a_full_walk(op, x)


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4),
                                   Fraction(2)])
@pytest.mark.parametrize("size", [1, 2, 50, 2206])
def test_sturm_count_with_an_exact_zero_first_pivot(delta, size):
    op = build_truncated(delta, size)
    x = list(op._diag)[0]  # the first pivot is diag[0] - x = 0.0
    assert sturm_count(op, x) == reference_sturm_count(op, x)
    assert sturm_count(op, x) == exact_sturm_count(op, x)


@pytest.mark.parametrize("size", [1, 2, 3, 50, 2206])
@pytest.mark.parametrize("x", [0.0, -0.0])
def test_sturm_count_at_signed_zero_on_the_free_lattice(size, x):
    # 0.0 - x is 0.0 for either sign of x: the first pivot is an exact zero
    op = build_truncated(0, size)
    assert sturm_count(op, x) == reference_sturm_count(op, x)
    assert sturm_count(op, x) == exact_sturm_count(op, x) == (size + 1) // 2


def test_exact_sturm_count_by_hand_through_zero_minors():
    # delta = 0, N = 3 has eigenvalues -1/sqrt(2), 0, 1/sqrt(2).
    op = build_truncated(0, 3)
    # x = 0: P = 1, 0, -2, 0.  P_1 = 0 takes -, P_2 stays -, P_3 = 0
    # takes +: two changes, the eigenvalue at x itself included, as the
    # float count's zero pivot counts negative.
    assert exact_sturm_count(op, 0) == sturm_count(op, 0.0) == 2
    # x = 1/2, an eigenvalue of the leading 2x2 block: P = 1, -2, 0, 48.
    # The inner zero adds one change whichever sign it takes.
    assert exact_sturm_count(op, Fraction(1, 2)) == sturm_count(op, 0.5) == 2


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4)])
@pytest.mark.parametrize("size", [400, 2206])
def test_exact_sturm_count_matches_the_float_count(delta, size):
    # x = 1 and a +-1e-10 bracket round each of the three largest float
    # eigenvalues: each bracket holds exactly one eigenvalue, exactly.
    op = build_truncated(delta, size)
    assert exact_sturm_count(op, 1) == sturm_count(op, 1.0)
    for e in point_spectrum_above(op)[-3:]:
        lo, hi = e - 1e-10, e + 1e-10
        counts = exact_sturm_count(op, lo), exact_sturm_count(op, hi)
        assert counts == (sturm_count(op, lo), sturm_count(op, hi))
        assert counts[1] - counts[0] == 1


def lowest_eigenvalues_above(op, x0, k):
    """The k lowest eigenvalues above x0 at float resolution: for each,
    the smallest float at which the Sturm count goes up by one more."""
    c0 = sturm_count(op, x0)
    top = op.gershgorin_interval()[1] + 1.0
    found = []
    for c in range(c0 + 1, min(c0 + k, op.size) + 1):
        lo, hi = (found[-1] if found else x0), top
        while True:
            mid = 0.5 * (lo + hi)
            if not lo < mid < hi:
                break
            if sturm_count(op, mid) >= c:
                hi = mid
            else:
                lo = mid
        found.append(hi)
    return found


def test_build_rejects_negative_delta():
    with pytest.raises(ValueError, match="nonnegative"):
        build_truncated(-1, 4)
    with pytest.raises(ValueError, match="nonnegative"):
        build_truncated(Fraction(-1, 10**9), 1)
    with pytest.raises(ValueError, match="nonnegative"):
        spectral.TridiagonalOperator(delta=Fraction(-1), size=4)
    assert list(build_truncated(0, 3)._diag) == [0.0, 0.0, 0.0]


@pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan, -math.inf, math.inf])
def test_solvers_reject_bad_tol(tol):
    op = build_truncated(1, 200)
    with pytest.raises(ValueError, match="tol"):
        eigen_bisection(op, (1.40, 1.43), tol)
    with pytest.raises(ValueError, match="tol"):
        eigenvalues_between(op, 1.0, 2.0, tol)
    with pytest.raises(ValueError, match="tol"):
        point_spectrum_above(op, tol=tol)
    # rejected even where there is nothing to refine
    with pytest.raises(ValueError, match="tol"):
        eigenvalues_between(op, 5.0, 6.0, tol)


def test_solvers_reject_nan_bounds():
    op = build_truncated(1, 200)
    with pytest.raises(ValueError):
        eigen_bisection(op, (math.nan, 1.43), 1e-12)
    with pytest.raises(ValueError):
        eigen_bisection(op, (1.40, math.nan), 1e-12)
    with pytest.raises(ValueError, match="NaN"):
        eigenvalues_between(op, math.nan, 2.0)
    with pytest.raises(ValueError, match="NaN"):
        eigenvalues_between(op, 1.0, math.nan)
    with pytest.raises(ValueError, match="NaN"):
        point_spectrum_above(op, math.nan)


# Unchecked, each of these returns non-eigenvalues: NaNs, infs, -infs, inf.
def test_eigenvalues_between_rejects_both_bounds_infinite():
    with pytest.raises(ValueError, match="finite"):
        eigenvalues_between(build_truncated(1, 50), -math.inf, math.inf)


def test_eigenvalues_between_rejects_infinite_upper_bound():
    with pytest.raises(ValueError, match="finite"):
        eigenvalues_between(build_truncated(1, 50), 1.0, math.inf)


def test_point_spectrum_above_rejects_infinite_threshold():
    with pytest.raises(ValueError, match="finite"):
        point_spectrum_above(build_truncated(1, 50), -math.inf)


def test_eigen_bisection_rejects_infinite_bracket_end():
    op = build_truncated(1, 50)
    # (1.3, inf) holds exactly one eigenvalue, x_0 = sqrt(2)
    assert sturm_count(op, math.inf) - sturm_count(op, 1.3) == 1
    with pytest.raises(ValueError, match="finite"):
        eigen_bisection(op, (1.3, math.inf), 1e-12)


def test_threshold_above_gershgorin_bound_gives_nothing():
    op = build_truncated(1, 200)
    _, hi = op.gershgorin_interval()
    assert point_spectrum_above(op, hi + 2.0) == []
    assert point_spectrum_above(op, threshold=100.0) == []
    assert point_spectrum_above(op, hi + 1.0) == []
    assert eigenvalues_between(op, 2.0, 2.0) == []


def test_eigenvalues_between_rejects_reversed_interval():
    # (2, -2] is no interval; (-2, 2] holds all 50 eigenvalues
    op = build_truncated(1, 50)
    assert len(eigenvalues_between(op, -2.0, 2.0)) == 50
    with pytest.raises(ValueError, match="lo <= hi"):
        eigenvalues_between(op, 2.0, -2.0)
    with pytest.raises(ValueError, match="lo <= hi"):
        eigenvalues_between(op, 2.0, 1.0)


def test_eigenvalues_between_counts_each_bracket_end_once(monkeypatch):
    # Isolation hands each single-eigenvalue bracket to the refinement
    # with its known end counts; only bisection midpoints are counted.
    op = build_truncated(1, 200)
    calls = []
    original = spectral.sturm_count

    def counting(op, x):
        calls.append(x)
        return original(op, x)

    monkeypatch.setattr(spectral, "sturm_count", counting)
    found = point_spectrum_above(op, 1.0 + 1e-9, tol=1e-11)
    assert len(found) == 12
    assert len(calls) == len(set(calls))


def record_point_spectrum_path(monkeypatch, delta, size):
    """Every x at which isolation and refinement decide a count, whether
    the known counts or a real walk answer it, and the number of real
    walks: `sturm_count` calls and pivot walks."""
    decided = []
    count = spectral._KnownCounts.count

    def deciding(counts, x):
        decided.append(x)
        return count(counts, x)

    monkeypatch.setattr(spectral._KnownCounts, "count", deciding)
    record = record_walks(monkeypatch.setattr)
    point_spectrum_above(build_truncated(delta, size))
    digest = hashlib.sha256(
        "\n".join(x.hex() for x in decided).encode()).hexdigest()
    return len(decided), digest, len(record.real)


def test_point_spectrum_bisection_path_pinned(monkeypatch):
    # Every x at which the solver decides a count, recorded with the
    # one-loop early-stopping count when each was a real count: a count
    # that differs anywhere changes the midpoints that follow it.  The
    # mass-point seeds and the counts they decide, then the homing on
    # the last pivot steered by refined neighbours, leave 155 real walks
    # (62 counts, 2 per seed included, and 93 pivot walks).
    decided, digest, counted = record_point_spectrum_path(
        monkeypatch, Fraction(3, 4), 2206)
    assert decided == 1062
    assert digest == ("5118a9188eb190d80fe0adb3fc63a474"
                      "4d931ec7f850e075aa0738ef2208c78f")
    assert counted == 155


def test_point_spectrum_bisection_path_pinned_at_solver_size(monkeypatch):
    # The same record at a solvers-benchmark size, taken with the count
    # that tallied negative pivots; 192 real walks (90 counts and 102
    # pivot walks) decide the 1404.
    decided, digest, counted = record_point_spectrum_path(
        monkeypatch, Fraction(1, 2), 6978)
    assert decided == 1404
    assert digest == ("2b6518e8dd904ae563aacf1dc02a7a4c"
                      "2f547c1f6eddd23e9c15ee25626e6315")
    assert counted == 192


@pytest.mark.parametrize("solve", [
    lambda: point_spectrum_above(build_truncated(Fraction(3, 4), 2206)),
    lambda: point_spectrum_above(build_truncated(Fraction(1, 2), 400),
                                 1.0 + 1e-9, 1e-11),
    lambda: point_spectrum_above(build_truncated(0, 50), -2.0),
    lambda: point_spectrum_above(build_truncated(Fraction(5, 3), 3000)),
    lambda: eigen_bisection(build_truncated(1, 400), (1.40, 1.43), 1e-12),
    lambda: point_spectrum_above(build_truncated(Fraction(3, 4), 3134)),
    lambda: eigenvalues_between(build_truncated(Fraction(1, 3), 300),
                                -3.0, 4.0, 1e-9)])
def test_no_x_is_walked_or_counted_twice_in_one_solve(monkeypatch, solve):
    # The homing walks only strictly inside the tightest known bracket,
    # its last walks included, and the known counts answer every x
    # counted before.
    record = record_walks(monkeypatch.setattr)
    solve()
    assert record.real and len(record.real) == len(set(record.real))


def bisection_steps(a, b, tol):
    """The counts plain bisection of (a, b] takes down to width tol."""
    steps = 0
    while b - a > tol and a < 0.5 * (a + b) < b:
        a, steps = 0.5 * (a + b), steps + 1
    return steps


def record_homings(monkeypatch):
    """The list each refinement appends (its homing walks, plain
    bisection's counts on the tightest known bracket it starts from)
    to."""
    walked = record_walks(monkeypatch.setattr).walked
    refine = spectral._refine

    def recording(counts, lo, hi, c_lo, tol, guess=None):
        a, b = counts.gap(lo, hi, c_lo)
        start = len(walked)
        found = refine(counts, lo, hi, c_lo, tol, guess)
        homings.append((len(walked) - start, bisection_steps(a, b, tol)))
        return found

    homings = []
    monkeypatch.setattr(spectral, "_refine", recording)
    return homings


HOMING_SWEEP = [(delta, size, tol)
                for delta in (Fraction(1, 10), Fraction(1, 2), Fraction(3, 4),
                              Fraction(1), Fraction(2))
                for size in (50, 400, 2206, 5000)
                for tol in (1e-12, 1e-9, 1e-6)]


@pytest.fixture(scope="module")
def homing_sweep_spectra():
    """The point spectra of `HOMING_SWEEP`, computed once."""
    return [point_spectrum_above(build_truncated(delta, size), 1.0, tol)
            for delta, size, tol in HOMING_SWEEP]


def test_a_homing_walks_at_most_three_more_than_bisection(monkeypatch):
    # The slack: over the 1638 homings of the sweep, the guesses from
    # refined neighbours and the one-pole steps took at most 3 walks more
    # than plain bisection of the bracket they start from (7 times), and
    # 1054 took exactly as many; in all they took 2.5 times fewer.
    homings = record_homings(monkeypatch)
    for delta, size, tol in HOMING_SWEEP:
        point_spectrum_above(build_truncated(delta, size), 1.0, tol)
    assert len(homings) == 1638
    assert all(walks <= steps + 3 for walks, steps in homings)
    assert 2 * sum(w for w, _ in homings) < sum(s for _, s in homings)


@pytest.mark.parametrize("mislead", [
    lambda p, s, tol: (p + 100.0 * s, s),
    lambda p, s, tol: (p - 1e-7, 4.0 * tol),
    lambda p, s, tol: (p + 1e-7, 4.0 * tol)],
    ids=["100-spreads-off", "sure-and-below", "sure-and-above"])
def test_a_bad_guess_costs_a_few_walks_and_no_bits(monkeypatch, mislead,
                                                   homing_sweep_spectra):
    # The guess only steers which points are walked: a wrong one leaves
    # every bit, and costs at most 6 walks more than plain bisection of
    # the bracket (5 for 100 spreads off, 6 for a spread of 4 tol 1e-7
    # off: steps of 4**i spreads reach 1e-7 in about 7 walks).
    predict = spectral._predict

    def misleading(refined, c, tol):
        guess = predict(refined, c, tol)
        return guess and mislead(*guess, tol)

    monkeypatch.setattr(spectral, "_predict", misleading)
    homings = record_homings(monkeypatch)
    for (delta, size, tol), want in zip(HOMING_SWEEP, homing_sweep_spectra):
        found = point_spectrum_above(build_truncated(delta, size), 1.0, tol)
        assert [x.hex() for x in found] == [x.hex() for x in want]
    assert all(walks <= steps + 6 for walks, steps in homings)


def test_the_solvers_spectra_walk_a_fifth_fewer_rows(monkeypatch):
    # tests/spectral_walks.py's table: the homing steered only by the
    # last pivot walked 4,619,864 rows for these four spectra (406 counts
    # and 601 pivot walks); the guesses from refined neighbours and the
    # walks that end inside the bisection's last interval save a fifth,
    # and leave no refinement a real count to take: each midpoint the
    # known counts leave open gets homing walks until they decide it.
    record = record_walks(monkeypatch.setattr)
    refine = spectral._refine
    counted = []

    def refining(counts, *args):
        start = len(record.counted)  # homing steps walk, they never count
        found = refine(counts, *args)
        counted.append(len(record.counted) - start)
        return found

    monkeypatch.setattr(spectral, "_refine", refining)
    for delta, size in SOLVERS_SPECTRA:
        point_spectrum_above(build_truncated(delta, size))
    assert record.rows <= 0.8 * 4_619_864
    assert len(counted) == 198 and not any(counted)


# tests/spectral_walks.py's table: `sturm_count` calls, pivot walks and
# rows walked by each spectrum of the `solvers` list at seed 811.
SOLVERS_WALKS = {(Fraction(1, 2), 7345): (93, 106, 1_114_249),
                 (Fraction(3, 4), 3134): (74, 101, 434_923),
                 (Fraction(3, 4), 7345): (114, 128, 1_342_701),
                 (Fraction(1, 2), 3134): (60, 91, 383_074)}


@pytest.mark.parametrize("delta, size", SOLVERS_SPECTRA)
def test_the_solvers_walk_table_is_pinned(delta, size):
    record = spectrum_walks(delta, size)
    assert ((len(record.counted), len(record.walked), record.rows)
            == SOLVERS_WALKS[(delta, size)])


def test_a_step_outside_the_gap_walks_the_open_midpoint(monkeypatch):
    # The guard that keeps the refinement going: with `_inside` made to
    # return the end of the gap it should step inside of, every such
    # step walks the open midpoint instead, and the solve still walks no
    # x twice and keeps every bit.
    op = build_truncated(Fraction(1, 2), 2206)
    want = seedless_spectrum_above(op, 1.0, 1e-12)
    ends = []

    def at_the_end(lo, hi, tol, a, b, upper):
        assert len(ends) < 1000, "the refinement stopped making progress"
        ends.append(b if upper else a)
        return ends[-1]

    monkeypatch.setattr(spectral, "_inside", at_the_end)
    record = record_walks(monkeypatch.setattr)
    found = point_spectrum_above(op, 1.0, 1e-12)
    assert ends and len(record.real) == len(set(record.real))
    assert [x.hex() for x in found] == [x.hex() for x in want]


def test_eigen_bisection_matches_the_seedless_refinement():
    # The same bisection path as fresh counts at every midpoint, so the
    # same bits, with the homing steps in between.
    cases = [(build_truncated(1, 2), (1.2, 1.4), 1e-12),
             (build_truncated(1, 400), (1.40, 1.43), 1e-12),
             (build_truncated(1, 400), (1.10, 1.13), 1e-12)]
    # unseeded eigenvalues just above 1, and one inside the band
    op = build_truncated(Fraction(1, 2), 2206)
    for e in lowest_eigenvalues_above(op, 1.0, 3):
        cases.append((op, (e - 3e-7, e + 2e-7), 1e-12))
    op = build_truncated(0, 50)
    e = float_counting(op, 20)
    cases.append((op, (e - 0.01, e + 0.01), 1e-9))
    for op, (lo, hi), tol in cases:
        assert sturm_count(op, hi) - sturm_count(op, lo) == 1
        found = eigen_bisection(op, (lo, hi), tol)
        assert found.hex() == seedless_refine(op, lo, hi, tol).hex()


def seedless_refine(op, lo, hi, tol):
    """Bisection of (lo, hi] with a fresh `sturm_count` at every x."""
    c_lo = sturm_count(op, lo)
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if sturm_count(op, mid) > c_lo:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def seedless_spectrum_above(op, threshold, tol):
    """`point_spectrum_above` as it ran before counts were kept: the same
    isolation and refinement, with a fresh `sturm_count` at every x and
    no mass-point seeds."""
    lo = threshold
    hi = max(threshold, op.gershgorin_interval()[1] + 1.0)
    results = []
    stack = [(lo, hi, sturm_count(op, lo), sturm_count(op, hi))]
    while stack:
        a, b, ca, cb = stack.pop()
        k = cb - ca
        if k == 0:
            continue
        if k == 1:
            results.append(seedless_refine(op, a, b, tol))
            continue
        mid = 0.5 * (a + b)
        if not a < mid < b:
            results.extend([mid] * k)
            continue
        cm = sturm_count(op, mid)
        stack.append((a, mid, ca, cm))
        stack.append((mid, b, cm, cb))
    return sorted(results)


@pytest.mark.parametrize("threshold, tol", [(1.0, 1e-12), (1.0 + 1e-9, 1e-11)])
@pytest.mark.parametrize("size", [1, 2, 50, 400, 2206, 8000])
@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 10), Fraction(1, 2),
                                   Fraction(3, 4), Fraction(5, 3), Fraction(2)])
def test_point_spectrum_matches_the_seedless_reference(delta, size, threshold,
                                                       tol):
    op = build_truncated(delta, size)
    found = point_spectrum_above(op, threshold, tol)
    reference = seedless_spectrum_above(op, threshold, tol)
    assert [x.hex() for x in found] == [x.hex() for x in reference]


def test_point_spectrum_at_a_step_whose_float_square_overflows(monkeypatch):
    # (delta/k)**2 leaves the double range above delta/k ~ 1.3e154; from
    # 2**27 on, the seeds take delta/k itself, which the formula rounds to.
    found = point_spectrum_above(build_truncated(10 ** 200, 50))
    monkeypatch.setattr(spectral._KnownCounts, "seed", lambda self, lo: None)
    unseeded = point_spectrum_above(build_truncated(10 ** 200, 50))
    assert len(found) == 50
    assert [x.hex() for x in found] == [x.hex() for x in unseeded]


# float.hex() of point spectra, recorded with the full-walk Sturm count:
# the two smaller solvers-benchmark sizes and verify's settings.
GOLDEN_POINT_SPECTRA = {
    (Fraction(1, 2), 2206, 1.0, 1e-12): [
        "0x1.0001ebe5a8700p+0", "0x1.0004b0065d100p+0", "0x1.00074307a9f00p+0",
        "0x1.0009a1f3ca500p+0", "0x1.000bc89358900p+0", "0x1.000db16888500p+0",
        "0x1.000f5c70b2300p+0", "0x1.0010e9626f700p+0", "0x1.001292ad44f00p+0",
        "0x1.00147a0f5d500p+0", "0x1.0016b047a7900p+0", "0x1.0019477178b00p+0",
        "0x1.001c57033db00p+0", "0x1.001ffe0040100p+0", "0x1.0024661681b00p+0",
        "0x1.0029c85869b00p+0", "0x1.00307498fe500p+0", "0x1.0038dd3d74100p+0",
        "0x1.0043aae43cf00p+0", "0x1.0051de6ddd700p+0", "0x1.00650ed19a700p+0",
        "0x1.007fe00ff6300p+0", "0x1.00a6f89192500p+0", "0x1.00e3296fa1f00p+0",
        "0x1.0146dd6828900p+0", "0x1.01fe03f61b900p+0", "0x1.0387fcced3d00p+0",
        "0x1.07e0f66afed00p+0", "0x1.1e3779b97f700p+0",
    ],
    (Fraction(3, 4), 2206, 1.0, 1e-12): [
        "0x1.00015eb61a780p+0", "0x1.0004db8981b80p+0", "0x1.0008287615280p+0",
        "0x1.000b437ee2980p+0", "0x1.000e2a0336d80p+0", "0x1.0010d866ef880p+0",
        "0x1.001349a46d580p+0", "0x1.0015783790f80p+0", "0x1.0017693b46f80p+0",
        "0x1.0019452f3ec80p+0", "0x1.001b42a200280p+0", "0x1.001d7c0c4f080p+0",
        "0x1.001ffe003f380p+0", "0x1.0022d576b7880p+0", "0x1.0026125379e80p+0",
        "0x1.0029c85869f80p+0", "0x1.002e1055f1080p+0", "0x1.003309cde3b80p+0",
        "0x1.0038dd3d74280p+0", "0x1.003fbf5ef6a80p+0", "0x1.0047f5e2d8580p+0",
        "0x1.0051de6ddd180p+0", "0x1.005df9336f580p+0", "0x1.006cf977f0080p+0",
        "0x1.007fe00ff6280p+0", "0x1.0098276961d80p+0", "0x1.00b80fc032480p+0",
        "0x1.00e3296fa1e80p+0", "0x1.011f5eb541380p+0", "0x1.017717018cc80p+0",
        "0x1.01fe03f61bf80p+0", "0x1.02dd2dc67ed80p+0", "0x1.04760c95db280p+0",
        "0x1.07e0f66afee80p+0", "0x1.11687a8ae1780p+0", "0x1.4000000000180p+0",
    ],
    (Fraction(1, 2), 400, 1.0 + 1e-9, 1e-11): [
        "0x1.001288a082436p+0", "0x1.0033539069d2ap+0", "0x1.004e09979176ep+0",
        "0x1.0064cfd6a7288p+0", "0x1.007fdf96a2cbap+0", "0x1.00a6f89180456p+0",
        "0x1.00e3296f9d768p+0", "0x1.0146dd682c1fep+0", "0x1.01fe03f617aaap+0",
        "0x1.0387fcced8610p+0", "0x1.07e0f66b0370cp+0", "0x1.1e3779b97cb02p+0",
    ],
    (Fraction(1), 400, 1.0 + 1e-9, 1e-11): [
        "0x1.00288c3de40eep+0", "0x1.0057a988af880p+0", "0x1.008099769312cp+0",
        "0x1.00a2f3ca6ab08p+0", "0x1.00c14a1e4a598p+0", "0x1.00e328264df88p+0",
        "0x1.010e40af957d4p+0", "0x1.0146dd682adb2p+0", "0x1.01934d6174002p+0",
        "0x1.01fe03f61cceap+0", "0x1.02995b6ed3120p+0", "0x1.0387fcced666ap+0",
        "0x1.0511de5a81feep+0", "0x1.07e0f66afdf3cp+0", "0x1.0dd90273c4dc8p+0",
        "0x1.1e3779b981fe0p+0", "0x1.6a09e667f2e3cp+0",
    ],
}


@pytest.mark.parametrize("key", list(GOLDEN_POINT_SPECTRA))
def test_point_spectrum_bitwise_golden(key):
    delta, size, threshold, tol = key
    found = point_spectrum_above(build_truncated(delta, size), threshold,
                                 tol=tol)
    assert [x.hex() for x in found] == GOLDEN_POINT_SPECTRA[key]
