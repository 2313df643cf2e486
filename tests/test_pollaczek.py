import math
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from hydrogrid import coordinate
from hydrogrid.coordinate import EigenData, eigen_data
from hydrogrid.numerics import QuadraticSurd, floats_close, surd_pow
from hydrogrid.pollaczek import (
    ClosedFormSequence,
    _closed_branch_high,
    _closed_branch_low,
    beta_coeff,
    chebyshev_u,
    mass_point,
    mass_point_invariants_hold,
    pollaczek_explicit_trig,
    pollaczek_mass_closed,
    pollaczek_seq,
    pollaczek_trig_conjugate,
)

from float_rows import GRAM_DELTAS, count_fallbacks, gram_rows
from golden_stdout import GOLDEN_STDOUT, stdout_digest

DELTAS = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def test_mass_point_delta_one():
    mp = mass_point(0, 1)
    assert mp.mu == QuadraticSurd(0, 1, 2)
    assert mp.t == 1
    assert mp.q == QuadraticSurd(-1, 1, 2)


def test_mass_point_m1():
    mp = mass_point(1, 1)
    assert mp.mu == QuadraticSurd(0, 1, Fraction(5, 4))
    assert mp.t == Fraction(1, 2)


def test_mass_point_delta_zero_degenerate():
    mp = mass_point(3, 0)
    assert mp.mu == 1
    assert mp.q == 1


def test_mass_point_rejects_negative_index():
    with pytest.raises(ValueError):
        mass_point(-1, 1)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("n", range(1, 6))
def test_mass_point_is_the_eigen_data_bundle(n, delta):
    state = mass_point(n - 1, delta)
    assert state is eigen_data(n, delta)
    assert state.m == n - 1
    assert state.t == delta / n


def test_bundle_equality_is_identity():
    # one bundle per state, so a lookup keyed by it hashes its id
    mp = mass_point(2, Fraction(1, 2))
    twin = EigenData(mp.n, mp.delta)
    assert twin != mp
    assert mp == eigen_data(3, Fraction(1, 2))
    assert mp.sequence is eigen_data(3, Fraction(1, 2)).sequence
    assert twin.sequence is not mp.sequence


def test_beta_coeff_rejects_an_index_that_is_not_an_int_cold_and_warm():
    # cold, beta_coeff(2.0, 2) failed inside math.comb; warm, the untyped
    # cache it once had answered beta_coeff(3.0, 1) and beta_coeff(True, 1)
    # with the int entries
    for cold in ((2.0, 2), (2, 2.0), (True, 1), (1, False)):
        with pytest.raises(TypeError, match="beta index must be int"):
            beta_coeff(*cold)
    assert beta_coeff(3, 1) == 4 and beta_coeff(1, 1) == 2
    for warm in ((3.0, 1), (3, 1.0), (True, 1), (1, True)):
        with pytest.raises(TypeError, match="beta index must be int"):
            beta_coeff(*warm)


@pytest.mark.parametrize("m", [True, False, 1.0, 0.5, "1"])
def test_mass_point_rejects_an_index_that_is_not_an_int(m):
    # 1.0 used to fail deep in the surd constructor on a cold cache and
    # return state 2 on a warm one
    delta = Fraction(5, 13)
    with pytest.raises(TypeError, match="mass-point index must be int"):
        mass_point(m, delta)
    mp = mass_point(1, delta)
    with pytest.raises(TypeError, match="mass-point index must be int"):
        mass_point(m, delta)
    assert mass_point(1, delta) is mp and type(mp.n) is int


@pytest.mark.parametrize("j", [True, False, 5.0, 2.5, "1"])
def test_closed_form_degree_must_be_an_int(j):
    # True used to read P_1, and 5.0 extended the shared sequence to
    # degree 5 before it failed; a rejected read leaves it as it was
    mp = mass_point(2, Fraction(5, 19))
    sequence = mp.sequence
    sequence.float_value(1)
    held = len(sequence._terms), len(sequence._floats)
    for read in (sequence.value, sequence.float_value,
                 lambda j: pollaczek_mass_closed(j, mp)):
        with pytest.raises(TypeError, match="degree must be int"):
            read(j)
    assert (len(sequence._terms), len(sequence._floats)) == held


@pytest.mark.parametrize("m", range(4))
def test_mass_point_at_delta_zero_has_no_energy(m):
    with pytest.raises(ValueError, match="undefined at delta=0"):
        mass_point(m, 0).E
    with pytest.raises(ValueError, match="undefined at delta=0"):
        eigen_data(m + 1, 0)


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("m", range(6))
def test_mass_point_invariants(m, delta):
    assert mass_point_invariants_hold(mass_point(m, delta))


def test_mass_point_invariants_decide_q_exactly():
    # float(q) rounds to 1.0 at delta = 1e-20, though 0 < q < 1 holds
    mp = mass_point(0, Fraction(1, 10 ** 20))
    assert float(mp.q) == 1.0 and 0 < mp.q < 1
    assert mass_point_invariants_hold(mp)


def test_seq_first_values_delta_one():
    # hand-unrolled recursion at x = sqrt(2): P_1 = 2x - 2, P_2 = 9 - 6x
    mp = mass_point(0, 1)
    seq = pollaczek_seq(1, mp.mu, 2)
    assert seq[0] == 1
    assert seq[1] == QuadraticSurd(-2, 2, 2)
    assert seq[2] == QuadraticSurd(9, -6, 2)
    # cross-check the frozen P_2 against the factored form 3(x-1)^2
    assert seq[2] == 3 * surd_pow(mp.q, 2)


def test_seq_delta_zero_is_exact_chebyshev():
    x = Fraction(1, 3)
    seq = pollaczek_seq(0, x, 2)
    assert seq[1] == 2 * x
    assert seq[2] == 4 * x * x - 1


def test_seq_float_mode_matches_chebyshev_u():
    for theta in (0.3, 1.1, 2.5):
        seq = pollaczek_seq(0, math.cos(theta), 10)
        for j, value in enumerate(seq):
            assert floats_close(value, chebyshev_u(j, theta),
                                rel_tol=1e-9, abs_tol=1e-9)


def test_seq_rejects_negative_jmax():
    with pytest.raises(ValueError):
        pollaczek_seq(1, 1.0, -1)


def surd_recursion(delta, x, jmax):
    """The oracle for the integer recursion: the same three-term recursion
    on field objects, (j+1) P_{j+1} = 2((j+1)x - delta) P_j - (j+1) P_{j-1},
    in x's exact type (an int x runs as a Fraction)."""
    d = Fraction(delta)
    x = x if isinstance(x, QuadraticSurd) else Fraction(x)
    cur, prev = type(x)(1), type(x)(0)
    values = [cur]
    for j in range(jmax):
        nxt = (2 * ((j + 1) * x - d) * cur - (j + 1) * prev) / (j + 1)
        values.append(nxt)
        prev, cur = cur, nxt
    return values


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(-7, 3), 0, 3,
                                   0.375, -1.25])
@pytest.mark.parametrize("x", [
    QuadraticSurd(0, 1, Fraction(5, 4)),
    QuadraticSurd(Fraction(2, 5), Fraction(-1, 3), 7),
    QuadraticSurd(Fraction(-3, 4), Fraction(5, 2), Fraction(8, 9)),
    QuadraticSurd(Fraction(7, 5)),  # a rational surd
    Fraction(1, 3), Fraction(-9, 4), 2, 0,
], ids=["mu", "surd", "surd-D-8/9", "rational-surd", "1/3", "-9/4", "int-2",
        "int-0"])
@pytest.mark.parametrize("jmax", [0, 1, 2, 17])
def test_integer_recursion_equals_the_surd_recursion(delta, x, jmax):
    values = pollaczek_seq(delta, x, jmax)
    oracle = surd_recursion(delta, x, jmax)
    assert isinstance(values, tuple) and len(values) == jmax + 1
    assert list(values) == oracle
    # a surd x gives surds over x's radicand, a Fraction or int x Fractions
    kind = QuadraticSurd if isinstance(x, QuadraticSurd) else Fraction
    assert all(type(v) is kind for v in values)
    assert [str(v) for v in values] == [str(v) for v in oracle]


@pytest.mark.parametrize("delta, m", [(Fraction(1, 2), 3), (Fraction(3, 4), 10),
                                      (Fraction(12), 4)])
def test_integer_recursion_at_a_high_degree(delta, m):
    # far from the start, against the generating function's closed form;
    # at delta = 12, m = 4 the radicand is a square and mu is rational
    mp = mass_point(m, delta)
    values = pollaczek_seq(delta, mp.mu, 300)
    assert values[300] == pollaczek_mass_closed(300, mp)
    assert values[:40] == tuple(surd_recursion(delta, mp.mu, 39))


def test_seq_float_x_runs_in_doubles():
    values = pollaczek_seq(Fraction(1, 2), 0.25, 5)
    assert all(type(v) is float for v in values)
    exact = surd_recursion(Fraction(1, 2), Fraction(1, 4), 5)
    assert all(floats_close(v, float(e)) for v, e in zip(values, exact))


def test_beta_trivial_row():
    for m in range(8):
        assert beta_coeff(0, m) == 1


def test_beta_small_values_by_direct_summation():
    # beta(1,1) = 1 + (2/2)*1*1; beta(2,2) = 1 + 4 + 4/3
    assert beta_coeff(1, 1) == 2
    assert beta_coeff(2, 2) == Fraction(19, 3)


def test_beta_equals_its_defining_sum():
    # beta_coeff sums on integers over j + 1; the reference sums Fractions
    for j in range(25):
        for m in range(25):
            assert beta_coeff(j, m) == sum(
                Fraction(2 ** l, l + 1) * math.comb(j, l) * math.comb(m, l)
                for l in range(min(j, m) + 1))


@given(st.integers(0, 40), st.integers(0, 40))
def test_beta_symmetry(j, m):
    assert beta_coeff(j, m) == beta_coeff(m, j)


@pytest.mark.parametrize("filled", [0, 5])
def test_closed_form_sequence_rejects_negative_degree(filled):
    # a fresh sequence, so the empty case is not filled by other tests
    sequence = ClosedFormSequence(mass_point(2, Fraction(1, 2)))
    for j in range(filled):
        sequence.float_value(j)
    for j in (-1, -2):
        with pytest.raises(ValueError, match="degree"):
            sequence.value(j)
        with pytest.raises(ValueError, match="degree"):
            sequence.float_value(j)
    with pytest.raises(ValueError, match="degree"):
        pollaczek_mass_closed(-1, mass_point(2, Fraction(1, 2)))


def test_closed_form_sequence_keeps_each_degree_once():
    # the integers of a degree are its one copy: reading values keeps no
    # surd in the sequence, and every read rebuilds the same value
    mp = mass_point(3, Fraction(1, 2))
    sequence = ClosedFormSequence(mp)
    first = [sequence.value(j) for j in range(40)]
    assert [sequence.value(j) for j in range(40)] == first
    assert first == list(pollaczek_seq(Fraction(1, 2), mp.mu, 39))
    for held in vars(sequence).values():
        if isinstance(held, dict):
            held = list(held.values())
        if isinstance(held, (list, tuple)):
            assert not any(isinstance(x, QuadraticSurd) for x in held)


def test_closed_form_values_share_the_radicand_of_mu():
    # (a + b sqrt(p))/den is written over D = p/td^2, the r = p and s = td
    # of mu itself, so mixing a value with mu takes no field conversion
    mp = mass_point(2, Fraction(1, 2))
    value = ClosedFormSequence(mp).value(5)
    assert not value.is_rational()
    assert value.D == mp.mu.D
    assert (value._r, value._s) == (mp.mu._r, mp.mu._s)


def test_closed_degree_zero_is_one():
    for m in (0, 2, 5):
        assert pollaczek_mass_closed(0, mass_point(m, Fraction(1, 2))) == 1


def test_closed_j2_m0():
    mp = mass_point(0, 1)
    assert pollaczek_mass_closed(2, mp) == QuadraticSurd(9, -6, 2)


def test_closed_j2_m1_both_routes():
    mp = mass_point(1, 1)
    value = pollaczek_mass_closed(2, mp)
    # 3(x - s)(x - 3s) expanded at x = sqrt(5/4), s = 1/2
    assert value == 3 * (mp.mu - mp.t) * (mp.mu - 3 * mp.t)
    assert value == QuadraticSurd(6, -6, Fraction(5, 4))
    assert value == pollaczek_seq(1, mp.mu, 2)[2]


# delta = 0 puts every mass point at x = 1, where P_j(1) = j + 1; at
# delta = 12 the radicand is a square at m = 4 and m = 8 (s = 12/5, 4/3)
@pytest.mark.parametrize("delta", DELTAS + [Fraction(0), Fraction(12)])
def test_closed_form_equals_recursion(delta):
    for m in range(13):
        mp = mass_point(m, delta)
        seq = pollaczek_seq(delta, mp.mu, 60)
        for j in range(61):
            assert pollaczek_mass_closed(j, mp) == seq[j]
            if not delta:
                assert seq[j] == j + 1
        if delta == 12 and m in (4, 8):
            assert mp.mu.is_rational()


@pytest.mark.parametrize("delta", [Fraction(1, 2), Fraction(3, 4)])
def test_streamed_closed_form_equals_recursion(delta):
    coordinate._state.cache_clear()
    for m in range(7):
        mp = mass_point(m, delta)
        seq = pollaczek_seq(delta, mp.mu, 80)
        assert [pollaczek_mass_closed(j, mp) for j in range(81)] \
            == list(seq)


def test_closed_form_sequence_out_of_order_reads():
    delta = Fraction(2, 5)
    coordinate._state.cache_clear()
    mp = mass_point(3, delta)
    seq = pollaczek_seq(delta, mp.mu, 41)
    for j in (40, 2, 17, 0, 3, 4, 39):
        assert pollaczek_mass_closed(j, mp) == seq[j]
    sequence = mp.sequence
    for j in (25, 1, 41):
        assert sequence.float_value(j) == float(seq[j])
    assert sequence.value(41) == seq[41]


# The float row's kernel against the exact route, bit for bit: at
# delta = 10**20 every value from j = 17 on underflows, while the exact
# integers pass 25 000 bits by j = 400, so that sweep stops at j = 60.
@pytest.mark.parametrize("delta", [
    Fraction(1, 2), Fraction(3, 4), Fraction(1), Fraction(1, 3),
    Fraction(7, 3), Fraction(1, 10), Fraction(2, 7), Fraction(5, 2),
    Fraction(1, 100), Fraction(1, 10 ** 6), Fraction(10 ** 20)], ids=str)
def test_float_rows_round_as_the_exact_route(delta):
    jmax = 60 if delta > 10 ** 6 else 400
    for m in range(11):
        mp = mass_point(m, delta)
        sequence = ClosedFormSequence(mp)
        rows = [x.hex() for x in islice(sequence.floats(), jmax)]
        assert rows == [mp.field.to_float(*sequence._term(j)).hex()
                        for j in range(jmax)]


@pytest.mark.parametrize("den", [3, 3 * 10 ** 400],
                         ids=["normal", "underflow"])
def test_a_pair_whose_enclosure_holds_zero_takes_the_exact_route(den):
    # (9 + 4 sqrt(5))^40 = a + b sqrt(5) with a, b near 1e49, so
    # a - b sqrt(5) = (9 + 4 sqrt(5))^-40 is near 1e-50: the kernel's
    # 128-bit enclosure of b sqrt(5) holds 0 strictly inside.  Over
    # 3 10**400 both ends underflow, to zeros of opposite sign.
    field = mass_point(1, 1).field  # t = 1/2: p = 5, tn = 1, td = 2
    assert (field.p, field.tn, field.td) == (5, 1, 2)
    pair = (1, 0)
    for _ in range(40):
        pair = field.mul(pair, (9, 4))
    a, b = pair
    for tiny in ((a, -b), (-a, b)):
        with count_fallbacks() as fallbacks:
            value = next(field.q_floats([tiny], den))
        assert len(fallbacks) == 1
        # q = (sqrt(5) - 1)/2
        exact = field.to_float(*field.mul(tiny, (-1, 1)), den * 2)
        assert value.hex() == exact.hex()
        assert math.copysign(1.0, value) == (1.0 if tiny[0] > 0 else -1.0)
        assert (value == 0) == (den > 3)


def test_no_row_of_verify_or_the_golden_runs_takes_the_exact_fallback():
    # a loss of precision in the kernel shows here as fallbacks: verify's
    # Gram rows at the steps of tests/float_rows.py, and every float row
    # of the golden runs, each built cold
    with count_fallbacks() as fallbacks:
        for delta in GRAM_DELTAS:
            gram_rows(delta)
        coordinate._state.cache_clear()
        for argv, digest in GOLDEN_STDOUT:
            assert stdout_digest(argv) == (0, digest)
    assert fallbacks == []


def _check_both_reads(delta, m, jmax, floats_first):
    # A fresh sequence, not the shared one, so the read order is the
    # first its state sees.
    mp = mass_point(m, delta)
    sequence = ClosedFormSequence(mp)
    if floats_first:
        floats = [sequence.float_value(j) for j in range(jmax + 1)]
        values = [sequence.value(j) for j in range(jmax + 1)]
    else:
        values = [sequence.value(j) for j in range(jmax + 1)]
        floats = [sequence.float_value(j) for j in range(jmax + 1)]
    assert [f.hex() for f in floats] == [float(v).hex() for v in values]
    assert values == list(pollaczek_seq(delta, mp.mu, jmax))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(0, 8),
       st.integers(0, 200), st.booleans())
def test_sequence_reads_agree_bit_for_bit(r, s, m, jmax, floats_first):
    _check_both_reads(Fraction(r, s), m, jmax, floats_first)


@pytest.mark.parametrize("m", range(9))
def test_sequence_reads_agree_on_square_radicands(m):
    # s = 3/4 and 5/12 make D = 25/16 and 169/144: x_m is rational
    for delta in (Fraction(3 * (m + 1), 4), Fraction(5 * (m + 1), 12)):
        assert mass_point(m, delta).mu.is_rational()
        for floats_first in (True, False):
            _check_both_reads(delta, m, 60, floats_first)


@pytest.mark.parametrize("delta", DELTAS)
def test_branches_identical_at_j_equals_m(delta):
    for m in range(8):
        mp = mass_point(m, delta)
        assert _closed_branch_low(m, mp) == _closed_branch_high(m, mp)


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 3), Fraction(1, 2),
                                   Fraction(3, 4), Fraction(1), Fraction(7, 3)])
def test_factorized_form_equals_degree_j_sum_below_m(delta):
    # the paper's factorized form, with q^{j-m} = (x + s)^{m-j} for j < m,
    # against its degree-j sum, and past j = m against the sequence
    for m in range(12):
        mp = mass_point(m, delta)
        for j in range(m + 1):
            assert _closed_branch_high(j, mp) == _closed_branch_low(j, mp)
        if m <= 8:
            for j in range(m + 1, m + 21):
                assert _closed_branch_high(j, mp) == mp.sequence.value(j)


def test_closed_form_at_x0_is_q_power_times_degree_plus_one():
    # at m = 0 the factor of q^j is the constant j + 1: P_1 = 2q, P_2 = 3q^2
    mp = mass_point(0, 1)
    assert pollaczek_mass_closed(1, mp) == 2 * mp.q
    assert pollaczek_mass_closed(2, mp) == 3 * surd_pow(mp.q, 2)


def test_closed_form_degree_one_factor_times_q_power():
    mp = mass_point(1, 1)
    # second-branch formula: 4 * (x*beta(3,0) - s*C(1,1)*beta(3,1)), beta(3,1) = 4
    assert beta_coeff(3, 1) == 4
    assert pollaczek_mass_closed(3, mp) == \
        4 * (mp.mu - 4 * mp.t) * surd_pow(mp.q, 2)


def test_trig_degree_zero_is_one():
    assert pollaczek_explicit_trig(1, 0, Fraction(-1, 2), 0.7, 0) == 1


def test_trig_literal_value_degree_one():
    # literal sum at lam=1, a=b=0: e^{-i theta} - e^{i theta} = -2i sin(theta)
    for theta in (0.4, 1.2, 2.0):
        value = pollaczek_explicit_trig(1, 0, 0, theta, 1)
        expected = complex(0.0, -2.0 * math.sin(theta))
        assert abs(value - expected) < 1e-14


def test_trig_rejects_degenerate_theta():
    with pytest.raises(ValueError):
        pollaczek_explicit_trig(1, 0, 0, 0.0, 2)
    with pytest.raises(ValueError):
        pollaczek_explicit_trig(1, 0, 0, math.pi, 2)


@pytest.mark.parametrize("theta", [0.0, math.pi, -0.5, math.nan],
                         ids=["0", "pi", "-0.5", "nan"])
@pytest.mark.parametrize("call", [
    lambda theta: chebyshev_u(2, theta),
    lambda theta: pollaczek_explicit_trig(1, 0, 0, theta, 2),
    lambda theta: pollaczek_trig_conjugate(1, 0, 0, theta, 2),
], ids=["chebyshev_u", "explicit_trig", "trig_conjugate"])
def test_every_trig_evaluation_takes_theta_in_the_open_interval(call, theta):
    # chebyshev_u(2, 0.0) used to raise ZeroDivisionError, and
    # chebyshev_u(3, -0.5) returned a value
    with pytest.raises(ValueError, match=r"^theta must lie in the open "
                                         r"interval \(0, pi\)$"):
        call(theta)


def test_trig_conjugate_matches_recursion():
    # direct-summation oracle for the conjugate-base sum vs the recursion
    delta = Fraction(1, 2)
    for theta in (0.5, 1.0, 1.9, 2.7):
        x = math.cos(theta)
        seq = pollaczek_seq(delta, x, 6)
        for n in range(7):
            trig = pollaczek_trig_conjugate(1, 0, -delta, theta, n)
            assert abs(trig.imag) < 1e-10
            assert floats_close(trig.real, seq[n],
                                rel_tol=1e-9, abs_tol=1e-9)


def test_trig_sums_reach_degree_170_and_reject_171():
    # 171! leaves the double range: the sum raised OverflowError there
    delta = Fraction(1, 2)
    for theta in (0.4, 1.3, 2.6):
        seq = pollaczek_seq(delta, math.cos(theta), 170)
        trig = pollaczek_trig_conjugate(1, 0, -delta, theta, 170)
        assert floats_close(trig.real, seq[170], rel_tol=2e-13, abs_tol=0.0)
        assert math.isfinite(abs(pollaczek_explicit_trig(1, 0, -delta,
                                                         theta, 170)))
    for trig_sum in (pollaczek_explicit_trig, pollaczek_trig_conjugate):
        with pytest.raises(ValueError, match="^degree must be <= 170, "
                                             "got 171$"):
            trig_sum(1, 0, -delta, 1.3, 171)


def test_trig_literal_example_n2():
    # direct-summation oracle for the literal formula (delta=1/2, theta=pi/3)
    theta = math.pi / 3
    value = pollaczek_explicit_trig(1, 0, Fraction(-1, 2), theta, 2)
    phi = -0.5 / math.sin(theta)
    phase = complex(math.cos(2 * theta), math.sin(2 * theta))
    k0 = complex(1, phi) * complex(2, phi) / 2 / phase
    k1 = complex(-1, phi) * complex(1, phi)
    k2 = complex(-1, phi) * complex(0, phi) / 2 * phase
    assert abs(value - (k0 + k1 + k2)) < 1e-13
