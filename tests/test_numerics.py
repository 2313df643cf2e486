import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import hydrogrid
from hydrogrid.numerics import (
    MixedRadicandError,
    NegativeRadicandError,
    QuadraticSurd,
    as_surd,
    floats_close,
    parse_rational,
    surd_from_json,
    surd_pow,
    surd_to_float,
    surd_to_json,
)


def test_sqrt2_squared():
    r2 = QuadraticSurd(0, 1, 2)
    assert r2 * r2 == QuadraticSurd(2, 0, 2)


def test_conjugate_product():
    x = QuadraticSurd(1, 1, 2)
    y = QuadraticSurd(1, -1, 2)
    assert x * y == QuadraticSurd(-1, 0, 2)


def test_mixed_fraction_product():
    x = QuadraticSurd(Fraction(1, 2), Fraction(1, 3), 5)
    y = QuadraticSurd(2, 3, 5)
    assert x * y == QuadraticSurd(6, Fraction(13, 6), 5)


def test_division_inverse_roundtrip():
    x = QuadraticSurd(3, -2, 2)
    y = QuadraticSurd(Fraction(1, 7), 5, 2)
    assert (x / y) * y == x


def test_division_by_zero():
    x = QuadraticSurd(1, 1, 2)
    with pytest.raises(ZeroDivisionError):
        x / QuadraticSurd(0, 0, 2)


def test_mismatched_radicands_rejected():
    with pytest.raises(MixedRadicandError):
        QuadraticSurd(1, 1, 2) + QuadraticSurd(1, 1, 3)


def test_rational_surd_combines_with_any_radicand():
    rational = QuadraticSurd(5, 0, 7)  # normalizes to (5, 0, 0)
    assert rational.D == 0
    assert rational + QuadraticSurd(0, 1, 2) == QuadraticSurd(5, 1, 2)


def test_perfect_square_radicand_folds():
    assert QuadraticSurd(1, 2, Fraction(9, 4)) == QuadraticSurd(4)
    assert QuadraticSurd(0, 1, 1) == 1


def test_negative_radicand_rejected():
    with pytest.raises(NegativeRadicandError):
        QuadraticSurd(0, 1, -2)


def test_pow_binomial():
    q = QuadraticSurd(-1, 1, 2)  # sqrt(2) - 1
    assert surd_pow(q, 2) == QuadraticSurd(3, -2, 2)
    assert surd_pow(q, 0) == 1


def test_pow_cube_matches_repeated_multiplication():
    # oracle: explicit repeated exact multiplication
    q = QuadraticSurd(-1, 1, 2)
    by_hand = q * q * q
    assert surd_pow(q, 3) == by_hand
    assert by_hand == QuadraticSurd(-7, 5, 2)


def test_float_known_constants():
    assert surd_to_float(QuadraticSurd(0, 1, 2)) == math.sqrt(2)
    assert surd_to_float(QuadraticSurd(1, 0, 7)) == 1.0


def test_float_matches_high_precision_oracle():
    # oracle: 200-bit square root via mpmath
    with mpmath.workprec(200):
        expected = float(mpmath.sqrt(2) - 1)
    assert surd_to_float(QuadraticSurd(-1, 1, 2)) == expected


def test_float_survives_catastrophic_cancellation():
    # (sqrt(2)-1)^120: naive double evaluation of a + b*sqrt(2) is pure noise
    q = surd_pow(QuadraticSurd(-1, 1, 2), 120)
    with mpmath.workprec(400):
        expected = float((mpmath.sqrt(2) - 1) ** 120)
    assert surd_to_float(q) == expected


def test_float_never_reports_zero_for_nonzero_surd():
    # regression: a and b*sqrt(D) can agree to far below one ulp of the
    # working precision, rounding the low-precision sum to exactly 0
    q100 = surd_pow(QuadraticSurd(-1, 1, 2), 100)
    value = surd_to_float(q100)
    assert value != 0.0
    with mpmath.workprec(600):
        expected = float((mpmath.sqrt(2) - 1) ** 100)
    assert value == expected


def _mp_oracle(x):
    with mpmath.workprec(4000):
        d = mpmath.mpf(x.D.numerator) / x.D.denominator
        return float(mpmath.mpf(x.a.numerator) / x.a.denominator
                     + mpmath.mpf(x.b.numerator) / x.b.denominator
                     * mpmath.sqrt(d))


def _rounds_to(x, value):
    """x lies strictly inside the interval of reals that round to value."""
    lo = (Fraction(value) + Fraction(math.nextafter(value, -math.inf))) / 2
    hi = (Fraction(value) + Fraction(math.nextafter(value, math.inf))) / 2
    return (x - lo).sign() > 0 and (x - hi).sign() < 0


# parts with six-digit numerators and denominators
parts = st.fractions(min_value=-10 ** 6, max_value=10 ** 6,
                     max_denominator=10 ** 6)


@settings(max_examples=300)
@given(parts, parts, parts.map(abs))
def test_float_is_correctly_rounded_random_surds(a, b, d):
    x = QuadraticSurd(a, b, d)
    value = surd_to_float(x)
    if x.is_rational():
        assert value == float(x.a)
        return
    assert value == _mp_oracle(x)
    assert _rounds_to(x, value)


@settings(max_examples=150)
@given(st.sampled_from([QuadraticSurd(-1, 1, 2),
                        QuadraticSurd(Fraction(-1, 2), 1, Fraction(5, 4)),
                        QuadraticSurd(Fraction(-2, 3), 1, Fraction(13, 9))]),
       st.integers(min_value=1, max_value=400), st.sampled_from([1, -1]))
def test_float_is_correctly_rounded_decay_powers(q, k, sign):
    # a and b*sqrt(D) of q**k cancel to a relative 1e-150 at k = 400
    x = sign * q ** k
    value = surd_to_float(x)
    assert value == _mp_oracle(x)
    assert _rounds_to(x, value)


def test_float_overflow_raises_like_fraction():
    with pytest.raises(OverflowError):
        float(Fraction(10 ** 400))
    for x in (QuadraticSurd(10 ** 400, 1, 2), QuadraticSurd(-10 ** 400, 1, 2),
              QuadraticSurd(0, 10 ** 308, 5)):
        with pytest.raises(OverflowError):
            surd_to_float(x)
    # just below the overflow threshold of 2**1024 - 2**970 a value rounds
    # to the largest double; just above it overflows
    edge = Fraction(2 ** 1024 - 2 ** 970)
    assert surd_to_float(QuadraticSurd(edge, Fraction(-1, 10 ** 30), 2)) \
        == sys.float_info.max
    with pytest.raises(OverflowError):
        surd_to_float(QuadraticSurd(edge, Fraction(1, 10 ** 30), 2))


def test_float_underflow_keeps_sign():
    tiny = surd_pow(QuadraticSurd(-1, 1, 2), 1100)  # about 1e-421
    assert math.copysign(1.0, surd_to_float(tiny)) == 1.0
    assert surd_to_float(tiny) == 0.0
    assert math.copysign(1.0, surd_to_float(-tiny)) == -1.0
    subnormal = surd_pow(QuadraticSurd(-1, 1, 2), 840)
    value = surd_to_float(subnormal)
    assert 0.0 < value < sys.float_info.min
    assert _rounds_to(subnormal, value)


def test_rational_operand_multiply_and_divide():
    x = QuadraticSurd(Fraction(3, 2), Fraction(-5, 7), Fraction(5, 4))
    for r in (3, -2, Fraction(7, 9), Fraction(-1, 5)):
        assert x * r == r * x == x * QuadraticSurd(r)
        assert x / r == x * QuadraticSurd(r).inverse()
    assert x * 0 == 0 and (x * 0).D == 0
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroDivisionError):
            x / zero


def test_import_loads_neither_numpy_nor_mpmath():
    src = os.path.dirname(os.path.dirname(hydrogrid.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, hydrogrid, hydrogrid.cli; "
         "print('numpy' in sys.modules, 'mpmath' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True).stdout
    assert out.split() == ["False", "False"]


def test_sign_and_ordering():
    small = QuadraticSurd(-1, 1, 2)     # 0.414...
    smaller = QuadraticSurd(3, -2, 2)   # 0.171...
    assert small.sign() == 1
    assert (-small).sign() == -1
    assert smaller < small
    assert abs(-small) == small
    assert QuadraticSurd(0, 0, 2).sign() == 0


def test_json_roundtrip():
    x = QuadraticSurd(Fraction(-7, 3), Fraction(5, 2), Fraction(10, 9))
    blob = surd_to_json(x)
    assert blob == {"a": "-7/3", "b": "5/2", "D": "10/9"}
    assert surd_from_json(blob) == x


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("0.25") == Fraction(1, 4)
    assert parse_rational("-2") == -2
    with pytest.raises(ValueError):
        parse_rational("1e-3")
    assert parse_rational("1e-3", allow_exponent=True) == Fraction(1, 1000)
    assert parse_rational("1/2", allow_exponent=True) == Fraction(1, 2)
    with pytest.raises(ValueError):
        parse_rational("nan")
    with pytest.raises(ValueError):
        parse_rational("1/0")


def test_floats_close_policy():
    assert floats_close(1.0, 1.0 + 5e-11)
    assert not floats_close(1.0, 1.0 + 5e-10)
    assert floats_close(0.0, 5e-15)


rationals = st.fractions(min_value=-10, max_value=10, max_denominator=10 ** 6)


def surds(d):
    return st.builds(lambda a, b: QuadraticSurd(a, b, d), rationals, rationals)


@given(surds(2), surds(2), surds(2))
def test_field_axioms_hold_exactly(x, y, z):
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == 0
    if not x.is_zero():
        assert x * x.inverse() == 1


@given(surds(Fraction(5, 4)), surds(Fraction(5, 4)))
def test_float_product_within_4_ulp(x, y):
    lhs = surd_to_float(x * y)
    rhs = surd_to_float(x) * surd_to_float(y)
    assert abs(lhs - rhs) <= 4 * math.ulp(max(abs(lhs), math.ulp(0.0)))


@given(rationals, rationals)
def test_rational_normal_form(p, q):
    f = p * q + p - q
    assert f.denominator > 0
    assert math.gcd(f.numerator, f.denominator) == 1


def test_surds_are_immutable_and_hashable():
    x = QuadraticSurd(1, 1, 2)
    assert hash(x) == hash(QuadraticSurd(1, 1, 2))
    assert hash(as_surd(Fraction(3, 2))) == hash(Fraction(3, 2))
    with pytest.raises(AttributeError):
        x.a = Fraction(2)  # type: ignore[misc]


def test_str_forms():
    assert str(QuadraticSurd(0, 1, 2)) == "0+1√2"
    assert str(QuadraticSurd(3, -2, 2)) == "3-2√2"
    assert str(QuadraticSurd(0, 1, Fraction(5, 4))) == "0+1√(5/4)"
    assert str(QuadraticSurd(Fraction(3, 2))) == "3/2"
