import ast
import math
import operator
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

import hydrogrid
from hydrogrid.numerics import (
    MixedRadicandError,
    _int_surd_to_float,
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

from surd_model import FractionSurd, rational_sqrt


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


def test_equivalent_radicands_are_one_field():
    # D1/D2 a rational square: one field, compared and hashed by value
    root8, two_root2 = QuadraticSurd(0, 1, 8), QuadraticSurd(0, 2, 2)
    root_half = QuadraticSurd(0, 1, Fraction(1, 2))
    half_root2 = QuadraticSurd(0, Fraction(1, 2), 2)
    assert root8 == two_root2 and hash(root8) == hash(two_root2)
    assert root_half == half_root2 and hash(root_half) == hash(half_root2)
    assert QuadraticSurd(1, 3, 18) == QuadraticSurd(1, 9, 2) == \
        QuadraticSurd(1, Fraction(9, 2), 8)
    # a mixed result keeps the left irrational operand's D
    assert str(root8 + two_root2) == "0+2√8"
    assert str(two_root2 + root8) == "0+4√2"
    assert str(QuadraticSurd(1) + root8) == "1+1√8"
    assert str(root_half * QuadraticSurd(3, 1, 2)) == "1+3√(1/2)"
    assert root8 * two_root2 == 8 and (root8 * two_root2).D == 0
    assert (root8 - two_root2).is_zero()
    assert two_root2 / root8 == 1
    assert root8 < QuadraticSurd(0, 3, 2) and not root8 < two_root2
    # different fields never compare equal, and do not mix
    assert root8 != QuadraticSurd(0, 1, 3)
    for other in (QuadraticSurd(0, 1, 3), QuadraticSurd(1, 1, Fraction(3, 8))):
        with pytest.raises(MixedRadicandError):
            root8 + other
        with pytest.raises(MixedRadicandError):
            root8 * other
        with pytest.raises(MixedRadicandError):
            root8 < other


@pytest.mark.parametrize("parts", [
    (0.1,), (0, 0.5, 2), (0, 1, 2.0), ("1/2", 1, "8"), (None,),
    (Decimal(1),), (0, 1, Decimal(2)), (1j,),
])
def test_surd_parts_must_be_int_or_fraction(parts):
    with pytest.raises(TypeError):
        QuadraticSurd(*parts)


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


def test_integer_core_rounds_under_heavy_cancellation():
    # (1 - sqrt(2))^k = A + B sqrt(2): A and B sqrt(2) cancel to a relative
    # 1e-30 at k = 40, and the numerators carry common factors with C
    a, b = 1, 0
    for k in range(1, 42):
        a, b = a - 2 * b, b - a
        if k < 40:
            continue
        for c in (1, 3, 10 ** 20):
            with mpmath.workprec(600):
                expected = float((1 - mpmath.sqrt(2)) ** k / c)
            value = _int_surd_to_float(a * 6, b * 6, c * 6, 2)
            assert value == expected
            assert value == surd_to_float(
                surd_pow(QuadraticSurd(1, -1, 2), k) / c)


def test_integer_core_rational_path():
    # B = 0 is one int/int division, whatever the radicand
    for a, c in ((1, 3), (-7, 10 ** 30), (0, 5), (10 ** 400, 10 ** 399)):
        for r in (2, 4, 0):
            assert _int_surd_to_float(a, 0, c, r) == float(Fraction(a, c))
    with pytest.raises(OverflowError):
        _int_surd_to_float(10 ** 400, 0, 1, 2)


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


def test_package_imports_only_the_standard_library():
    # no runtime dependencies: every import in the package, deferred ones
    # included, is relative or a standard-library module
    package = os.path.dirname(hydrogrid.__file__)
    modules = sorted(f for f in os.listdir(package) if f.endswith(".py"))
    assert "spectral.py" in modules
    for module in modules:
        with open(os.path.join(package, module), encoding="utf-8") as src:
            tree = ast.parse(src.read(), filename=module)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                assert name.split(".")[0] in sys.stdlib_module_names, \
                    f"{module} imports {name}"


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


# Radicands for the model comparison: perfect squares (which fold), 0, and
# non-squares, several of them equivalent (2, 8, 1/2, 18 and 5/4, 5, 20).
MODEL_RADICANDS = [Fraction(d) for d in (0, 1, 4, Fraction(9, 4), 2, 8,
                                         Fraction(1, 2), 18, Fraction(5, 4),
                                         5, 20, 3)]
model_parts = st.tuples(
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.fractions(min_value=-50, max_value=50, max_denominator=60),
    st.sampled_from(MODEL_RADICANDS))


def _agree(new, model):
    assert (new.a, new.b, new.D) == (model.a, model.b, model.D)
    assert str(new) == str(model)
    assert float(new) == float(model)
    assert new.sign() == model.sign()
    assert new.is_rational() == model.is_rational()
    if model.is_rational():
        assert new == model.a
        assert hash(new) == hash(model) == hash(model.a)


def _model_pair(x, y):
    """The model operands, y rewritten over x's radicand when the two are
    equivalent; None when they lie in different fields."""
    mx, my = FractionSurd(*x), FractionSurd(*y)
    if mx.b and my.b and mx.D != my.D:
        ratio = rational_sqrt(my.D / mx.D)
        if ratio is None:
            return None
        my = FractionSurd(my.a, my.b * ratio, mx.D)
    return mx, my


BINARY_OPS = (operator.add, operator.sub, operator.mul)


@settings(max_examples=300)
@given(model_parts, model_parts, st.integers(min_value=-3, max_value=5))
def test_surd_agrees_with_fraction_model(x, y, e):
    nx, ny = QuadraticSurd(*x), QuadraticSurd(*y)
    mx = FractionSurd(*x)
    _agree(nx, mx)
    _agree(-nx, -mx)
    _agree(abs(nx), mx if mx.sign() >= 0 else -mx)
    if mx.is_zero():
        with pytest.raises(ZeroDivisionError):
            nx.inverse()
    else:
        _agree(nx.inverse(), mx.inverse())
    if e >= 0 or not mx.is_zero():
        _agree(nx ** e, mx ** e)
    for r in (y[0], int(y[1])):
        for op in BINARY_OPS:
            _agree(op(nx, r), op(mx, r))
            _agree(op(r, nx), op(r, mx))
        assert (nx < r) == (mx < r) and (nx == r) == (mx == r)
        if r:
            _agree(nx / r, mx / r)
        if not mx.is_zero():
            _agree(r / nx, r / mx)

    pair = _model_pair(x, y)
    if pair is None:
        assert nx != ny
        for op in BINARY_OPS + (operator.truediv, operator.lt):
            with pytest.raises(MixedRadicandError):
                op(nx, ny)
        return
    mx, my = pair
    assert (nx == ny) == (mx == my)
    if nx == ny:
        assert hash(nx) == hash(ny)
    assert (nx < ny) == (mx < my)
    assert (nx <= ny) == (mx < my or mx == my)
    for op in BINARY_OPS:
        _agree(op(nx, ny), op(mx, my))
    if my.is_zero():
        with pytest.raises(ZeroDivisionError):
            nx / ny
    else:
        _agree(nx / ny, mx / my)
