import math
from fractions import Fraction

import numpy as np
import pytest

from hydrogrid import numerics, pollaczek, spectral
from hydrogrid.coordinate import eigen_data, wavefunction
from hydrogrid.numerics import QuadraticSurd, floats_close, surd_to_float
from hydrogrid.pollaczek import mass_point
from hydrogrid.spectral import (
    BracketError,
    SpectralVector,
    build_truncated,
    closed_form_vector,
    coordinate_ratio,
    eigen_bisection,
    eigen_residual,
    eigenvalues_between,
    exp_part,
    exp_part_float_reference,
    gram_matrix,
    inner_product,
    point_spectrum_above,
    sturm_count,
)

DELTAS = [Fraction(1, 2), Fraction(1), Fraction(3, 2)]


def test_build_small_operators():
    op = build_truncated(1, 1)
    assert op.materialize().tolist() == [[1.0]]
    op2 = build_truncated(1, 2)
    assert op2.materialize().tolist() == [[1.0, 0.5], [0.5, 0.5]]
    assert op2.diagonal(2) == Fraction(1, 2)
    assert op2.offdiagonal == Fraction(1, 2)


def test_build_rejects_empty():
    with pytest.raises(ValueError):
        build_truncated(1, 0)


def test_free_lattice_spectrum_inside_band():
    op = build_truncated(0, 3)
    eigs = np.linalg.eigvalsh(op.materialize())
    assert np.all(eigs > -1.0) and np.all(eigs < 1.0)


def test_sturm_single_row():
    op = build_truncated(1, 1)
    assert sturm_count(op, 2.0) == 1
    assert sturm_count(op, 0.5) == 0


def test_sturm_two_rows():
    # eigenvalues (3 +/- sqrt(5))/4 ~ 0.191, 1.309 from the characteristic
    # polynomial of [[1, 1/2], [1/2, 1/2]]
    op = build_truncated(1, 2)
    assert sturm_count(op, 1.0) == 1
    assert sturm_count(op, 0.1) == 0
    assert sturm_count(op, 1.5) == 2


def test_sturm_below_gershgorin_bound():
    for delta in DELTAS:
        assert sturm_count(build_truncated(delta, 50), -2.0) == 0


@pytest.mark.parametrize("size", [3, 7, 20])
def test_sturm_agrees_with_dense_diagonalization(size):
    # independent oracle: numpy dense eigenvalues
    op = build_truncated(Fraction(3, 4), size)
    eigs = np.linalg.eigvalsh(op.materialize())
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
        target = surd_to_float(mass_point(m, 1).x)
        assert any(abs(x - target) < 1e-8 for x in found)


def test_eigenvalues_between_matches_dense():
    op = build_truncated(Fraction(1, 2), 30)
    dense = np.linalg.eigvalsh(op.materialize())
    ours = eigenvalues_between(op, -2.0, 2.0, tol=1e-12)
    assert len(ours) == 30
    assert np.allclose(sorted(ours), dense, atol=1e-9)


def test_closed_form_vector_entries():
    vec = closed_form_vector(1, 1, 3)
    assert vec.entries == (QuadraticSurd(1), QuadraticSurd(-2, 2, 2),
                           QuadraticSurd(9, -6, 2))
    assert closed_form_vector(2, 1, 1).entries == (QuadraticSurd(1),)
    assert vec.provenance == "closed_form"


@pytest.mark.parametrize("delta", DELTAS)
@pytest.mark.parametrize("n", range(1, 7))
def test_eigen_residual_exactly_zero(n, delta):
    vec = closed_form_vector(n, delta, 25)
    residual = eigen_residual(vec, eigen_data(n, delta).mu)
    assert isinstance(residual, QuadraticSurd)
    assert residual.is_zero()


def test_eigen_residual_nonzero_for_random_vector():
    rng = np.random.default_rng(7)
    vec = SpectralVector(n=1, delta=Fraction(1),
                         entries=tuple(rng.standard_normal(10)),
                         provenance="diagonalization")
    assert eigen_residual(vec, math.sqrt(2)) > 1e-3


def test_eigen_residual_wrong_eigenvalue():
    # mu of the neighbouring state lives over another radicand; the check
    # falls back to floats and must be clearly nonzero
    vec = closed_form_vector(1, 1, 12)
    wrong_mu = eigen_data(2, 1).mu
    residual = eigen_residual(vec, wrong_mu)
    assert isinstance(residual, float)
    assert residual > 1e-2


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
        assert wavefunction(n, 1, k) == ratio * vec.entries[k - 1]


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
    # Every surd -> float conversion site: QuadraticSurd.__float__ reads the
    # numerics global; any module may also import the name.
    converted = []
    original = numerics.surd_to_float

    def counting(x, *args):
        converted.append(x)
        return original(x, *args)

    for mod in (numerics, pollaczek, spectral):
        if hasattr(mod, "surd_to_float"):
            monkeypatch.setattr(mod, "surd_to_float", counting)
    pollaczek.closed_form_sequence.cache_clear()
    states = list(range(1, 7))
    spectral.gram_matrix(states, Fraction(1, 2))
    pairs = len(states) * (len(states) + 1) // 2
    # One conversion per distinct (state, k) entry; on top of that the two
    # decay factors q of each pair, and P_0 = 1, which every state shares.
    assert len(set(converted)) > 1000
    assert len(converted) <= len(set(converted)) + 2 * pairs + len(states)
