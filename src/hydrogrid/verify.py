"""Cross-module invariant suite and diagnostic report.

Every boolean check here is an identity the implementation must satisfy;
the diagnostics section carries the quantities that are reported for
human inspection rather than asserted (the competing conventions for the
degree-1 initial value, the per-degree ratios between the literal
trigonometric sum and the recursion, and the order-normalized inner
coefficients).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import coordinate, pollaczek, spectral
from .numerics import (QuadraticSurd, _index, _step, floats_close,
                       surd_to_float)


def _check_surd_field_axioms() -> bool:
    samples = [
        (QuadraticSurd(1, 2, 2), QuadraticSurd(Fraction(-1, 3), 1, 2),
         QuadraticSurd(2, Fraction(5, 7), 2)),
        (QuadraticSurd(Fraction(1, 2), Fraction(1, 3), Fraction(5, 4)),
         QuadraticSurd(-2, 3, Fraction(5, 4)),
         QuadraticSurd(0, Fraction(-7, 5), Fraction(5, 4))),
    ]
    for x, y, z in samples:
        if (x + y) + z != x + (y + z):
            return False
        if (x * y) * z != x * (y * z):
            return False
        if x * (y + z) != x * y + x * z:
            return False
        if not x.is_zero() and x * x.inverse() != 1:
            return False
        if x + (-x) != 0:
            return False
    return True


def _check_surd_float_products() -> bool:
    pairs = [
        (QuadraticSurd(1, 1, 2), QuadraticSurd(3, -2, 2)),
        (QuadraticSurd(Fraction(1, 2), Fraction(1, 3), 5),
         QuadraticSurd(2, 3, 5)),
        (QuadraticSurd(-1, 1, 2), QuadraticSurd(-1, 1, 2)),
    ]
    for x, y in pairs:
        lhs = surd_to_float(x * y)
        rhs = surd_to_float(x) * surd_to_float(y)
        if abs(lhs - rhs) > 4 * math.ulp(abs(lhs)):
            return False
    return True


def _check_rational_normal_form() -> bool:
    samples = [Fraction(6, 4), Fraction(-10, 8) * Fraction(4, 5),
               Fraction(3, 7) + Fraction(4, 7)]
    return all(math.gcd(f.numerator, f.denominator) == 1 and f.denominator > 0
               for f in samples)


def _check_mass_point_invariants(delta: Fraction, m_max: int) -> bool:
    return all(pollaczek.mass_point_invariants_hold(pollaczek.mass_point(m, delta))
               for m in range(m_max + 1))


def _check_beta_symmetry(limit: int = 12) -> bool:
    return all(pollaczek.beta_coeff(j, m) == pollaczek.beta_coeff(m, j)
               for j in range(limit + 1) for m in range(j + 1))


def _check_closed_vs_recursion(delta: Fraction, j_max: int, m_max: int) -> bool:
    """The closed-form sequence, from the generating function, against the
    three-term recursion at each mass point, on the field's integers:
    (a + b sqrt(p))/den and (A + B sqrt(p))/C are equal exactly when
    a C = A den and b C = B den."""
    for m in range(m_max + 1):
        mp = pollaczek.mass_point(m, delta)
        seq = mp.sequence
        values = pollaczek.pollaczek_seq(delta, mp.mu, j_max)
        for j, value in enumerate(values):
            a, b, den = seq._term(j)
            big_a, big_b, c = mp.field.parts(value)
            if a * c != big_a * den or b * c != big_b * den:
                return False
    return True


def _check_branch_agreement(delta: Fraction, m_max: int) -> bool:
    """The paper's two closed forms at j = m, its degree-j sum and its
    factorized high-degree form, both on surds, against the
    generating-function sequence: at j = m the two forms are one sum."""
    mps = (pollaczek.mass_point(m, delta) for m in range(m_max + 1))
    return all(pollaczek._closed_branch_low(mp.m, mp)
               == pollaczek._closed_branch_high(mp.m, mp)
               == mp.sequence.value(mp.m) for mp in mps)


def _check_chebyshev_reduction() -> bool:
    for theta in (0.3, 1.0, 2.2):
        seq = pollaczek.pollaczek_seq(0, math.cos(theta), 8)
        for j, value in enumerate(seq):
            if not floats_close(value, pollaczek.chebyshev_u(j, theta),
                                rel_tol=1e-9, abs_tol=1e-9):
                return False
    return True


def _check_eigen_invariants(delta: Fraction, n_max: int) -> bool:
    # mu**2 - t**2 = 1 and q(mu + t) = 1 are the mass point's invariants
    for n in range(1, n_max + 1):
        ed = coordinate.eigen_data(n, delta)
        if not (pollaczek.mass_point_invariants_hold(ed)
                and -delta * delta * ed.E + 1 == ed.mu):
            return False
    return True


def _check_alpha_leading_forms(n_hi: int) -> bool:
    for n in range(5, n_hi + 1):
        table = coordinate.alpha_inner(n, min(4, n - 1))
        if table.inner_coeff(2, 1) != Fraction(3 * n - 1, 3 * n * n * (n - 1)):
            return False
        if table.inner_coeff(3, 1) != Fraction(1, n * (n - 2)):
            return False
        if table.inner_coeff(4, 1) != Fraction(2 * (n - 1), n * n * (n - 3)):
            return False
        if table.inner_coeff(4, 2) != Fraction(
                15 * n ** 3 - 30 * n ** 2 + 5 * n + 2,
                15 * n ** 4 * (n - 1) * (n - 2) * (n - 3)):
            return False
    return True


def _check_ansatz_equivalence(delta: Fraction, n_max: int) -> bool:
    for n in range(1, min(n_max, 12) + 1):
        system = coordinate.ansatz_constraint_system(n, delta)
        if (coordinate.solve_constraint_system(system)
                != coordinate.eigen_data(n, delta).alphas):
            return False
    return True


def _rows_vanish(delta: Fraction, n_max: int, vector) -> bool:
    """Every interior row of vector(n), the entries as the state's integers
    (a, b, den), is exactly zero, for n = 1..n_max."""
    return all(spectral.eigen_residual(
        vector(n), delta, coordinate.eigen_data(n, delta).mu).is_zero()
        for n in range(1, n_max + 1))


def _check_difference_residual(delta: Fraction, n_max: int, k_max: int) -> bool:
    # Rows 1..k_max over one pass of u_1..u_{k_max+1}, with u_0 = 0.
    return _rows_vanish(delta, n_max,
                        lambda n: coordinate._wavefunction_integers(
                            n, delta, k_max + 1))


def _check_continuum_limit() -> bool:
    for n in (1, 2, 3):
        target = 1.0 / (8 * n ** 4)
        for delta in (Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)):
            ratio = coordinate._continuum_gap(n, delta)[2]
            if abs(ratio - target) > 0.10 * target:
                return False
    return True


def _check_wavefunction_float(delta: Fraction, n_max: int) -> bool:
    for n in range(1, n_max + 1):
        values = tuple(coordinate.wavefunction_values(n, delta, 7))
        for k in (1, 3, 7):
            exact = float(values[k - 1])
            approx = coordinate.wavefunction_float(n, delta, k * delta)
            if not floats_close(exact, approx, rel_tol=1e-9, abs_tol=1e-12):
                return False
    return True


def _check_tridiagonal_identity(delta: Fraction, n_max: int, k_max: int) -> bool:
    # u_k = P_{k-1}(x_{n-1}), k = 1..k_max, as the sequence's integers
    return _rows_vanish(delta, n_max, lambda n: map(
        pollaczek.mass_point(n - 1, delta).sequence._term, range(k_max)))


def _check_bisection_mass_points(op: spectral.TridiagonalOperator) -> bool:
    # within 1e-8, or 4 ulps of a mass point past 2**24, where 1e-8 is
    # below the spacing of the doubles the bisection resolves
    found = spectral.point_spectrum_above(op, 1.0 + 1e-9, tol=1e-11)
    for m in range(4):
        target = surd_to_float(pollaczek.mass_point(m, op.delta).mu)
        bound = max(1e-8, 4 * math.ulp(target))
        if not any(abs(x - target) < bound for x in found):
            return False
    return True


def _check_orthonormal_gram(delta: Fraction, n_max: int) -> bool:
    states = list(range(1, min(n_max, 6) + 1))
    gram = spectral.gram_matrix(states, delta)
    size = len(states)
    for i in range(size):
        for j in range(size):
            target = 1.0 if i == j else 0.0
            if abs(gram[i][j] - target) > 1e-10:
                return False
    return True


def _check_exp_part(delta: Fraction, n_max: int) -> bool:
    for n in range(1, n_max + 1):
        for k in (0, 1, 5, 25, 100):
            exact = surd_to_float(spectral.exp_part(k, n, delta))
            ref = spectral.exp_part_float_reference(k, n, delta)
            if not floats_close(exact, ref, rel_tol=1e-10, abs_tol=1e-300):
                return False
    return True


def _check_coordinate_spectral_ratio(delta: Fraction, n_max: int) -> bool:
    for n in range(1, n_max + 1):
        try:
            spectral.coordinate_ratio(n, delta, length=8)
        except ArithmeticError:
            return False
    return True


def _diag_p1_convention(delta: Fraction) -> dict:
    mp = pollaczek.mass_point(0, delta)
    canonical = 2 * mp.mu - 2 * delta
    printed = 2 * mp.mu - delta
    return {
        "canonical_rule": "P_1 = 2(lam+a)x + 2b (recursion with P_{-1}=0)",
        "printed_rule": "P_1 = 2(lam+a)x + b",
        "at_x_0": {"canonical": str(canonical), "printed": str(printed)},
        "note": "the artifact uses the canonical value; the closed form at "
                "the mass points verifies exactly only under it",
    }


def _diag_trig_ratios(delta: Fraction, n_max: int = 6) -> dict:
    thetas = [0.4, 0.9, 1.7, 2.6]
    printed: dict[str, list[list[float]]] = {}
    conjugate: dict[str, list[list[float]]] = {}
    spread: dict[str, float] = {}
    for n in range(1, n_max + 1):
        ratios_p = []
        ratios_c = []
        for theta in thetas:
            x = math.cos(theta)
            rec = pollaczek.pollaczek_seq(delta, x, n)[n]
            tp = pollaczek.pollaczek_explicit_trig(1, 0, -delta, theta, n)
            tc = pollaczek.pollaczek_trig_conjugate(1, 0, -delta, theta, n)
            rp = rec / tp if abs(tp) > 1e-300 else complex("inf")
            rc = rec / tc if abs(tc) > 1e-300 else complex("inf")
            ratios_p.append([rp.real, rp.imag])
            ratios_c.append([rc.real, rc.imag])
        printed[str(n)] = ratios_p
        conjugate[str(n)] = ratios_c
        finite = [complex(re, im) for re, im in ratios_p
                  if math.isfinite(re) and math.isfinite(im)]
        if len(finite) >= 2:
            center = finite[0]
            spread[str(n)] = max(abs(r - center) for r in finite[1:])
        else:
            spread[str(n)] = float("inf")
    return {
        "thetas": thetas,
        "recursion_over_literal_sum": printed,
        "recursion_over_conjugate_sum": conjugate,
        "literal_ratio_spread_per_degree": spread,
        "note": "a theta-independent per-degree constant exists only for "
                "the conjugate-base sum; the literal sum's ratio varies "
                "with theta and is reported, not asserted",
    }


def _diag_alpha_order_normalized(delta: Fraction, n_values: list[int],
                                 kmax: int) -> dict:
    out: dict[str, str] = {}
    for n in n_values:
        table = coordinate.eigen_data(n, delta).alpha_table
        for k in range(2, min(kmax, n - 1) + 1):
            for m in range(1, k // 2 + 1):
                out[f"n={n},k={k},m={m}"] = str(table.order_normalized(k, m))
    return out


def _diag_band_count(op: spectral.TridiagonalOperator) -> int:
    return spectral.sturm_count(op, 1.0) - spectral.sturm_count(op, -1.0)


def run_verification(delta: Fraction, n_lo: int, n_hi: int, kmax: int) -> dict:
    """Run every module invariant at the given scale; returns the report.

    The configuration is checked as the CLI checks `verify`'s: delta > 0,
    1 <= n_lo <= n_hi and kmax >= 2.
    """
    delta = _step(delta)
    _index(n_lo, "n_lo", 1)
    _index(n_hi, "n_hi", n_lo)
    _index(kmax, "kmax", 2)
    m_max = max(n_hi - 1, 3)
    j_max = max(kmax, 12)
    op = spectral.build_truncated(delta, 400)
    checks = {
        "surd_field_axioms": _check_surd_field_axioms(),
        "surd_float_product_4ulp": _check_surd_float_products(),
        "rational_normal_form": _check_rational_normal_form(),
        "mass_point_invariants": _check_mass_point_invariants(delta, m_max),
        "beta_symmetry": _check_beta_symmetry(),
        "closed_form_equals_recursion": _check_closed_vs_recursion(
            delta, j_max, min(m_max, 10)),
        "branch_agreement_at_j_eq_m": _check_branch_agreement(delta, m_max),
        "chebyshev_reduction_at_delta_0": _check_chebyshev_reduction(),
        "eigen_data_invariants": _check_eigen_invariants(delta, n_hi),
        "alpha_printed_leading_forms": _check_alpha_leading_forms(max(n_hi, 12)),
        "ansatz_oracle_equivalence": _check_ansatz_equivalence(delta, n_hi),
        "difference_residual_zero": _check_difference_residual(
            delta, min(n_hi, 8), kmax),
        "continuum_energy_limit": _check_continuum_limit(),
        "wavefunction_float_agreement": _check_wavefunction_float(delta, n_hi),
        "tridiagonal_eigen_identity": _check_tridiagonal_identity(
            delta, min(n_hi, 8), kmax),
        "bisection_matches_mass_points": _check_bisection_mass_points(op),
        "orthonormal_gram": _check_orthonormal_gram(delta, n_hi),
        "exp_part_transcendental_agreement": _check_exp_part(delta, n_hi),
        "coordinate_spectral_proportionality": _check_coordinate_spectral_ratio(
            delta, min(n_hi, 8)),
    }
    diagnostics = {
        "p1_initial_condition": _diag_p1_convention(delta),
        "trig_per_degree_ratios": _diag_trig_ratios(delta),
        "alpha_order_normalized": _diag_alpha_order_normalized(
            delta, [n for n in (6, 8) if n <= max(n_hi, 6)], kmax),
        "eigenvalues_in_band_count": _diag_band_count(op),
    }
    return {
        "config": {"delta": str(delta), "n_range": [n_lo, n_hi], "kmax": kmax},
        "checks": checks,
        "diagnostics": diagnostics,
        "all_passed": all(checks.values()),
    }


def format_report_lines(report: dict) -> list[str]:
    lines = []
    for name, passed in report["checks"].items():
        lines.append(f"{'PASS' if passed else 'FAIL'}  {name}")
    lines.append(f"overall: {'PASS' if report['all_passed'] else 'FAIL'}")
    return lines
