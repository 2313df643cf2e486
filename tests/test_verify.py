"""The verify report catches a planted defect, and runs its identity checks
through the functions the benchmark traces."""

from fractions import Fraction

from hydrogrid import coordinate, pollaczek, spectral, verify

DELTA = Fraction(1, 2)


def _shifted(values, at):
    """values with the entry at index `at` raised by one."""
    return [v + 1 if i == at else v for i, v in enumerate(values)]


def _failing_checks():
    report = verify.run_verification(DELTA, 1, 3, 20)
    assert report["all_passed"] is False
    return {name for name, passed in report["checks"].items() if not passed}


def test_a_wrong_wavefunction_entry_fails_the_difference_residual(
        monkeypatch):
    stream = coordinate.wavefunction_values

    def planted(n, delta, kmax):
        values = stream(n, delta, kmax)
        return iter(_shifted(values, 12)) if n == 2 else values

    monkeypatch.setattr(coordinate, "wavefunction_values", planted)
    assert _failing_checks() == {"difference_residual_zero"}


def test_a_wrong_eigenvector_entry_fails_the_tridiagonal_identity(
        monkeypatch):
    vector = spectral.closed_form_vector

    def planted(n, delta, length):
        values = vector(n, delta, length)
        return tuple(_shifted(values, 15)) if n == 3 else values

    monkeypatch.setattr(spectral, "closed_form_vector", planted)
    assert _failing_checks() == {"tridiagonal_eigen_identity"}


def test_a_wrong_closed_form_value_fails_the_recursion_check(monkeypatch):
    closed = pollaczek.pollaczek_mass_closed

    def planted(j, mp):
        value = closed(j, mp)
        return value + 1 if (j, mp.m) == (9, 2) else value

    monkeypatch.setattr(pollaczek, "pollaczek_mass_closed", planted)
    assert _failing_checks() == {"closed_form_equals_recursion"}


def test_a_wrong_sequence_value_at_j_eq_m_fails_the_branch_check(
        monkeypatch):
    # the two printed forms are one sum at j = m and agreed with each other
    # whatever the sequence held; both are now held to the sequence
    value = pollaczek.ClosedFormSequence.value

    def planted(self, j):
        return value(self, j) + (1 if j == self.mp.m == 2 else 0)

    assert verify._check_branch_agreement(DELTA, 3)
    monkeypatch.setattr(pollaczek.ClosedFormSequence, "value", planted)
    assert not verify._check_branch_agreement(DELTA, 3)


def test_a_wrong_mu_fails_both_row_checks(monkeypatch):
    residual = spectral.eigen_residual

    def planted(entries, delta, mu):
        return residual(entries, delta, mu + Fraction(1, 10 ** 30))

    monkeypatch.setattr(spectral, "eigen_residual", planted)
    assert _failing_checks() == {"difference_residual_zero",
                                 "tridiagonal_eigen_identity"}


def test_the_identity_checks_run_through_the_traced_functions(monkeypatch):
    # the benchmark times spectral.eigen_residual and pollaczek.pollaczek_seq
    # as layers: 2 row checks x 8 states, 8 mass points for the recursion,
    # and 3 + 6 x 4 float recursions for the Chebyshev check and the
    # trigonometric diagnostic
    calls = {"eigen_residual": 0, "exact": 0, "float": 0}
    residual, recursion = spectral.eigen_residual, pollaczek.pollaczek_seq

    def counted_residual(*args):
        calls["eigen_residual"] += 1
        return residual(*args)

    def counted_recursion(delta, x, jmax):
        calls["float" if isinstance(x, float) else "exact"] += 1
        return recursion(delta, x, jmax)

    monkeypatch.setattr(spectral, "eigen_residual", counted_residual)
    monkeypatch.setattr(pollaczek, "pollaczek_seq", counted_recursion)
    assert verify.run_verification(DELTA, 1, 8, 40)["all_passed"]
    assert calls == {"eigen_residual": 16, "exact": 8, "float": 27}

