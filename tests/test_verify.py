"""The verify report catches a planted defect, and runs its identity checks
through the functions the benchmark traces."""

from fractions import Fraction

from hydrogrid import coordinate, pollaczek, spectral, verify

DELTA = Fraction(1, 2)


def _shifted(entries, at):
    """entries, the field's integers (a, b, den), with the entry at index
    `at` raised by one."""
    return [(a + den, b, den) if i == at else (a, b, den)
            for i, (a, b, den) in enumerate(entries)]


def _failing_checks():
    report = verify.run_verification(DELTA, 1, 3, 20)
    assert report["all_passed"] is False
    return {name for name, passed in report["checks"].items() if not passed}


def test_a_wrong_wavefunction_entry_fails_the_difference_residual(
        monkeypatch):
    stream = coordinate._wavefunction_integers

    def planted(n, delta, kmax):
        entries = stream(n, delta, kmax)
        return iter(_shifted(entries, 12)) if n == 2 else entries

    monkeypatch.setattr(coordinate, "_wavefunction_integers", planted)
    assert _failing_checks() == {"difference_residual_zero"}


def test_a_wrong_eigenvector_entry_fails_the_tridiagonal_identity(
        monkeypatch):
    vector = spectral._closed_form_integers

    def planted(n, delta, length):
        entries = vector(n, delta, length)
        return _shifted(entries, 15) if n == 3 else entries

    monkeypatch.setattr(spectral, "_closed_form_integers", planted)
    assert _failing_checks() == {"tridiagonal_eigen_identity"}


def test_a_wrong_closed_form_value_fails_the_recursion_check(monkeypatch):
    # both checks read the closed form's integers: the recursion check
    # all of its degrees, the tridiagonal identity those below kmax
    term = pollaczek.ClosedFormSequence._term

    def planted(self, j):
        a, b, den = term(self, j)
        return (a + den, b, den) if (j, self.mp.m) == (9, 2) else (a, b, den)

    monkeypatch.setattr(pollaczek.ClosedFormSequence, "_term", planted)
    assert _failing_checks() == {"closed_form_equals_recursion",
                                 "tridiagonal_eigen_identity"}


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

