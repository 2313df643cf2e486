"""The float rows behind verify's Gram check, and the kernel that rounds them.

`spectral.gram_matrix` sums the rows of `ClosedFormSequence.floats`, each
P_j(x_m) rounded by the field's `q_floats` kernel from an enclosure of
q^j; a value the enclosure cannot decide takes the kernel's exact
fallback, one `numerics._int_surd_to_float` call.  This module records,
for verify's Gram states at each step of `GRAM_DELTAS`, how many terms
the Gram sums read from each row, how many of them took the fallback,
and how long a cold row of that length takes to round.  It needs nothing
but the standard library and hydrogrid, so the same table can be
replayed on any installed Python:

    PYTHONPATH=src python tests/float_rows.py

prints one line per (delta, m).  `tests/test_pollaczek.py` counts the
fallbacks with `count_fallbacks`, so the two cannot drift apart.
"""

import contextlib
import sys
import time
from fractions import Fraction
from itertools import islice

from hydrogrid import coordinate, numerics, spectral
from hydrogrid.pollaczek import ClosedFormSequence, mass_point

GRAM_DELTAS = [Fraction(1, 2), Fraction(3, 4), Fraction(1, 10),
               Fraction(1, 40)]
# verify's Gram check takes the states 1..min(n_hi, 6)
GRAM_STATES = list(range(1, 7))


@contextlib.contextmanager
def count_fallbacks():
    """Route `numerics._int_surd_to_float` through a recorder for the
    duration, and yield the list of the arguments of every call made by
    `_StateField.q_floats`: one entry per exact fallback."""
    original = numerics._int_surd_to_float
    kernel = numerics._StateField.q_floats.__code__
    fallbacks = []

    def counting(*args):
        if sys._getframe(1).f_code is kernel:
            fallbacks.append(args)
        return original(*args)

    numerics._int_surd_to_float = counting
    try:
        yield fallbacks
    finally:
        numerics._int_surd_to_float = original


def gram_rows(delta, states=GRAM_STATES):
    """{m: the number of terms of P_j(x_m) that a cold
    `gram_matrix(states, delta)` reads}."""
    coordinate._state.cache_clear()
    spectral.gram_matrix(states, delta)
    return {n - 1: len(mass_point(n - 1, delta).sequence._floats)
            for n in states}


def row_table(delta):
    """(m, row length, fallbacks, seconds) for each Gram row at delta, each
    row rounded afresh by a new sequence."""
    for m, length in gram_rows(delta).items():
        sequence = ClosedFormSequence(mass_point(m, delta))
        with count_fallbacks() as fallbacks:
            start = time.perf_counter()
            for _ in islice(sequence.floats(), length):
                pass
            seconds = time.perf_counter() - start
        yield m, length, len(fallbacks), seconds


def main():
    print(f"{'delta':>6} {'m':>3} {'terms':>6} {'fallbacks':>9} {'ms':>8}")
    for delta in GRAM_DELTAS:
        for m, length, fallbacks, seconds in row_table(delta):
            print(f"{str(delta):>6} {m:>3} {length:>6} {fallbacks:>9} "
                  f"{seconds * 1e3:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
