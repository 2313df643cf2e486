"""The real Sturm counts behind the `solvers` benchmark's spectra.

A point spectrum is decided by two kinds of real count: `sturm_count`
calls, which stop early once the count is settled, and full pivot walks
(`spectral._pivot_walk`).  This module records both while
`point_spectrum_above` runs and counts the rows each one walks.  It needs
nothing but the standard library and hydrogrid, so the same table can be
replayed on any installed Python:

    PYTHONPATH=src python tests/spectral_walks.py

prints, for each spectrum of the `solvers` list at seed 811, the number
of `sturm_count` calls, pivot walks and rows walked, and their totals.
`tests/test_spectral.py` records its walks with `record_walks`, so the
two cannot drift apart.
"""

import math
import sys
from bisect import bisect_left
from fractions import Fraction

from hydrogrid import spectral

# (delta, size) of the four spectra in the `solvers` job list at seed 811
SOLVERS_SPECTRA = [(Fraction(1, 2), 7345), (Fraction(3, 4), 3134),
                   (Fraction(3, 4), 7345), (Fraction(1, 2), 3134)]


def sturm_rows(op, x):
    """The rows `sturm_count(op, x)` walks before it stops: every row
    before the tail, and the tail's rows through the first pivot at or
    below -0.5."""
    if x != x:
        return 0
    diag = op._diag
    tail = bisect_left(diag, True, key=lambda v: v - x <= -1.0)
    d = math.inf
    for i, v in enumerate(diag):
        d = v - x - 0.25 / d
        if i >= tail and d <= -0.5:
            return i + 1
        if d == 0.0:
            d = -sys.float_info.epsilon * (abs(v - x) + 1.0)
    return len(diag)


class WalkRecord:
    """The x of every `sturm_count` call and pivot walk, in call order,
    and the rows they walked."""

    def __init__(self):
        self.counted = []
        self.walked = []
        self.rows = 0

    @property
    def real(self):
        """Every x counted or walked, counts first."""
        return self.counted + self.walked


def record_walks(patch):
    """Route `spectral.sturm_count` and `spectral._pivot_walk` through
    recorders, with `patch(spectral, name, value)` (pytest's
    `monkeypatch.setattr`, or `setattr` when the caller restores them),
    and return the `WalkRecord` they fill."""
    record = WalkRecord()
    count, walk = spectral.sturm_count, spectral._pivot_walk

    def counting(op, x):
        record.counted.append(x)
        record.rows += sturm_rows(op, x)
        return count(op, x)

    def walking(op, x):
        record.walked.append(x)
        record.rows += op.size
        return walk(op, x)

    patch(spectral, "sturm_count", counting)
    patch(spectral, "_pivot_walk", walking)
    return record


def spectrum_walks(delta, size):
    """The `WalkRecord` of one `point_spectrum_above` at its defaults."""
    count, walk = spectral.sturm_count, spectral._pivot_walk
    try:
        record = record_walks(setattr)
        spectral.point_spectrum_above(spectral.build_truncated(delta, size))
    finally:
        spectral.sturm_count, spectral._pivot_walk = count, walk
    return record


def main():
    print(f"{'delta':>6} {'size':>6} {'counts':>7} {'walks':>6} {'rows':>10}")
    totals = [0, 0, 0]
    for delta, size in SOLVERS_SPECTRA:
        record = spectrum_walks(delta, size)
        row = [len(record.counted), len(record.walked), record.rows]
        totals = [t + r for t, r in zip(totals, row)]
        print(f"{str(delta):>6} {size:>6} {row[0]:>7} {row[1]:>6} "
              f"{row[2]:>10}")
    print(f"{'total':>13} {totals[0]:>7} {totals[1]:>6} {totals[2]:>10}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
