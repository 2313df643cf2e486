"""One `solvers` job: the library's second routes at scale, in one process.

Usage: python3 perfbench/solvers_job.py SPEC_JSON
  e.g. SPEC_JSON = '{"delta": "1/2", "size": 4000, "n": 20}'

Computes the point spectrum above 1 of the operator truncated to `size` by
Sturm bisection, and the exact constraint-system solve for state `n`, and
prints both as one JSON object.  The benchmark checks them afterwards
against the mass points and `alpha_inner`.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction


def run_job(spec: dict) -> dict:
    import hydrogrid

    delta = Fraction(spec["delta"])
    spectrum = hydrogrid.point_spectrum_above(
        hydrogrid.build_truncated(delta, spec["size"]))
    alphas = hydrogrid.solve_constraint_system(
        hydrogrid.ansatz_constraint_system(spec["n"], delta))
    return {
        "eigenvalues": [repr(x) for x in spectrum],
        "alphas": [[str(a.a), str(a.b), str(a.D)] for a in alphas],
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    sys.stdout.write(json.dumps(run_job(json.loads(argv[0]))) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
