"""Run one benchmark job in this process with span tracing installed.

Usage: python3 perfbench/traced_job.py SPANS_PATH JOB_ID cli ARG...
       python3 perfbench/traced_job.py SPANS_PATH JOB_ID solvers SPEC_JSON

The job's standard output and exit status are those of the untraced job;
the spans are written to SPANS_PATH when the job ends.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import hydrogrid  # noqa: E402
import hydrogrid.cli  # noqa: E402,F401  (imported so its names are wrapped)
import hydrogrid.verify  # noqa: E402,F401

from tracer import Tracer  # noqa: E402


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[2] not in ("cli", "solvers"):
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    spans_path, job_id, kind, args = argv[0], argv[1], argv[2], argv[3:]
    tracer = Tracer(job_id)
    tracer.install(hydrogrid)
    try:
        if kind == "cli":
            code = hydrogrid.cli.main(args)
        else:
            import solvers_job
            code = solvers_job.main(args)
        sys.stdout.flush()
    finally:
        tracer.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
