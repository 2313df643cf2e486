"""What each benchmark job kind compiles and runs of hydrogrid's modules,
and what its collections cost.

The benchmark runs every job in a fresh process with no bytecode cached,
so each job compiles from source every hydrogrid module it loads, and
runs its body.  This module runs one job of each kind the same way, in a
fresh interpreter with no bytecode read or written, and reports each
hydrogrid module the job loaded: the milliseconds spent compiling it,
and those spent loading it otherwise, less the modules its load
imports.  It also reports the objects the CLI's program entry froze
(none for a solvers job, which never enters it), the count and
milliseconds of the full (generation 2) collections the job ran, and
the milliseconds of one full collection at its end, the first that
interpreter shutdown forces, which walks every object not frozen.  It
needs nothing but the standard library and hydrogrid, so the same table
can be replayed on any installed Python:

    PYTHONPATH=src python tests/import_cost.py

prints one line per (job kind, module), each kind's total, and one line
per kind for its collections.  A CLI job imports `hydrogrid.cli` and
calls its program entry, `entry`, with the job's arguments in
`sys.argv`, where the benchmark runs `python -m hydrogrid.cli`: the same
source, compiled once either way, and the same entry.
`tests/test_numerics.py` reads the solvers job's modules with
`job_costs`, so the two cannot drift apart.
"""

import contextlib
import gc
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# One job of each kind the benchmark's workloads run, at sizes inside
# their ranges; what a job loads does not depend on its sizes.
JOBS = {
    "verify": ["verify", "--delta", "1/2", "--n", "1..10", "--kmax", "50",
               "--output", "json"],
    "wavefunction": ["wavefunction", "--delta", "1/2", "--n", "1..8",
                     "--kmax", "160", "--mode", "float"],
    "pollaczek": ["pollaczek", "--delta", "3/4", "--n", "0..6", "--jmax",
                  "160", "--mode", "exact"],
    "coeffs": ["coeffs", "--delta", "1/2", "--n", "16..20", "--kmax", "160",
               "--mode", "float"],
    "solvers": {"delta": "1/2", "size": 4000, "n": 20},
}


def _run_job(kind):
    """Run the job of that kind in this process, its output discarded."""
    job = JOBS[kind]
    with contextlib.redirect_stdout(io.StringIO()):
        if kind != "solvers":
            import hydrogrid.cli
            sys.argv = ["hydrogrid", *job]
            hydrogrid.cli.entry()
            return
        from fractions import Fraction

        import hydrogrid
        delta = Fraction(job["delta"])
        hydrogrid.point_spectrum_above(
            hydrogrid.build_truncated(delta, job["size"]))
        hydrogrid.solve_constraint_system(
            hydrogrid.ansatz_constraint_system(job["n"], delta))


def _child(kind):
    """Run one job with every module load, source compile and full
    collection timed, and print as JSON the loads [(module, compile s,
    load s)] in the order they end, the objects frozen, the full
    collections' [count, s] and the s of one full collection after it.

    Every import that loads a module, by an import statement or by
    `importlib.import_module`, goes through `importlib._bootstrap`'s
    `_load_unlocked`, which is timed here; a load's own time is its time
    less that of the loads it makes.  `-X importtime` would miss the
    loads that `importlib.import_module` and `from package import
    submodule` make, and count them in the importing module.
    """
    from importlib import _bootstrap
    from importlib.machinery import SourceFileLoader

    compiled, loads, nested = {}, [], [0.0]
    to_code, load = SourceFileLoader.source_to_code, _bootstrap._load_unlocked

    def source_to_code(self, data, path, *, _optimize=-1):
        start = time.perf_counter()
        code = to_code(self, data, path, _optimize=_optimize)
        compiled[self.name] = time.perf_counter() - start
        return code

    def timed_load(spec):
        nested.append(0.0)
        start = time.perf_counter()
        try:
            return load(spec)
        finally:
            elapsed = time.perf_counter() - start
            inner = nested.pop()
            nested[-1] += elapsed
            loads.append((spec.name, compiled.get(spec.name, 0.0),
                          elapsed - inner))

    full, started = [0, 0.0], []

    def timed_collection(phase, info):
        if info["generation"] != 2:
            return
        if phase == "start":
            started.append(time.perf_counter())
        else:
            full[0] += 1
            full[1] += time.perf_counter() - started.pop()

    SourceFileLoader.source_to_code = source_to_code
    _bootstrap._load_unlocked = timed_load
    gc.callbacks.append(timed_collection)
    _run_job(kind)
    gc.callbacks.remove(timed_collection)
    start = time.perf_counter()
    gc.collect()
    end = time.perf_counter() - start
    print(json.dumps({"loads": loads, "frozen": gc.get_freeze_count(),
                      "full": full, "end": end}))


def job_report(kind):
    """The child's report for one fresh job of that kind: {"loads":
    [(module, compile s, load s)], "frozen": objects, "full": [count, s],
    "end": s}, as `_child` prints it.

    An empty bytecode cache prefix makes every module compile from
    source, as in a fresh checkout.
    """
    with tempfile.TemporaryDirectory() as cache:
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPYCACHEPREFIX=cache,
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, __file__, "--child", kind],
                              env=env, capture_output=True, text=True,
                              check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def _module_costs(report):
    return [(name, 1e3 * compile_s, 1e3 * (load_s - compile_s))
            for name, compile_s, load_s in report["loads"]
            if name == "hydrogrid" or name.startswith("hydrogrid.")]


def job_costs(kind):
    """[(module, compile ms, run ms)] for each hydrogrid module one fresh
    job of that kind loads, in the order the loads end.

    The run time is the module's own load time less its compile time.
    """
    return _module_costs(job_report(kind))


def main():
    print(f"{'job':<13} {'module':<22} {'compile ms':>10} {'run ms':>7}")
    collections = []
    for kind in JOBS:
        report = job_report(kind)
        costs = _module_costs(report)
        for name, compile_ms, run_ms in costs:
            print(f"{kind:<13} {name:<22} {compile_ms:>10.2f} {run_ms:>7.2f}")
        print(f"{kind:<13} {'total':<22} "
              f"{sum(c for _, c, _ in costs):>10.2f} "
              f"{sum(r for *_, r in costs):>7.2f}")
        collections.append((kind, report["frozen"], *report["full"],
                            report["end"]))
    print()
    print(f"{'job':<13} {'frozen':>8} {'full gcs':>8} {'gc ms':>7} "
          f"{'end gc ms':>9}")
    for kind, frozen, count, seconds, end in collections:
        print(f"{kind:<13} {frozen:>8} {count:>8} {1e3 * seconds:>7.2f} "
              f"{1e3 * end:>9.2f}")
    return 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        _child(sys.argv[2])
        sys.exit(0)
    sys.exit(main())
