"""hydrogrid benchmark: one workload, one seed, closed loop with one client.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S --trace 0|1

Run from the root of a hydrogrid checkout; the program under test is
imported from its `src/`.  The workload's seeded job list (see
`workloads.py`) runs one job at a time, each job in a fresh process as
users run the CLI, and the whole list repeats until the repetitions have
taken about S seconds.  Job outputs are checked afterwards, outside the
timed region, by the independent routes in `checks.py`; a job that exits
with an unexpected code, times out or fails its check counts as failed.

--trace 0 reports the end-to-end metrics:
    wall_s       wall time of the job list, interpreter start included
                 (sum over jobs of each job's median over repetitions)
    cpu_s        user + system CPU time of the job processes, likewise
    peak_rss_mb  highest peak RSS of any job process in the run
    setup_s      median wall time of a fresh-process `import hydrogrid`
Times are given at reference speed: the fixed work of `reference.py` runs
between timed processes, and each time is multiplied by REFERENCE_S over
the mean time of the reference runs just before and after it.  The
unscaled times are in the run's record.
--trace 1 runs each repetition once untraced and once with the spans of
`tracer.py` recorded, and reports the per-layer metrics of the traced
runs and trace.overhead_ratio (traced over untraced wall time).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A human-readable summary, the
failed_ratio included, goes to standard error, and the job list with
every execution is recorded under perfbench/.runs/ for replay.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from checks import check_job  # noqa: E402
from tracer import job_layer_stats, read_spans  # noqa: E402
from workloads import WORKLOADS, job_list  # noqa: E402

JOB_TIMEOUT_S = 60
# No process starts later than --seconds + GRACE_S after the run began, so
# a run that hangs still ends well within three minutes.
GRACE_S = 60
SETUP_SAMPLES = 5
# Nominal wall and CPU time of reference.py (see Runner).  A shared
# machine's speed drifts by tens of percent within minutes; scaling each
# time by the reference runs around it cancels most of that drift.
REFERENCE_S = 0.15

# name -> (unit, better)
END_TO_END = {
    "wall_s": ("s", "lower"),
    "cpu_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}

# Check keys of the verify report at the benchmarked commit, in report order.
VERIFY_CHECKS = (
    "surd_field_axioms", "surd_float_product_4ulp", "rational_normal_form",
    "mass_point_invariants", "beta_symmetry", "closed_form_equals_recursion",
    "branch_agreement_at_j_eq_m", "chebyshev_reduction_at_delta_0",
    "eigen_data_invariants", "alpha_printed_leading_forms",
    "ansatz_oracle_equivalence", "difference_residual_zero",
    "continuum_energy_limit", "wavefunction_float_agreement",
    "tridiagonal_eigen_identity", "bisection_matches_mass_points",
    "orthonormal_gram", "exp_part_transcendental_agreement",
    "coordinate_spectral_proportionality",
)

_CALLS = ("count", "lower")
_SELF = ("s", "lower")
PER_LAYER = {
    "numerics.surd_mul.calls": _CALLS,
    "numerics.surd_mul.self_s": _SELF,
    "numerics.surd_add.calls": _CALLS,
    "numerics.surd_add.self_s": _SELF,
    "numerics.surd_pow.calls": _CALLS,
    "numerics.surd_pow.self_s": _SELF,
    "numerics.max_digits": ("digits", "lower"),
    "numerics.surd_to_float.calls": _CALLS,
    "numerics.surd_to_float.self_s": _SELF,
    "cli.conversions_per_cell": ("ratio", "lower"),
    "cli.run.self_s": _SELF,
    "pollaczek.mass_closed.calls": _CALLS,
    "pollaczek.mass_closed.self_s": _SELF,
    "pollaczek.mass_closed.hit_ratio": ("ratio", "higher"),
    "pollaczek.seq.self_s": _SELF,
    "coordinate.wavefunction.calls": _CALLS,
    "coordinate.wavefunction.self_s": _SELF,
    "coordinate.difference_residual.self_s": _SELF,
    "coordinate.alpha_inner.self_s": _SELF,
    "coordinate.solve_constraint_system.self_s": _SELF,
    "spectral.inner_product.calls": _CALLS,
    "spectral.inner_product.self_s": _SELF,
    "spectral.inner_product.terms": _CALLS,
    "spectral.sturm_count.calls": _CALLS,
    "spectral.sturm_count.self_s": _SELF,
    "spectral.eigen_residual.self_s": _SELF,
    **{f"verify.check.{name}.s": _SELF for name in VERIFY_CHECKS},
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Runner:
    """Runs jobs of one checkout in fresh processes and keeps the record.

    With `scaled`, every timed process is followed by a run of
    reference.py, and its times are also given scaled to reference speed:
    time * REFERENCE_S / (mean of the reference runs just before and just
    after it).
    """

    def __init__(self, root: Path, work: Path, scaled: bool) -> None:
        self.root = root
        self.work = work
        env = dict(os.environ)
        src = str(root / "src")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p)
        self.env = env
        self.scaled = scaled
        self.deadline = float("inf")
        self.executions: list[dict] = []
        self.setups: list[dict] = []
        self.references: list[dict] = []

    def _run(self, cmd: list[str], timeout: float = JOB_TIMEOUT_S
             ) -> tuple[int | None, bytes, float, float]:
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  capture_output=True, timeout=timeout)
            code, out = proc.returncode, proc.stdout
        except subprocess.TimeoutExpired:
            code, out = None, b""
        wall = time.perf_counter() - t0
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        cpu = (after.ru_utime - before.ru_utime
               + after.ru_stime - before.ru_stime)
        return code, out, wall, cpu

    def import_location(self) -> str:
        """Import hydrogrid once in a fresh process (also compiles it)."""
        code, out, _, _ = self._run(
            [sys.executable, "-c",
             "import hydrogrid; print(hydrogrid.__file__)"])
        if code != 0:
            raise RuntimeError("cannot import hydrogrid from the checkout")
        if self.scaled:
            self.reference()
        return out.decode().strip()

    def reference(self) -> None:
        """Time one run of the fixed reference work."""
        code, _, wall, cpu = self._run(
            [sys.executable, str(HERE / "reference.py")])
        if code != 0:
            raise RuntimeError("reference.py failed")
        self.references.append({"wall_s": wall, "cpu_s": cpu})

    def _timed(self, cmd: list[str], rec: dict) -> dict:
        timeout = min(JOB_TIMEOUT_S,
                      max(self.deadline - time.perf_counter(), 0.1))
        code, out, wall, cpu = self._run(cmd, timeout)
        rec.update(code=code, wall_s=wall, cpu_s=cpu, stdout=out)
        if self.scaled:
            before = self.references[-1]
            self.reference()
            after = self.references[-1]
            for key in ("wall_s", "cpu_s"):
                rec["scaled_" + key] = (rec[key] * 2 * REFERENCE_S
                                        / (before[key] + after[key]))
        return rec

    def setup(self) -> None:
        """Time one fresh-process `import hydrogrid`."""
        rec = self._timed([sys.executable, "-c", "import hydrogrid"],
                          {"job": "setup"})
        del rec["stdout"]
        if rec["code"] != 0:
            raise RuntimeError("import hydrogrid failed")
        self.setups.append(rec)

    def job(self, job: dict, rep: int, spans: Path | None = None) -> dict:
        """Run one job; returns its execution record (stdout included)."""
        if job["kind"] == "cli":
            tail = ["cli"] + job["argv"]
            untraced = [sys.executable, "-m", "hydrogrid.cli"] + job["argv"]
        else:
            tail = ["solvers", json.dumps(job["spec"])]
            untraced = [sys.executable, str(HERE / "solvers_job.py"), tail[1]]
        traced = [sys.executable, str(HERE / "traced_job.py"), str(spans),
                  job["id"]] + tail
        cmd = untraced if spans is None else traced
        rec = self._timed(cmd, {"job": job["id"], "rep": rep,
                                "traced": spans is not None, "error": None})
        self.executions.append(rec)
        return rec


def _repeat(seconds: float, one_round) -> int:
    """Run `one_round(rep)` until the rounds take about `seconds`: another
    round starts while it would end at most half a round late."""
    start = time.perf_counter()
    lengths: list[float] = []
    rep = 0
    while True:
        t0 = time.perf_counter()
        one_round(rep)
        lengths.append(time.perf_counter() - t0)
        rep += 1
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(lengths) / 2 > seconds:
            return rep


def _judge(jobs: list[dict], results: dict[str, list[dict]]) -> None:
    """Check each job's first output; later repetitions must match it."""
    by_id = {job["id"]: job for job in jobs}
    for job_id, execs in results.items():
        reference = None
        for ex in execs:
            if ex["code"] is None:
                ex["error"] = "timed out"
            elif reference is None:
                ex["error"] = check_job(by_id[job_id], ex["code"],
                                        ex["stdout"])
                reference = ex
            elif (ex["code"], ex["stdout"]) != (reference["code"],
                                                reference["stdout"]):
                ex["error"] = "output differs from the first run of this job"
            else:
                ex["error"] = reference["error"]


def _sum_of_medians(results: dict[str, list[dict]], key: str) -> float:
    return sum(statistics.median(ex[key] for ex in execs)
               for execs in results.values())


def _float_cells(job: dict, stdout: bytes) -> int:
    if job["kind"] != "cli" or "float" not in job["argv"]:
        return 0
    return max(stdout.count(b"\n") - 1, 0)


def layer_metrics(jobs: list[dict], stats: dict[str, dict],
                  cells: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced repetition of the job list."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    hits = misses = terms = max_digits = 0
    checks = dict.fromkeys(VERIFY_CHECKS, 0.0)
    conversions = 0
    for job in jobs:
        st = stats[job["id"]]
        for name, count in st["calls"].items():
            calls[name] = calls.get(name, 0) + count
        for name, value in st["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + value
        cache = st["caches"].get("pollaczek.mass_closed", {})
        hits += cache.get("hits", 0)
        misses += cache.get("misses", 0)
        terms += st["terms"]
        max_digits = max(max_digits, st["max_digits"])
        for name, value in st["checks"].items():
            if name in checks:
                checks[name] += value
        if cells[job["id"]]:
            conversions += st["calls"].get("numerics.surd_to_float", 0)
    total_cells = sum(cells.values())
    out: dict[str, float] = {}
    for name in PER_LAYER:
        layer, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = calls.get(layer, 0)
        elif field == "self_s":
            out[name] = self_s.get(layer, 0.0)
    out["numerics.max_digits"] = max_digits
    out["cli.conversions_per_cell"] = (conversions / total_cells
                                       if total_cells else 0.0)
    out["pollaczek.mass_closed.hit_ratio"] = (hits / (hits + misses)
                                              if hits + misses else 0.0)
    out["spectral.inner_product.terms"] = terms
    for name, value in checks.items():
        out[f"verify.check.{name}.s"] = value
    return out


def run_untraced(runner: Runner, jobs: list[dict], seconds: float) -> dict:
    for _ in range(SETUP_SAMPLES):
        runner.setup()
    results: dict[str, list[dict]] = {job["id"]: [] for job in jobs}

    def one_round(rep: int) -> None:
        for job in jobs:
            results[job["id"]].append(runner.job(job, rep))

    _repeat(seconds, one_round)
    _judge(jobs, results)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "wall_s": _sum_of_medians(results, "scaled_wall_s"),
        "cpu_s": _sum_of_medians(results, "scaled_cpu_s"),
        "peak_rss_mb": peak_kb / 1024,
        "setup_s": statistics.median(r["scaled_wall_s"]
                                     for r in runner.setups),
    }
    return _result(results, metrics, END_TO_END)


def run_traced(runner: Runner, jobs: list[dict], seconds: float) -> dict:
    plain: dict[str, list[dict]] = {job["id"]: [] for job in jobs}
    traced: dict[str, list[dict]] = {job["id"]: [] for job in jobs}
    per_round: list[dict[str, float]] = []

    def one_round(rep: int) -> None:
        for job in jobs:
            plain[job["id"]].append(runner.job(job, rep))
        stats, cells = {}, {}
        for job in jobs:
            spans = runner.work / f"{job['id']}.spans"
            ex = runner.job(job, rep, spans)
            traced[job["id"]].append(ex)
            cells[job["id"]] = _float_cells(job, ex["stdout"])
            try:
                report = (json.loads(ex["stdout"])
                          if job.get("argv", [""])[0] == "verify" else {})
                stats[job["id"]] = job_layer_stats(
                    read_spans(str(spans)), list(report.get("checks", ())))
            except (OSError, ValueError, KeyError, EOFError) as exc:
                ex["error"] = f"trace unreadable: {exc}"
                stats[job["id"]] = None
            finally:
                spans.unlink(missing_ok=True)
        if all(stats.values()):
            per_round.append(layer_metrics(jobs, stats, cells))

    _repeat(seconds, one_round)
    _judge(jobs, plain)
    for job_id, execs in traced.items():
        ref = plain[job_id][0]
        for ex in execs:
            if ex["error"] is None and (ex["code"] != ref["code"]
                                        or ex["stdout"] != ref["stdout"]):
                ex["error"] = "traced output differs from untraced output"
    metrics = {name: statistics.median(r[name] for r in per_round)
               for name in (per_round[0] if per_round else ())}
    metrics["trace.overhead_ratio"] = (_sum_of_medians(traced, "wall_s")
                                       / _sum_of_medians(plain, "wall_s"))
    results = {job_id: plain[job_id] + traced[job_id] for job_id in plain}
    return _result(results, metrics, PER_LAYER)


def _result(results: dict[str, list[dict]], metrics: dict[str, float],
            spec: dict[str, tuple[str, str]]) -> dict:
    execs = [ex for execs in results.values() for ex in execs]
    failed = sum(1 for ex in execs if ex["error"] is not None)
    missing = [name for name in spec if name not in metrics]
    for ex in execs:
        ex.pop("stdout", None)
    return {
        "correct": failed == 0 and not missing,
        "attempted": len(execs),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": spec[name][0]}
                    for name in spec if name in metrics},
    }


def run_workload(root: Path, workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    runs = HERE / ".runs"
    work = runs / f"tmp-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    runner = Runner(root, work, scaled=not trace)
    runner.deadline = time.perf_counter() + seconds + GRACE_S
    try:
        location = Path(runner.import_location()).resolve()
        if root.resolve() / "src" not in location.parents:
            raise RuntimeError(f"hydrogrid imported from {location}, "
                               f"not from {root / 'src'}")
        jobs = job_list(workload, seed)
        run = run_traced if trace else run_untraced
        result = run(runner, jobs, seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": int(trace), "python": sys.version.split()[0],
        "jobs": jobs, "executions": runner.executions, "result": result,
        "setups": runner.setups, "references": runner.references,
    }
    path = runs / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    _summary(workload, result, path)
    return result


def _summary(workload: str, result: dict, path: Path) -> None:
    ratio = result["failed"] / result["attempted"]
    print(f"[{workload}] attempted {result['attempted']} failed "
          f"{result['failed']} failed_ratio {ratio:.4g} correct "
          f"{str(result['correct']).lower()}", file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"  {name} {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  record: {path}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    root = HERE.parent
    if not (root / "src" / "hydrogrid" / "__init__.py").is_file():
        print(f"error: no hydrogrid sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    sys.path.insert(0, str(root / "src"))  # for the output checks
    try:
        result = run_workload(root, args.workload, args.seed, args.seconds,
                              bool(args.trace))
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Run every workload in its own process, one after another, and print
    one result whose metric names are prefixed with the workload."""
    results = {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace)],
            stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.splitlines()[-1])
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": value
                    for name, r in results.items()
                    for metric, value in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
