"""Tests of the benchmark itself: python3 -m pytest perfbench/tests"""

from __future__ import annotations

import decimal
import json
import math
import os
import subprocess
import sys
from array import array
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run  # noqa: E402
from tracer import job_layer_stats, read_spans, self_times  # noqa: E402
from workloads import WORKLOADS, job_list  # noqa: E402

from hydrogrid.cli import main as cli_main  # noqa: E402


@pytest.mark.parametrize("workload", WORKLOADS)
def test_job_list_follows_seed(workload):
    assert job_list(workload, 7) == job_list(workload, 7)
    assert job_list(workload, 7) != job_list(workload, 8)


def _cli_output(tmp_path, argv) -> bytes:
    out = tmp_path / "out.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    return out.read_bytes()


def _flip_digit(stdout: bytes, row: int, column: int, last: bool) -> bytes:
    lines = stdout.decode().split("\n")
    cells = lines[row].split(",")
    cell = cells[column]
    digits = [i for i, ch in enumerate(cell) if ch.isdigit()]
    pos = digits[-1] if last else digits[0]
    flipped = str((int(cell[pos]) + 1) % 10)
    cells[column] = cell[:pos] + flipped + cell[pos + 1:]
    lines[row] = ",".join(cells)
    return "\n".join(lines).encode()


@pytest.mark.parametrize("argv,column", [
    (["pollaczek", "--delta", "1/2", "--n", "0..2", "--jmax", "12"], 2),
    (["pollaczek", "--delta", "3/4", "--n", "0..2", "--jmax", "12",
      "--mode", "float"], 2),
    (["wavefunction", "--delta", "1/2", "--n", "1..3", "--kmax", "10"], 2),
    (["wavefunction", "--delta", "3/4", "--n", "1..3", "--kmax", "10",
      "--mode", "float"], 2),
    (["coeffs", "--delta", "1/2", "--n", "6..7", "--kmax", "6"], 5),
    (["coeffs", "--delta", "1/2", "--n", "6..7", "--kmax", "6"], 4),
])
def test_checker_rejects_one_flipped_digit(tmp_path, argv, column):
    job = {"kind": "cli", "argv": argv, "sample_n": [6]}
    stdout = _cli_output(tmp_path, argv)
    assert checks.check_job(job, 0, stdout) is None
    # The last digit of a float cell is below the 4-ulp tolerance.
    last = "float" not in argv
    for row in (1, 7):
        assert checks.check_job(job, 0, _flip_digit(stdout, row, column, last))


def test_float_check_is_4ulp():
    # (1 - sqrt 2)^40 = a + b sqrt 2 with a, b ~ 1e15: the terms cancel.
    exact = (Fraction(1), Fraction(-1), Fraction(2))
    for _ in range(39):
        exact = (exact[0] - 2 * exact[1], exact[1] - exact[0], Fraction(2))
    wide = decimal.Context(prec=400)
    direct = wide.add(exact[0].numerator, wide.multiply(
        exact[1].numerator, wide.sqrt(2)))
    error = abs(checks.to_decimal(*exact) / direct - 1)
    assert error < decimal.Decimal("1e-50")
    value = float(direct)
    assert checks.within_4ulp(repr(value), exact)
    assert checks.within_4ulp(repr(value + 3 * math.ulp(value)), exact)
    assert not checks.within_4ulp(repr(value + 6 * math.ulp(value)), exact)


def test_exit_code_and_verify_report_are_checked():
    job = {"kind": "cli",
           "argv": ["verify", "--delta", "1/2", "--n", "1..8", "--kmax", "40",
                    "--output", "json"]}
    report = {"config": {"delta": "1/2", "n_range": [1, 8], "kmax": 40},
              "checks": {"a": True, "b": True}, "all_passed": True}
    good = json.dumps(report).encode()
    assert checks.check_job(job, 0, good) is None
    assert checks.check_job(job, 1, good)
    report["checks"]["b"] = False
    assert checks.check_job(job, 0, json.dumps(report).encode())


def test_self_time_on_synthetic_tree():
    # root [0, 10] has children a [1, 4] and b [3, 6] (overlapping: they
    # cover [1, 6]) and c [8, 12] (clipped to [8, 10]); a has child d [2, 3].
    parent = [-1, 0, 1, 0, 0]
    start = [0.0, 1.0, 2.0, 3.0, 8.0]
    end = [10.0, 4.0, 3.0, 6.0, 12.0]
    assert self_times(parent, start, end) == [3.0, 2.0, 1.0, 3.0, 4.0]


def test_layer_stats_from_span_file(tmp_path):
    names = ["spectral.inner_product", "pollaczek.mass_closed",
             "verify.run_verification", "verify._check_one"]
    rows = [(2, -1, 0.0, 9.0), (3, 0, 1.0, 5.0), (0, 1, 1.5, 4.0),
            (1, 2, 2.0, 3.0), (1, -1, 6.0, 7.0)]
    path = tmp_path / "job.spans"
    with open(path, "wb") as fh:
        fh.write(json.dumps({"job_id": "j", "names": names, "count": len(rows),
                             "caches": {}, "max_digits": 3}).encode() + b"\n")
        for col, code in enumerate("iidd"):
            array(code, [r[col] for r in rows]).tofile(fh)
    stats = job_layer_stats(read_spans(str(path)), ["one"])
    assert stats["calls"]["pollaczek.mass_closed"] == 2
    assert stats["terms"] == 1  # only the call under the inner product
    assert stats["checks"] == {"one": 4.0}
    assert stats["self_s"]["spectral.inner_product"] == 1.5


def test_traced_job_wraps_every_import_site(tmp_path):
    spans = tmp_path / "job.spans"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    argv = ["pollaczek", "--delta", "1/2", "--n", "0..1", "--jmax", "6",
            "--mode", "float"]
    traced = subprocess.run(
        [sys.executable, str(BENCH / "traced_job.py"), str(spans), "j", "cli"]
        + argv, env=env, capture_output=True, timeout=120, check=True)
    plain = subprocess.run(
        [sys.executable, "-m", "hydrogrid.cli"] + argv,
        env=env, capture_output=True, timeout=120, check=True)
    assert traced.stdout == plain.stdout
    stats = job_layer_stats(read_spans(str(spans)), [])
    # cli imports pollaczek_mass_closed and surd_to_float by name.
    assert stats["calls"]["pollaczek.mass_closed"] == 14
    assert stats["calls"]["numerics.surd_to_float"] >= 2 * 14
    assert stats["calls"]["numerics.surd_mul"] > 0
    assert stats["caches"]["pollaczek.mass_closed"]["misses"] == 14


def test_benchmark_json_matches_run_definitions():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    assert all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"])
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} \
        == run.PER_LAYER
