import errno
import gc
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import hydrogrid.cli as cli
import hydrogrid.coordinate as coordinate
import hydrogrid.numerics as numerics
from hydrogrid.cli import RunConfig, main, run

from golden_stdout import GOLDEN_STDOUT, stdout_digest


def _read(path):
    return path.read_text(encoding="utf-8")


def test_spectrum_csv_exact(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--delta", "1", "--n", "1..2", "--mode", "exact",
                 "--output", "csv", "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0] == "n,mu,E,q"
    assert lines[1] == "1,0+1√2,1-1√2,-1+1√2"
    assert lines[2].startswith("2,0+1√(5/4)")


def test_spectrum_json_exact_schema(tmp_path):
    out = tmp_path / "spectrum.json"
    assert main(["spectrum", "--delta", "1/2", "--n", "1..1",
                 "--output", "json", "--out", str(out)]) == 0
    payload = json.loads(_read(out))
    row = payload["rows"][0]
    assert row["mu"] == {"a": "0", "b": "1", "D": "5/4"}
    assert payload["delta"] == "1/2"


def test_spectrum_float_mode(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["spectrum", "--delta", "1", "--n", "1..1", "--mode", "float",
                 "--out", str(out)]) == 0
    row = _read(out).splitlines()[1].split(",")
    assert float(row[1]) == math.sqrt(2)
    assert float(row[2]) == pytest.approx(1 - math.sqrt(2), abs=1e-15)


def test_wavefunction_table(tmp_path):
    out = tmp_path / "wf.csv"
    assert main(["wavefunction", "--delta", "1", "--n", "1..1",
                 "--kmax", "3", "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0] == "n,k,u"
    assert lines[1] == "1,1,-1+1√2"
    assert lines[2] == "1,2,6-4√2"


def test_pollaczek_table(tmp_path):
    out = tmp_path / "poll.json"
    assert main(["pollaczek", "--delta", "1", "--n", "0..0", "--jmax", "2",
                 "--output", "json", "--out", str(out)]) == 0
    rows = json.loads(_read(out))["rows"]
    assert rows[0]["P"] == {"a": "1", "b": "0", "D": "0"}
    assert rows[2]["P"] == {"a": "9", "b": "-6", "D": "2"}


def test_coeffs_table(tmp_path):
    out = tmp_path / "coeffs.csv"
    assert main(["coeffs", "--delta", "1", "--n", "3..3", "--kmax", "4",
                 "--out", str(out)]) == 0
    text = _read(out)
    lines = text.splitlines()
    assert lines[0].startswith("n,k,m,")
    # assembled alpha_{n-2} at n=3, delta=1 is 31/27
    k2_rows = [ln for ln in lines if ln.startswith("3,2,")]
    assert any(",31/27," in ln for ln in k2_rows)


def test_converge_sweep(tmp_path):
    out = tmp_path / "conv.csv"
    assert main(["converge", "--n", "1..1", "--deltas", "1/10,1/20",
                 "--out", str(out)]) == 0
    lines = _read(out).splitlines()
    assert lines[0] == "n,delta,E,E_plus_continuum,ratio_to_delta_sq"
    first = lines[1].split(",")
    assert first[:2] == ["1", "1/10"]
    assert float(first[2]) == pytest.approx(-0.4987562112089027, abs=1e-15)
    # ratio tends to 1/(8 n^4) = 0.125; next series term is -delta^2/16
    assert float(first[4]) == pytest.approx(0.125, rel=6e-3)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 12])
@pytest.mark.parametrize("delta", [
    Fraction(1, 2 ** 600), Fraction(1, 10 ** 170), Fraction(1, 10 ** 9),
    Fraction(1, 10), Fraction(3, 4), Fraction(7, 3), Fraction(10 ** 300)])
def test_converge_gap_equals_the_cancellation_free_form(n, delta):
    # With delta**2 = n**2 (mu - 1)(mu + 1), E + 1/(2n**2) is
    # (mu - 1)/(2n**2 (mu + 1)) and its ratio to delta**2 is
    # 1/(2n**4 (1 + mu)**2): the same exact values, each rounded once.
    mu = coordinate.eigen_data(n, delta).mu
    _, gap, ratio = coordinate._continuum_gap(n, delta)
    assert gap == float((mu - 1) / (2 * n * n * (mu + 1)))
    assert ratio == float(1 / (2 * n ** 4 * (1 + mu) ** 2))


@pytest.mark.parametrize("argv, line", [
    ("converge --n 1..1 --deltas 1e-170 --mode float", 1),
    ("converge --n 1..1 --deltas 1/5,1e-162 --mode float", 2),
    ("converge --deltas= --delta 1e-170 --mode float", 1),
])
def test_converge_takes_steps_whose_float_square_is_zero(argv, line, capsys):
    # The gap E + 1/2 ~ delta**2/8 underflows, its ratio does not.
    assert main(argv.split()) == 0
    row = capsys.readouterr().out.splitlines()[line]
    assert row.startswith("1,") and row.endswith(",-0.5,0,0.125")


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["pollaczek", "--delta", "2/3", "--n", "0..2", "--jmax", "8",
            "--output", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("HYDROGRID_OUT_DIR", str(tmp_path))
    assert main(["spectrum", "--n", "1..1", "--out", "sub/spec.csv"]) == 0
    assert (tmp_path / "sub" / "spec.csv").exists()


def test_stdout_default(capsys):
    assert main(["spectrum", "--delta", "1", "--n", "1..1"]) == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("n,mu,E,q")


def test_float_literal_rejected_in_exact_mode(capsys):
    assert main(["spectrum", "--delta", "1e-2", "--n", "1..1"]) == 2
    err = capsys.readouterr().err
    assert "usage" in err
    assert "rational" in err


def test_float_literal_allowed_in_float_mode(tmp_path):
    out = tmp_path / "s.csv"
    assert main(["spectrum", "--delta", "1e-1", "--mode", "float",
                 "--n", "1..1", "--out", str(out)]) == 0


def test_decimal_string_is_exact():
    cfg_half = RunConfig(command="spectrum", delta=Fraction(1, 2))
    assert cfg_half.delta == Fraction("0.5")


def test_invalid_flags_exit_nonzero():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--mode", "fancy"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main(["no-such-command"])


def test_an_option_of_another_command_prints_the_commands_usage(capsys):
    # --kmax belongs to other subcommands; the root usage used to answer
    with pytest.raises(SystemExit) as exc:
        main(["spectrum", "--kmax", "x"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage: hydrogrid spectrum " in captured.err
    assert "unrecognized arguments: --kmax x" in captured.err


# Every option of every subcommand, as (option strings, dest, default,
# type, choices, metavar, help), read from the parser objects rather than
# from the help text, whose wrapping differs between Python versions.
HELP = (("-h", "--help"), "help", "==SUPPRESS==", None, None, None,
        "show this help message and exit")
COMMON_OPTIONS = [
    HELP,
    (("--delta",), "delta", "1", None, None, None,
     "lattice step, as 'p/q' or a decimal string"),
    (("--mode",), "mode", "exact", None, ("exact", "float"), None, None),
    (("--precision-bits",), "precision_bits", 96, int, None, None,
     "accepted for compatibility; no effect, since every float conversion "
     "is correctly rounded"),
    (("--output",), "output", "csv", None, ("csv", "json"), None, None),
    (("--out",), "out", None, None, None, "PATH",
     "output file (default stdout; relative paths resolve against "
     "$HYDROGRID_OUT_DIR)"),
]
SUBCOMMANDS = {
    "spectrum": ("eigenvalue table (mu, E, q)", "1..4", None),
    "wavefunction": ("lattice eigenfunction table", "1..4",
                     (("--kmax",), "kmax", 20, int, None, None,
                      "last grid index")),
    "pollaczek": ("P_j at the mass points x_m (--n gives the m range)",
                  "0..3", (("--jmax",), "jmax", 20, int, None, None,
                           "highest degree")),
    "coeffs": ("inner/assembled coefficient tables", "1..4",
               (("--kmax",), "kmax", 8, int, None, None,
                "deepest level k (capped at n-1 per state)")),
    "verify": ("run the cross-module invariant suite", "1..8",
               (("--kmax",), "kmax", 40, int, None, None,
                "rows per eigenvector identity check")),
    "converge": ("continuum-limit energy sweep", "1..3",
                 (("--deltas",), "deltas", "1/5,1/10,1/20", None, None, None,
                  "comma-separated list of lattice steps")),
}


def _options(parser):
    return [(tuple(a.option_strings), a.dest, a.default, a.type,
             None if a.choices is None else tuple(a.choices), a.metavar,
             a.help) for a in parser._actions]


def test_every_option_of_every_subcommand_is_pinned():
    parser, commands = cli._build_parser()
    assert (parser.prog, parser.description) == (
        "hydrogrid", "Exact spectra, eigenfunctions and Pollaczek polynomial "
                     "tables for the lattice hydrogen radial problem.")
    sub = parser._actions[1]
    assert _options(parser) == [
        HELP, ((), "command", None, None, tuple(SUBCOMMANDS), None, None)]
    assert sub.required
    assert [(c.dest, c.help) for c in sub._choices_actions] == [
        (name, entry[0]) for name, entry in SUBCOMMANDS.items()]
    assert list(commands) == list(SUBCOMMANDS)
    for name, (_, n_default, own) in SUBCOMMANDS.items():
        assert commands[name].prog == f"hydrogrid {name}"
        assert _options(commands[name]) == COMMON_OPTIONS + [
            (("--n",), "n", n_default, None, None, "LO..HI",
             "state index range")] + ([own] if own else [])


def test_bad_range_rejected(capsys):
    assert main(["spectrum", "--n", "5..2"]) == 2


def test_domain_error_exit_code(capsys):
    assert main(["spectrum", "--delta", "0", "--n", "1..1"]) == 2
    assert "error" in capsys.readouterr().err



@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"),
                    reason="no int-to-str digit limit on this Python")
def test_an_exact_cell_past_the_int_str_digit_limit_is_printed(capsys):
    # delta = 1/10**2150 gives D = (10**4300 + 1)/10**4300, whose numerator
    # is one digit past CPython's default 4300; the run computed, then
    # exited 2 with an empty stdout.  The limit is lifted for the run only.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["spectrum", "--delta", "1/1" + "0" * 2150,
                     "--n", "1..1"]) == 0
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(limit)
    out = capsys.readouterr().out
    mu = out.splitlines()[1].split(",")[1]
    assert mu == "0+1√(1" + "0" * 4299 + "1/1" + "0" * 4300 + ")"

def test_verify_report_small(tmp_path, capsys):
    out = tmp_path / "verify.json"
    code = main(["verify", "--delta", "1/2", "--n", "1..4", "--kmax", "10",
                 "--output", "json", "--out", str(out)])
    assert code == 0
    report = json.loads(_read(out))
    assert report["all_passed"] is True
    assert all(report["checks"].values())
    diag = report["diagnostics"]
    assert "p1_initial_condition" in diag
    assert "trig_per_degree_ratios" in diag
    # the literal-sum ratio has no theta-independent per-degree constant
    spreads = diag["trig_per_degree_ratios"]["literal_ratio_spread_per_degree"]
    assert any(s > 1e-3 for s in spreads.values())
    err = capsys.readouterr().err
    assert "overall: PASS" in err


def test_verify_csv_output(tmp_path):
    out = tmp_path / "verify.csv"
    code = main(["verify", "--delta", "1", "--n", "1..3", "--kmax", "8",
                 "--output", "csv", "--out", str(out)])
    assert code == 0
    lines = _read(out).splitlines()
    assert lines[0] == "check,passed"
    assert all(ln.endswith(",true") for ln in lines[1:])


@pytest.mark.parametrize("argv, digest", GOLDEN_STDOUT)
def test_stdout_golden_hash(argv, digest):
    assert stdout_digest(argv) == (0, digest)


# The seed-1 job list of perfbench's tables-exact workload.
BENCH_EXACT_TABLES = [
    "wavefunction --delta 1/2 --n 1..8 --kmax 154 --mode exact",
    "wavefunction --delta 3/4 --n 1..8 --kmax 166 --mode exact",
    "pollaczek --delta 1/2 --n 0..6 --jmax 162 --mode exact",
    "pollaczek --delta 3/4 --n 0..6 --jmax 168 --mode exact",
    "coeffs --delta 1/2 --n 13..17 --kmax 133 --mode exact",
    "coeffs --delta 3/4 --n 19..23 --kmax 187 --mode exact",
]
# Every golden table and the small verify report, each written as CSV.
CSV_TABLES = sorted(
    {argv.replace("--output json", "--output csv") for argv, _ in GOLDEN_STDOUT
     if not argv.startswith("verify")} | set(BENCH_EXACT_TABLES)
    | {"verify --delta 1 --n 1..3 --kmax 8"})


@pytest.mark.parametrize("argv", CSV_TABLES)
def test_csv_text_equals_the_csv_module(argv, monkeypatch, capsys):
    import csv
    import io

    seen = []
    join = cli._csv_text

    def spy(header, rows):
        seen.append((list(header), [list(row) for row in rows]))
        return join(*seen[-1])

    monkeypatch.setattr(cli, "_csv_text", spy)
    assert main(argv.split() + ["--output", "csv"]) == 0
    (header, rows), = seen
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_MINIMAL, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    assert capsys.readouterr().out == join(header, rows) == buf.getvalue()
    for row in [header, *rows]:
        assert len(row) >= 2
        assert not [cell for cell in row if set(cell) & set(',"\r\n')]


# Surd columns per table; converge's E, gap and ratio are each one exact
# value rounded once.
SURD_COLUMNS = {"spectrum": 3, "wavefunction": 1, "pollaczek": 1,
                "coeffs": 1, "converge": 3}


@pytest.mark.parametrize("output", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    "spectrum --delta 1/2 --n 1..3",
    "wavefunction --delta 1/2 --n 1..2 --kmax 4",
    "pollaczek --delta 1/2 --n 0..1 --jmax 3",
    "coeffs --delta 1/2 --n 3..5 --kmax 4",
    "converge --n 1..2 --deltas 1/5,1/10",
])
def test_float_mode_converts_each_surd_cell_once(argv, output, monkeypatch,
                                                 tmp_path):
    # A float cell is rounded once: by the field's `q_floats` kernel (the
    # wavefunction and pollaczek tables), or by the one integer core,
    # `_int_surd_to_float`, which `surd_to_float` reads as the numerics
    # global and which the kernel calls for an exact fallback.  The
    # kernel's roundings and every call of the core are counted together.
    # The sequence keeps its floats, so the bundles that hold it are
    # cleared for the count to see this run's cells.
    calls = []
    original = numerics._int_surd_to_float
    kernel = numerics._StateField.q_floats

    def counting(*args):
        calls.append(args)
        return original(*args)

    def rounding(field, pairs, den):
        for value in kernel(field, pairs, den):
            calls.append(value)
            yield value

    monkeypatch.setattr(numerics, "_int_surd_to_float", counting)
    monkeypatch.setattr(numerics._StateField, "q_floats", rounding)
    coordinate._state.cache_clear()
    out = tmp_path / f"table.{output}"
    assert main(argv.split() + ["--mode", "float", "--output", output,
                                "--out", str(out)]) == 0
    if output == "csv":
        n_rows = len(_read(out).splitlines()) - 1
    else:
        n_rows = len(json.loads(_read(out))["rows"])
    assert 0 < len(calls) <= n_rows * SURD_COLUMNS[argv.split()[0]]


def test_float_pollaczek_beyond_the_double_range_exits_2(capsys):
    # P_j(x_m) grows like (2 delta)^j, past the double range from j = 2 at
    # delta = 1e300: the kernel's exact fallback raises OverflowError
    argv = "pollaczek --delta 1e300 --n 0..3 --jmax 8 --mode float"
    assert main(argv.split()) == 2
    assert capsys.readouterr() == (
        "", "error: integer division result too large for a float\n")


NOT_A_RANGE = "--n must be an integer or a range 'lo..hi', got "


@pytest.mark.parametrize("argv, message", [
    ("spectrum --delta -1", "delta must be > 0"),
    ("verify --delta=-1/2", "delta must be > 0"),
    ("converge --deltas 1/5,0", "delta must be > 0"),
    ("converge --deltas 1/5,-1/10", "delta must be > 0"),
    ("wavefunction --kmax -5", "--kmax must be >= 1"),
    ("wavefunction --kmax 0", "--kmax must be >= 1"),
    ("pollaczek --jmax -1", "--jmax must be >= 0"),
    ("spectrum --n 0..2", "--n must be >= 1"),
    ("wavefunction --n 0..1", "--n must be >= 1"),
    ("coeffs --n 0..2", "--n must be >= 1"),
    ("converge --n 0..2", "--n must be >= 1"),
    ("verify --n 0..2", "--n must be >= 1"),
    ("pollaczek --n=-1..0", "--n must be >= 0"),
    ("spectrum --n 1..", NOT_A_RANGE + "'1..'"),
    ("spectrum --n 1.5", NOT_A_RANGE + "'1.5'"),
    ("spectrum --n ..3", NOT_A_RANGE + "'..3'"),
    ("verify --n 1..2..3", NOT_A_RANGE + "'1..2..3'"),
    ("spectrum --n 5..2", "--n is an empty range '5..2'"),
    ("verify --kmax 1", "--kmax must be >= 2"),
    ("verify --kmax 0", "--kmax must be >= 2"),
    ("verify --kmax -1", "--kmax must be >= 2"),
    ("coeffs --kmax -1", "--kmax must be >= 0"),
])
def test_out_of_domain_input_rejected(argv, message, capsys):
    assert main(argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "usage" in captured.err
    assert f"usage: hydrogrid {argv.split()[0]} " in captured.err
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("args, error, message", [
    ((Fraction(1, 2), 0, 0, 2), ValueError, "n_lo must be >= 1, got 0"),
    ((Fraction(1, 2), 5, 2, 2), ValueError, "n_hi must be >= 5, got 2"),
    ((Fraction(1, 2), 1, 2, 1), ValueError, "kmax must be >= 2, got 1"),
    ((Fraction(1, 2), True, 2, 2), TypeError, "n_lo must be int"),
    ((Fraction(-1, 2), 1, 2, 2), ValueError, "delta must be > 0"),
])
def test_run_verification_rejects_what_the_cli_rejects(args, error, message):
    # the two empty ranges used to report all_passed: True
    from hydrogrid.verify import run_verification
    with pytest.raises(error, match=message):
        run_verification(*args)


@pytest.mark.parametrize("argv", [
    "pollaczek --delta 1/2 --n 0..3 --jmax 5",
    "verify --delta 1/2 --n 1..2 --kmax 4",
])
def test_an_unwritable_out_exits_2_with_one_line(argv, tmp_path, capsys):
    # a directory as --out raised IsADirectoryError: a traceback and exit
    # 1, which a script reads as a failed verify check
    assert main(argv.split() + ["--out", str(tmp_path)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {tmp_path}: Is a directory\n")
    assert list(tmp_path.iterdir()) == []


def test_a_write_that_fails_midway_leaves_no_file(tmp_path, monkeypatch,
                                                  capsys):
    def full_disk(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def half_then_fail(text):
            write(text[:len(text) // 2])
            fh.flush()
            raise OSError(errno.ENOSPC, "No space left on device")

        fh.write = half_then_fail
        return fh

    out = tmp_path / "spectrum.csv"
    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    assert main(["spectrum", "--out", str(out)]) == 2
    assert capsys.readouterr() == (
        "", f"error: cannot write {out}: No space left on device\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("out, error", [
    ("new/sub/", "Is a directory"), ("file/x.csv", "Not a directory"),
    ("file/new/x.csv", "Not a directory")])
def test_a_failed_out_leaves_the_directory_as_it_was(out, error, tmp_path,
                                                     monkeypatch, capsys):
    # the directories the run made for --out are removed, and a parent
    # that is a file is named as that, not as the mkdir's "File exists"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "file").write_text("kept")
    assert main(["spectrum", "--n", "1..1", "--out", out]) == 2
    assert capsys.readouterr() == ("", f"error: cannot write {out}: {error}\n")
    assert [p.name for p in tmp_path.iterdir()] == ["file"]
    assert (tmp_path / "file").read_text() == "kept"


def _python(*args, **env):
    """`python args` in a fresh interpreter with no bytecode written, in
    the inherited environment and locale, updated by env."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1",
               **env)
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True)


def _program(argv, **env):
    """`python -m hydrogrid.cli argv`, as the benchmark and a shell run
    it."""
    return _python("-m", "hydrogrid.cli", *argv, **env)


def _output(argv):
    words = argv.split()
    return words[words.index("--output") + 1] if "--output" in words else "csv"


# The first golden entry of each command in each output format.
PROGRAM_GOLDEN = [
    next(entry for entry in GOLDEN_STDOUT
         if entry[0].split()[0] == command and _output(entry[0]) == output)
    for command in cli.COMMANDS for output in ("csv", "json")]


@pytest.mark.parametrize("argv, digest", PROGRAM_GOLDEN)
def test_the_program_prints_the_golden_bytes(argv, digest):
    proc = _program(argv.split())
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


# An exact CSV cell prints sqrt as the non-ASCII '√'.
@pytest.mark.parametrize("encoding", ["ascii", "latin-1"])
@pytest.mark.parametrize("argv, digest", [
    entry for entry in PROGRAM_GOLDEN
    if entry[0].startswith("spectrum") and "--mode exact" in entry[0]])
def test_the_program_prints_utf8_whatever_the_locale(encoding, argv, digest):
    proc = _program(argv.split(), PYTHONIOENCODING=encoding)
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout).hexdigest() == digest


def test_the_entry_sets_stdout_to_utf8_and_main_leaves_it(monkeypatch):
    def ascii_stdout():
        stdout = io.TextIOWrapper(io.BytesIO(), encoding="ascii")
        monkeypatch.setattr(sys, "stdout", stdout)
        return stdout

    argv = ["spectrum", "--n", "1..1"]
    stdout = ascii_stdout()
    assert main(argv) == 2 and stdout.encoding == "ascii"
    monkeypatch.setattr(sys, "argv", ["hydrogrid", *argv])
    monkeypatch.setattr(gc, "freeze", lambda: None)  # keep pytest's heap
    stdout = ascii_stdout()
    assert cli.entry() == 0 and stdout.encoding == "utf-8"
    stdout.flush()
    assert "√".encode() in stdout.buffer.getvalue()


# Exit 0 from a verify program is checked with its golden bytes above.
def test_the_program_rejects_what_main_rejects(capsys):
    argv = ["spectrum", "--delta", "0", "--n", "1..1"]
    proc = _program(argv)
    assert proc.returncode == 2 == main(argv)
    assert proc.stdout == b""
    assert proc.stderr.decode() == capsys.readouterr().err
    assert b"error: delta must be > 0" in proc.stderr


def test_the_program_freezes_the_heap_and_still_runs_atexit():
    # runpy runs the module's __main__ guard as `python -m` does; a
    # handler registered before it reports the freeze after the exit
    code = ("import atexit, gc, runpy, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count(),"
            " file=sys.stderr))\n"
            "sys.argv[0] = 'hydrogrid'\n"
            "runpy.run_module('hydrogrid.cli', run_name='__main__')\n")
    proc = _python("-c", code, "spectrum", "--n", "1..1")
    assert proc.returncode == 0
    assert proc.stdout.startswith(b"n,mu,E,q\n")
    word, count = proc.stderr.split()
    assert word == b"frozen" and int(count) > 0


def test_main_leaves_the_collector_as_it_was(capsys):
    state = gc.get_freeze_count(), gc.isenabled()
    assert main(["pollaczek", "--delta", "1/2", "--n", "0..2",
                 "--jmax", "6"]) == 0
    assert main(["verify", "--delta", "1", "--n", "1..3", "--kmax", "8"]) == 0
    assert (gc.get_freeze_count(), gc.isenabled()) == state


def test_the_entry_freezes_the_heap_once_then_returns_mains_status(
        monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main",
                        lambda argv=None: calls.append("main") or 3)
    assert cli.entry() == 3
    assert calls == ["freeze", "main"]


def test_the_console_script_runs_the_entry():
    import importlib
    from pathlib import Path

    tomllib = pytest.importorskip("tomllib")  # Python 3.11 on
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["hydrogrid"]
    module, _, name = target.partition(":")
    assert getattr(importlib.import_module(module), name) is cli.entry
