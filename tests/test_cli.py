import json
import math
from fractions import Fraction

import pytest

import hydrogrid.cli as cli
import hydrogrid.coordinate as coordinate
import hydrogrid.numerics as numerics
import hydrogrid.pollaczek as pollaczek
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


def test_converge_takes_steps_down_to_the_float_square_bound(capsys):
    # 2**-537 squares to the least subnormal double; a smaller step is
    # rejected instead of dividing a gap by 0.0.
    assert main(["converge", "--n", "1..1", "--deltas", "1e-161",
                 "--mode", "float"]) == 0
    assert capsys.readouterr().out.splitlines()[1].endswith(",-0.5,0,0")
    assert coordinate._continuum_gap(1, Fraction(1, 2 ** 537))[2] == 0.0
    with pytest.raises(ValueError, match=r"^delta must be at least 2\*\*-537"):
        coordinate._continuum_gap(1, Fraction(1, 2 ** 538))


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


def test_bad_range_rejected(capsys):
    assert main(["spectrum", "--n", "5..2"]) == 2


def test_domain_error_exit_code(capsys):
    assert main(["spectrum", "--delta", "0", "--n", "1..1"]) == 2
    assert "error" in capsys.readouterr().err


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


# Surd columns per table; converge converts only E and derives the rest.
SURD_COLUMNS = {"spectrum": 3, "wavefunction": 1, "pollaczek": 1,
                "coeffs": 1, "converge": 1}


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
    # Every float cell is rounded by the one integer core: `surd_to_float`
    # reads the numerics global, the wavefunction stream and the
    # closed-form sequence import the name.  The sequence keeps its floats,
    # so the bundles that hold it are cleared for the count to see this
    # run's cells.
    calls = []
    original = numerics._int_surd_to_float

    def counting(*args):
        calls.append(args)
        return original(*args)

    for mod in (numerics, coordinate, pollaczek, cli):
        if hasattr(mod, "_int_surd_to_float"):
            monkeypatch.setattr(mod, "_int_surd_to_float", counting)
    coordinate._state.cache_clear()
    out = tmp_path / f"table.{output}"
    assert main(argv.split() + ["--mode", "float", "--output", output,
                                "--out", str(out)]) == 0
    if output == "csv":
        n_rows = len(_read(out).splitlines()) - 1
    else:
        n_rows = len(json.loads(_read(out))["rows"])
    assert 0 < len(calls) <= n_rows * SURD_COLUMNS[argv.split()[0]]


NOT_A_RANGE = "--n must be an integer or a range 'lo..hi', got "


@pytest.mark.parametrize("argv, message", [
    ("spectrum --delta -1", "delta must be > 0"),
    ("verify --delta=-1/2", "delta must be > 0"),
    ("converge --deltas 1/5,0", "delta must be > 0"),
    ("converge --deltas 1/5,-1/10", "delta must be > 0"),
    ("converge --n 1..1 --deltas 1e-170 --mode float",
     "--deltas must be at least 2**-537"),
    ("converge --n 1..1 --deltas 1/5,1e-162 --mode float",
     "--deltas must be at least 2**-537"),
    ("converge --deltas= --delta 1e-170 --mode float",
     "--delta must be at least 2**-537"),
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
