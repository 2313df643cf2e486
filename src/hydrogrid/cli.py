"""Batch command-line front end.

Commands emit spectra, wavefunction tables, coefficient tables, Pollaczek
evaluations, convergence sweeps and the verification report, as CSV
(RFC 4180) or JSON (UTF-8).  Output is deterministic: identical
configuration yields byte-identical files.  Rational flags are parsed
exactly ("p/q" or decimal strings); float literals are rejected in exact
mode so exactness never silently degrades.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Callable, Iterable, Iterator
from fractions import Fraction
from typing import NamedTuple

from .coordinate import (_continuum_gap, alpha_inner, eigen_data,
                         laguerre_ref, wavefunction_floats,
                         wavefunction_values)
from .numerics import (QuadraticSurd, _index, _step, parse_rational,
                       surd_to_float, surd_to_json)

OUT_DIR_ENV = "HYDROGRID_OUT_DIR"


class RunConfig(NamedTuple):
    command: str
    delta: Fraction = Fraction(1)
    deltas: tuple[Fraction, ...] = ()
    n_lo: int = 1
    n_hi: int = 1
    k_max: int = 20
    j_max: int = 20
    mode: str = "exact"
    output: str = "csv"
    out_path: str | None = None


# Each table is a header plus a generator of rows of typed cells.
# `_csv_cell` and `_json_value` render every cell, so CSV and JSON rows
# carry the same fields; a float cell is converted once, and no surd
# outlives the row that holds it.
Cell = int | Fraction | QuadraticSurd | float | None


def _surd(cfg: RunConfig, value: QuadraticSurd) -> QuadraticSurd | float:
    """A surd cell: kept exact, or converted once to a float in float mode."""
    if cfg.mode == "exact":
        return value
    return surd_to_float(value)


def _rows_spectrum(cfg: RunConfig) -> Iterator[list[Cell]]:
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        ed = eigen_data(n, cfg.delta)
        yield [n, _surd(cfg, ed.mu), _surd(cfg, ed.E), _surd(cfg, ed.q)]


# The wavefunction and pollaczek tables read float cells from the field's
# `q_floats` rows, with no exact power of q and no surd built.
def _rows_wavefunction(cfg: RunConfig) -> Iterator[list[Cell]]:
    values = (wavefunction_values if cfg.mode == "exact"
              else wavefunction_floats)
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        for k, u in enumerate(values(n, cfg.delta, cfg.k_max), start=1):
            yield [n, k, u]


def _rows_pollaczek(cfg: RunConfig) -> Iterator[list[Cell]]:
    from .pollaczek import mass_point, pollaczek_mass_closed  # only here
    for m in range(cfg.n_lo, cfg.n_hi + 1):
        mp = mass_point(m, cfg.delta)
        floats = mp.sequence.float_value
        for j in range(cfg.j_max + 1):
            yield [m, j, pollaczek_mass_closed(j, mp) if cfg.mode == "exact"
                   else floats(j)]


def _rows_coeffs(cfg: RunConfig) -> Iterator[list[Cell]]:
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        kmax = min(cfg.k_max, n - 1)
        table = alpha_inner(n, kmax)
        ell = laguerre_ref(n).coefficients
        for k in range(0, kmax + 1):
            assembled = _surd(cfg, table.assembled(k, cfg.delta))
            for m in range(0, k // 2 + 1):
                yield [n, k, m, ell[n - k], table.inner_coeff(k, m), assembled,
                       table.order_normalized(k, m) if m >= 1 else None]


def _rows_converge(cfg: RunConfig) -> Iterator[list[Cell]]:
    for n in range(cfg.n_lo, cfg.n_hi + 1):
        for delta in cfg.deltas or (cfg.delta,):
            yield [n, delta, *_continuum_gap(n, delta)]


class Command(NamedTuple):
    """One subcommand: its help, the default and lowest start of --n, its
    own option as (flag, default, help, lowest value), an int when it has
    a lowest value, and its table's header and rows (verify writes its
    report instead)."""
    help: str
    n: str
    n_min: int
    option: tuple[str, object, str, int | None] | None
    header: tuple[str, ...] = ()
    rows: Callable[[RunConfig], Iterator[list[Cell]]] | None = None


COMMANDS = {
    "spectrum": Command("eigenvalue table (mu, E, q)", "1..4", 1, None,
                        ("n", "mu", "E", "q"), _rows_spectrum),
    "wavefunction": Command("lattice eigenfunction table", "1..4", 1,
                            ("--kmax", 20, "last grid index", 1),
                            ("n", "k", "u"), _rows_wavefunction),
    "pollaczek": Command(
        "P_j at the mass points x_m (--n gives the m range)", "0..3", 0,
        ("--jmax", 20, "highest degree", 0), ("m", "j", "P"), _rows_pollaczek),
    "coeffs": Command(
        "inner/assembled coefficient tables", "1..4", 1,
        ("--kmax", 8, "deepest level k (capped at n-1 per state)", 0),
        ("n", "k", "m", "ell_n_minus_k", "inner", "assembled",
         "order_normalized"), _rows_coeffs),
    "verify": Command("run the cross-module invariant suite", "1..8", 1,
                      ("--kmax", 40, "rows per eigenvector identity check", 2)),
    "converge": Command(
        "continuum-limit energy sweep", "1..3", 1,
        ("--deltas", "1/5,1/10,1/20", "comma-separated list of lattice steps",
         None), ("n", "delta", "E", "E_plus_continuum", "ratio_to_delta_sq"),
        _rows_converge),
}


def _csv_cell(value: Cell) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


def _json_value(value: Cell):
    if isinstance(value, QuadraticSurd):
        return surd_to_json(value)
    if isinstance(value, Fraction):
        return str(value)
    return value


def _csv_text(header: Iterable[str], rows: Iterable[Iterable[str]]) -> str:
    r"""The header and rows as CSV, one comma-joined line each.

    These are the bytes of `csv.writer` with QUOTE_MINIMAL and "\n" line
    ends, which quotes a field only when it holds ',', '"', '\r' or '\n',
    or when it is the empty only field of its row.  No rendered cell holds
    one of those characters: an int or Fraction is digits, '-' and '/'; a
    surd adds '+', '√' and parentheses; a '.17g' float is digits, a sign,
    '.', 'e', 'inf' or 'nan'; a verify row is a check name and 'true' or
    'false'; an empty cell is "".  Every row has at least two fields.
    """
    lines = [",".join(header)]
    lines += map(",".join, rows)
    lines.append("")  # the last line's end
    return "\n".join(lines)


def _json_text(obj) -> str:
    import json
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


def _resolve_out_path(path: str) -> str:
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(path):
        return os.path.join(base, path)
    return path


def _write(cfg: RunConfig, text: str) -> None:
    if cfg.out_path is None:
        sys.stdout.write(text)
        return
    target = _resolve_out_path(cfg.out_path)
    parent = os.path.dirname(target)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(target, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def run(cfg: RunConfig) -> int:
    """Execute one command; returns the process exit status."""
    try:
        if cfg.command == "verify":
            from . import verify as verify_mod  # only this command loads it
            report = verify_mod.run_verification(cfg.delta, cfg.n_lo,
                                                 cfg.n_hi, cfg.k_max)
            if cfg.output == "csv":
                header = ["check", "passed"]
                rows = [[name, str(passed).lower()]
                        for name, passed in report["checks"].items()]
                text = _csv_text(header, rows)
            else:
                text = _json_text(report)
            _write(cfg, text)
            for line in verify_mod.format_report_lines(report):
                print(line, file=sys.stderr)
            return 0 if report["all_passed"] else 1

        cmd = COMMANDS[cfg.command]
        if cfg.output == "csv":
            text = _csv_text(cmd.header, ([_csv_cell(v) for v in row]
                                          for row in cmd.rows(cfg)))
        else:
            payload = {
                "command": cfg.command,
                "delta": str(cfg.delta),
                "mode": cfg.mode,
                "rows": [dict(zip(cmd.header, map(_json_value, row)))
                         for row in cmd.rows(cfg)],
            }
            if cfg.command == "converge":
                payload["deltas"] = [str(d) for d in (cfg.deltas or (cfg.delta,))]
            text = _json_text(payload)
        _write(cfg, text)
        return 0
    except (ValueError, ArithmeticError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _parse_range(text: str) -> tuple[int, int]:
    """--n as 'n' or 'lo..hi'; a malformed or empty range names --n."""
    lo_s, dots, hi_s = text.strip().partition("..")
    try:
        lo, hi = int(lo_s), int(hi_s if dots else lo_s)
    except ValueError:
        raise ValueError(
            f"--n must be an integer or a range 'lo..hi', got {text!r}"
        ) from None
    if lo > hi:
        raise ValueError(f"--n is an empty range {text!r}")
    return lo, hi


def _build_parser() -> tuple[argparse.ArgumentParser,
                               dict[str, argparse.ArgumentParser]]:
    """The root parser and each subcommand's parser, by name."""
    parser = argparse.ArgumentParser(
        prog="hydrogrid",
        description="Exact spectra, eigenfunctions and Pollaczek polynomial "
                    "tables for the lattice hydrogen radial problem.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name, help=cmd.help)
        p.add_argument("--delta", default="1",
                       help="lattice step, as 'p/q' or a decimal string")
        p.add_argument("--mode", choices=("exact", "float"), default="exact")
        p.add_argument("--precision-bits", type=int, default=96,
                       help="accepted for compatibility; no effect, since "
                            "every float conversion is correctly rounded")
        p.add_argument("--output", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, metavar="PATH",
                       help=f"output file (default stdout; relative paths "
                            f"resolve against ${OUT_DIR_ENV})")
        p.add_argument("--n", default=cmd.n, metavar="LO..HI",
                       help="state index range")
        if cmd.option:
            flag, default, text, lo = cmd.option
            p.add_argument(flag, type=None if lo is None else int,
                           default=default, help=text)

    return parser, sub.choices


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    allow_exp = args.mode == "float"
    delta = _step(parse_rational(args.delta, allow_exponent=allow_exp))
    n_lo, n_hi = _parse_range(args.n)
    deltas: tuple[Fraction, ...] = ()
    if getattr(args, "deltas", None):
        deltas = tuple(_step(parse_rational(part, allow_exponent=allow_exp))
                       for part in args.deltas.split(","))
    cmd = COMMANDS[args.command]
    _index(n_lo, "--n", cmd.n_min)
    if cmd.option and cmd.option[3] is not None:
        flag, _, _, lo = cmd.option
        _index(getattr(args, flag[2:]), flag, lo)
    return RunConfig(
        command=args.command,
        delta=delta,
        deltas=deltas,
        n_lo=n_lo,
        n_hi=n_hi,
        k_max=getattr(args, "kmax", 20),
        j_max=getattr(args, "jmax", 20),
        mode=args.mode,
        output=args.output,
        out_path=args.out,
    )


def main(argv: list[str] | None = None) -> int:
    parser, commands = _build_parser()
    args, extras = parser.parse_known_args(argv)
    if extras:  # the subcommand's usage, as for a value it rejects
        commands[args.command].error(
            f"unrecognized arguments: {' '.join(extras)}")
    try:
        cfg = _config_from_args(args)
    except ValueError as exc:
        # the subcommand's usage, as argparse prints for its own errors
        commands[args.command].print_usage(sys.stderr)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # An exact cell's integers grow without bound, past the 4300 digits
    # CPython converts to str by default; the limit is lifted for this run
    # only, so an in-process caller keeps its own.  Python before 3.10.7
    # has no limit.
    if not hasattr(sys, "set_int_max_str_digits"):
        return run(cfg)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return run(cfg)
    finally:
        sys.set_int_max_str_digits(limit)


if __name__ == "__main__":
    sys.exit(main())
