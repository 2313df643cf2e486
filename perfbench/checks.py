"""Output checks for benchmark jobs, by routes independent of the job's own.

Each `check_*` function takes a job and its captured output and returns
None when the output is correct, or a one-line reason when it is not.  The
checks do their own field arithmetic on (a, b) pairs meaning a + b*sqrt(D),
so a defect in hydrogrid's `QuadraticSurd` cannot hide in the reference
values, and they evaluate exact values to floats with `decimal`, never with
`surd_to_float`.

* pollaczek rows are compared with the three-term recursion that
  `pollaczek_seq` runs;
* wavefunction rows must make the exact difference-equation residual over
  three consecutive rows vanish, and the first row must match the value
  built from the `solve_constraint_system` coefficients;
* coeffs rows must be consistent with their own inner coefficients and, at
  sampled n, agree with `solve_constraint_system`;
* float cells must lie within 4 ulp of the exact reference value;
* verify jobs must exit 0 with every check passed;
* solvers jobs must find the mass points and reproduce `alpha_inner`.
"""

from __future__ import annotations

import csv
import decimal
import io
import json
import math
import re
from fractions import Fraction

_RATIONAL = r"-?\d+(?:/\d+)?"
_RATIONAL_RE = re.compile(rf"^{_RATIONAL}$")
_SURD_RE = re.compile(
    rf"^({_RATIONAL})([+-])(\d+(?:/\d+)?)√(\d+|\(\d+/\d+\))$")
_DEC = decimal.Context(prec=60, Emin=-999999, Emax=999999)


class CheckFailure(Exception):
    """An output value or structure that is wrong."""


# -- exact values a + b*sqrt(D) --------------------------------------------

def _frac(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise CheckFailure(f"not a rational: {text!r}")
    return Fraction(text)


def parse_surd(cell: str) -> tuple[Fraction, Fraction, Fraction]:
    """Parse an exact cell "a", "a+b√D" or "a-b√(p/q)" into (a, b, D)."""
    m = _SURD_RE.match(cell)
    if m is None:
        return _frac(cell), Fraction(0), Fraction(0)
    b = _frac(m.group(3))
    return (_frac(m.group(1)), b if m.group(2) == "+" else -b,
            _frac(m.group(4).strip("()")))


def _rational_sqrt(x: Fraction) -> Fraction | None:
    rn, rd = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if rn * rn == x.numerator and rd * rd == x.denominator:
        return Fraction(rn, rd)
    return None


def _fold(a: Fraction, b: Fraction, d: Fraction):
    if b != 0:
        root = _rational_sqrt(d)
        if root is None:
            return a, b, d
        a += b * root
    return a, Fraction(0), Fraction(0)


def same_value(x: tuple, y: tuple) -> bool:
    """Exact equality of the reals a + b*sqrt(D) given as (a, b, D)."""
    a1, b1, d1 = _fold(*x)
    a2, b2, d2 = _fold(*y)
    if a1 != a2:
        return False
    if b1 == 0 or b2 == 0:
        return b1 == b2
    return (b1 > 0) == (b2 > 0) and b1 * b1 * d1 == b2 * b2 * d2


def mul(x: tuple, y: tuple, d: Fraction) -> tuple:
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def to_decimal(a: Fraction, b: Fraction, d: Fraction) -> decimal.Decimal:
    """a + b*sqrt(D) to 60 significant digits, without cancellation."""
    a, b, d = _fold(a, b, d)

    def dec(f: Fraction) -> decimal.Decimal:
        return _DEC.divide(decimal.Decimal(f.numerator),
                           decimal.Decimal(f.denominator))

    if b == 0:
        return dec(a)
    root = _DEC.sqrt(dec(d))
    if (a >= 0) == (b >= 0):
        return _DEC.add(dec(a), _DEC.multiply(dec(b), root))
    # a and b*sqrt(D) cancel: use (a^2 - b^2 D) / (a - b*sqrt(D)).
    conj = _DEC.subtract(dec(a), _DEC.multiply(dec(b), root))
    return _DEC.divide(dec(a * a - b * b * d), conj)


def within_4ulp(cell: str, exact: tuple) -> bool:
    """A float cell lies within 4 ulp of the exact value (a, b, D)."""
    try:
        got = float(cell)
    except ValueError:
        return False
    ref = to_decimal(*exact)
    ulp = decimal.Decimal(math.ulp(float(ref)))
    return abs(_DEC.subtract(decimal.Decimal(got), ref)) <= 4 * ulp


# -- helpers ----------------------------------------------------------------

def _csv_rows(stdout: bytes, header: list[str]) -> list[list[str]]:
    rows = list(csv.reader(io.StringIO(stdout.decode("utf-8"))))
    if not rows or rows[0] != header:
        raise CheckFailure(f"bad header {rows[:1]}")
    return rows[1:]


def _cell_ok(cell: str, exact: tuple, mode: str) -> bool:
    if mode == "exact":
        return same_value(parse_surd(cell), exact)
    return within_4ulp(cell, exact)


def _range(text: str) -> tuple[int, int]:
    lo, hi = text.split("..")
    return int(lo), int(hi)


def laguerre(n: int, k: int) -> Fraction:
    """ell_k = ((-2/n)^(k-1) / k!) C(n-1, k-1)."""
    return (Fraction(-2, n) ** (k - 1) / math.factorial(k)
            * math.comb(n - 1, k - 1))


def _over(value: tuple, d: Fraction) -> tuple[Fraction, Fraction]:
    """Rewrite (a, b, D) as a pair (a, b') with a + b'*sqrt(d) equal."""
    a, b, dd = value
    if b == 0 or dd == d:
        return a, b
    ratio = _rational_sqrt(dd / d)
    if ratio is None:
        raise CheckFailure(f"{value} is not in Q(sqrt({d}))")
    return a, b * ratio


def _pairs(surds, d: Fraction) -> list[tuple]:
    return [_over((x.a, x.b, x.D), d) for x in surds]


def solved_alphas(n: int, delta: Fraction, d: Fraction) -> list[tuple]:
    """alpha_1..alpha_n from the first-principles constraint solve."""
    import hydrogrid

    return _pairs(hydrogrid.solve_constraint_system(
        hydrogrid.ansatz_constraint_system(n, delta)), d)


# -- per-command checks -----------------------------------------------------

def check_pollaczek(args: dict, stdout: bytes) -> None:
    delta, mode = Fraction(args["--delta"]), args.get("--mode", "exact")
    m_lo, m_hi = _range(args["--n"])
    jmax = int(args["--jmax"])
    rows = _csv_rows(stdout, ["m", "j", "P"])
    if len(rows) != (m_hi - m_lo + 1) * (jmax + 1):
        raise CheckFailure(f"{len(rows)} pollaczek rows")
    it = iter(rows)
    for m in range(m_lo, m_hi + 1):
        s = delta / (m + 1)
        d = 1 + s * s  # x_m = sqrt(d)
        prev, cur = (Fraction(0), Fraction(0)), (Fraction(1), Fraction(0))
        for j in range(jmax + 1):
            row = next(it)
            if row[:2] != [str(m), str(j)]:
                raise CheckFailure(f"row order at m={m}, j={j}: {row[:2]}")
            if not _cell_ok(row[2], (cur[0], cur[1], d), mode):
                raise CheckFailure(f"P_{j}(x_{m}) = {row[2]!r} is wrong")
            # (j+1) P_{j+1} = 2((j+1) x - delta) P_j - (j+1) P_{j-1}
            t = mul((-delta, Fraction(j + 1)), cur, d)
            nxt = ((2 * t[0] - (j + 1) * prev[0]) / (j + 1),
                   (2 * t[1] - (j + 1) * prev[1]) / (j + 1))
            prev, cur = cur, nxt


def check_wavefunction(args: dict, stdout: bytes) -> None:
    delta, mode = Fraction(args["--delta"]), args.get("--mode", "exact")
    n_lo, n_hi = _range(args["--n"])
    kmax = int(args["--kmax"])
    rows = _csv_rows(stdout, ["n", "k", "u"])
    if len(rows) != (n_hi - n_lo + 1) * kmax:
        raise CheckFailure(f"{len(rows)} wavefunction rows")
    it = iter(rows)
    for n in range(n_lo, n_hi + 1):
        t = delta / n
        d = 1 + t * t
        mu = (Fraction(0), Fraction(1))
        q = (-t, Fraction(1))
        poly = (Fraction(0), Fraction(0))
        for j, alpha in enumerate(solved_alphas(n, delta, d), start=1):
            c = laguerre(n, j) * delta ** j
            poly = (poly[0] + alpha[0] * c, poly[1] + alpha[1] * c)
        anchor = mul(poly, q, d)
        cells = []
        for k in range(1, kmax + 1):
            row = next(it)
            if row[:2] != [str(n), str(k)]:
                raise CheckFailure(f"row order at n={n}, k={k}: {row[:2]}")
            cells.append(row[2])
        if mode == "exact":
            u = [(Fraction(0), Fraction(0))]
            u += [_over(parse_surd(cell), d) for cell in cells]
            if not same_value((*u[1], d), (*anchor, d)):
                raise CheckFailure(f"u_1 at n={n} is {cells[0]!r}")
            for k in range(1, kmax):
                # u_{k-1}/2 + u_{k+1}/2 + (delta/k) u_k - mu u_k = 0
                mu_u = mul(mu, u[k], d)
                res = tuple((u[k - 1][i] + u[k + 1][i]) / 2
                            + delta / k * u[k][i] - mu_u[i] for i in (0, 1))
                if not same_value((*res, d), (0, 0, 0)):
                    raise CheckFailure(f"residual at n={n}, k={k} is {res}")
        else:
            prev, cur = (Fraction(0), Fraction(0)), anchor
            for k, cell in enumerate(cells, start=1):
                if not within_4ulp(cell, (cur[0], cur[1], d)):
                    raise CheckFailure(f"u_{k} at n={n} = {cell!r} is wrong")
                # u_{k+1} = 2 (mu - delta/k) u_k - u_{k-1}
                step = mul((-delta / k, Fraction(1)), cur, d)
                prev, cur = cur, (2 * step[0] - prev[0],
                                  2 * step[1] - prev[1])


def check_coeffs(args: dict, stdout: bytes, sample: tuple[int, ...]) -> None:
    """Rows must be self-consistent; at the `sample` n they must also match
    the constraint solve."""
    delta, mode = Fraction(args["--delta"]), args.get("--mode", "exact")
    n_lo, n_hi = _range(args["--n"])
    kmax = int(args["--kmax"])
    header = ["n", "k", "m", "ell_n_minus_k", "inner", "assembled",
              "order_normalized"]
    rows = _csv_rows(stdout, header)
    it = iter(rows)
    count = 0
    for n in range(n_lo, n_hi + 1):
        t = delta / n
        d = 1 + t * t
        solved = solved_alphas(n, delta, d) if n in sample else None
        for k in range(0, min(kmax, n - 1) + 1):
            body = Fraction(0)
            cells = set()
            for m in range(0, k // 2 + 1):
                row = next(it, None)
                count += 1
                if row is None or row[:3] != [str(n), str(k), str(m)]:
                    raise CheckFailure(f"row order at n={n}, k={k}, m={m}")
                if _frac(row[3]) != laguerre(n, n - k):
                    raise CheckFailure(f"ell at n={n}, k={k} is {row[3]!r}")
                inner = _frac(row[4])
                if m == 0:
                    expect = ""
                    if inner != 1:
                        raise CheckFailure(f"inner(n={n}, k={k}, 0) != 1")
                else:
                    expect = str(inner * n ** (2 * m)
                                  * Fraction(math.factorial(n - k + 2 * m - 1),
                                             math.factorial(n - k))
                                  / math.comb(k // 2, m))
                if row[6] != expect:
                    raise CheckFailure(f"order_normalized at n={n}, k={k}, "
                                       f"m={m} is {row[6]!r}")
                body += inner * delta ** (2 * m)
                cells.add(row[5])
            if len(cells) != 1:
                raise CheckFailure(f"assembled differs across m at n={n}, "
                                   f"k={k}")
            cell = cells.pop()
            # even k is rational, odd k carries one factor sqrt(d)
            value = ((body, Fraction(0), d) if k % 2 == 0
                     else (Fraction(0), body, d))
            if not _cell_ok(cell, value, mode):
                raise CheckFailure(f"assembled at n={n}, k={k} is {cell!r}")
            if solved is not None and not same_value(
                    value, (*solved[n - k - 1], d)):
                raise CheckFailure(f"alpha_{n - k} at n={n} disagrees with "
                                   f"the constraint solve")
    if next(it, None) is not None:
        raise CheckFailure(f"extra coeffs rows after {count}")


def check_verify(args: dict, stdout: bytes) -> None:
    report = json.loads(stdout)
    n_lo, n_hi = _range(args["--n"])
    config = {"delta": str(Fraction(args["--delta"])), "n_range": [n_lo, n_hi],
              "kmax": int(args["--kmax"])}
    if report.get("config") != config:
        raise CheckFailure(f"report config {report.get('config')}")
    failed = [k for k, v in report["checks"].items() if v is not True]
    if failed or report["all_passed"] is not True or not report["checks"]:
        raise CheckFailure(f"verify checks failed: {failed}")


def mass_point_decimal(m: int, delta: Fraction) -> decimal.Decimal:
    s = delta / (m + 1)
    return to_decimal(Fraction(0), Fraction(1), 1 + s * s)


def resolved_mass_points(size: int, delta: Fraction) -> int:
    """How many top mass points a truncation to `size` rows resolves.

    The eigenvector of x_m grows like k^(m+1) q^k and peaks near
    k* = (m+1)/asinh(delta/(m+1)).  The truncated eigenvalue misses x_m by
    more than 1e-10 once size falls to about 2.5 k*; size >= 4 k* keeps
    the error far below the 1e-9 the check allows.
    """
    count = 1
    while count < 24 and size >= 4 * (count + 1) / math.asinh(
            float(delta) / (count + 1)):
        count += 1
    return count


def check_solvers(spec: dict, stdout: bytes) -> None:
    import hydrogrid

    out = json.loads(stdout)
    delta, n = Fraction(spec["delta"]), spec["n"]
    eig = [float(x) for x in out["eigenvalues"]]
    if eig != sorted(eig) or not eig or eig[0] <= 1.0:
        raise CheckFailure("eigenvalues not ascending above 1")
    top = eig[::-1]
    count = resolved_mass_points(spec["size"], delta)
    if len(top) < count:
        raise CheckFailure(f"{len(top)} eigenvalues, expected >= {count}")
    for m in range(count):
        if abs(decimal.Decimal(top[m]) - mass_point_decimal(m, delta)) > \
                decimal.Decimal("1e-9"):
            raise CheckFailure(f"eigenvalue {top[m]!r} misses x_{m}")
    t = delta / n
    d = 1 + t * t
    table = hydrogrid.alpha_inner(n, n - 1)
    expected = _pairs([table.assembled(n - j, delta)
                       for j in range(1, n + 1)], d)
    if len(out["alphas"]) != n:
        raise CheckFailure(f"{len(out['alphas'])} alphas for n={n}")
    for j, (got, exp) in enumerate(zip(out["alphas"], expected), start=1):
        value = tuple(_frac(x) for x in got)
        if not same_value(value, (*exp, d)):
            raise CheckFailure(f"solve alpha_{j} != alpha_inner at n={n}")


def check_job(job: dict, code: int, stdout: bytes) -> str | None:
    """None if the job's exit code and output are correct, else a reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        if job["kind"] == "solvers":
            check_solvers(job["spec"], stdout)
            return None
        argv = job["argv"]
        args = dict(zip(argv[1::2], argv[2::2]))
        command = argv[0]
        if command == "pollaczek":
            check_pollaczek(args, stdout)
        elif command == "wavefunction":
            check_wavefunction(args, stdout)
        elif command == "coeffs":
            check_coeffs(args, stdout, tuple(job["sample_n"]))
        elif command == "verify":
            check_verify(args, stdout)
        else:
            return f"no check for command {command!r}"
    except (CheckFailure, ValueError, KeyError, TypeError,
            ArithmeticError) as exc:
        return f"{type(exc).__name__}: {exc}"
    return None
