"""In-memory span tracing of hydrogrid, installed from outside the package.

`Tracer.install()` replaces every public function of the six hydrogrid
modules, the surd `+` and `*` operators and the verify checks by wrappers
that record one span per call: name, start, end and parent.  Modules import
functions by name (`cli` and `spectral` hold their own references to
`pollaczek_mass_closed`, `wavefunction` and `surd_pow`), so every module
attribute that is one of the wrapped functions is replaced, not only the
defining one; otherwise intra-package calls would escape their spans.

Spans live in flat arrays until `write()` dumps them, together with the
`cache_info()` of the original `lru_cache` objects and the largest surd
component seen, to one file per job.  `layer_metrics()` turns the span
files of a job list into the per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

MODULES = ("numerics", "pollaczek", "coordinate", "spectral", "verify", "cli")

# Span names that differ from "<module>.<function>".
ALIASES = {
    "pollaczek.pollaczek_mass_closed": "pollaczek.mass_closed",
    "pollaczek.pollaczek_seq": "pollaczek.seq",
}
SURD_OPS = {"__add__": "numerics.surd_add", "__mul__": "numerics.surd_mul"}

MASS_CLOSED = "pollaczek.mass_closed"
INNER_PRODUCT = "spectral.inner_product"
RUN_VERIFICATION = "verify.run_verification"
CHECK_PREFIX = "verify._check_"


class Tracer:
    """Span recorder for one job process."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._widest = 0  # largest surd component seen so far
        self._surd: type = type(None)
        self._caches: dict[str, object] = {}

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _observe(self, value) -> None:
        """Keep the largest component of the surds a traced call returned."""
        for x in value if isinstance(value, tuple) else (value,):
            if not isinstance(x, self._surd):
                continue
            for frac in (x.a, x.b, x.D):
                for part in (abs(frac.numerator), frac.denominator):
                    if part > self._widest:
                        self._widest = part

    def wrap(self, name: str, fn):
        """Return `fn` wrapped so each call records a span named `name`."""
        nid = self._name_id(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1])
            starts.append(clock())
            ends.append(0.0)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            observe(result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the traced functions of `package` at every import site."""
        modules = [getattr(package, m) for m in MODULES]
        self._surd = package.numerics.QuadraticSurd
        originals: dict[int, tuple[str, object]] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in vars(mod).items():
                if not _is_traced(mod, attr, value):
                    continue
                name = f"{short}.{attr}"
                originals[id(value)] = (ALIASES.get(name, name), value)
                if hasattr(value, "cache_info"):
                    self._caches[ALIASES.get(name, name)] = value
        wrappers = {key: self.wrap(name, fn)
                    for key, (name, fn) in originals.items()}
        for mod in [package] + modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers:
                    setattr(mod, attr, wrappers[id(value)])
        for op, name in SURD_OPS.items():
            original = vars(self._surd)[op]
            wrapper = self.wrap(name, original)
            for attr, value in list(vars(self._surd).items()):
                if value is original:  # also __radd__ / __rmul__
                    setattr(self._surd, attr, wrapper)

    # -- output ------------------------------------------------------------

    def write(self, path: str) -> None:
        """Dump the spans: one JSON header line, then the four arrays."""
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses}
        header = {
            "job_id": self.job_id,
            "names": self.names,
            "count": len(self.span_name),
            "caches": caches,
            "max_digits": len(str(self._widest)),
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_start,
                        self.span_end):
                arr.tofile(fh)


def _is_traced(mod, attr: str, value) -> bool:
    if inspect.isclass(value) or not callable(value):
        return False
    if getattr(value, "__module__", None) != mod.__name__:
        return False
    if attr.startswith("_"):
        return mod.__name__.endswith(".verify") and attr.startswith("_check_")
    return True


def read_spans(path: str) -> dict:
    """Load a span file written by `Tracer.write`."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        count = header["count"]
        arrays = []
        for code in ("i", "i", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, count)
            arrays.append(arr)
    header["name"], header["parent"], header["start"], header["end"] = arrays
    return header


def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the part of it covered by its children.

    Children are clipped to their parent's interval and overlapping
    children are merged, so the result holds for any span tree.
    """
    count = len(parent)
    children: list[list[int]] = [[] for _ in range(count)]
    for i in range(count):
        if parent[i] >= 0:
            children[parent[i]].append(i)
    out = []
    for i in range(count):
        covered = 0.0
        lo_bound, hi_bound = start[i], end[i]
        cur_lo = cur_hi = None
        for c in sorted(children[i], key=lambda c: start[c]):
            lo, hi = max(start[c], lo_bound), min(end[c], hi_bound)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out.append(end[i] - start[i] - covered)
    return out


def job_layer_stats(spans: dict, check_names: list[str]) -> dict:
    """Per-name call counts and self times of one job, plus derived counts."""
    names = spans["names"]
    name, parent = spans["name"], spans["parent"]
    start, end = spans["start"], spans["end"]
    selfs = self_times(parent, start, end)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i, nid in enumerate(name):
        key = names[nid]
        calls[key] = calls.get(key, 0) + 1
        self_s[key] = self_s.get(key, 0.0) + selfs[i]

    ids = {key: nid for nid, key in enumerate(names)}
    inner_id = ids.get(INNER_PRODUCT, -2)
    closed_id = ids.get(MASS_CLOSED, -2)
    run_id = ids.get(RUN_VERIFICATION, -2)
    check_ids = {nid for key, nid in ids.items()
                 if key.startswith(CHECK_PREFIX)}
    under_inner = [False] * len(name)
    terms = 0
    check_spans = []
    for i, nid in enumerate(name):
        p = parent[i]
        # Spans are stored in start order, so a parent precedes its children.
        under_inner[i] = nid == inner_id or (p >= 0 and under_inner[p])
        if nid == closed_id and p >= 0 and under_inner[p]:
            terms += 1
        if nid in check_ids and p >= 0 and name[p] == run_id:
            check_spans.append(end[i] - start[i])
    if check_spans and len(check_spans) != len(check_names):
        raise ValueError(f"{len(check_spans)} check spans for "
                         f"{len(check_names)} report keys")
    return {
        "calls": calls,
        "self_s": self_s,
        "terms": terms,
        "checks": dict(zip(check_names, check_spans)),
        "caches": spans["caches"],
        "max_digits": spans["max_digits"],
    }
