"""hydrogrid memoizes with `functools.lru_cache` in exactly two places.

`coordinate._state` holds the one bundle of each state, and
`numerics._radicand` the one radicand object of each D, which the state's
field and the surd operations compare by identity.  Everything else is a
finite computation in n whose result the bundle already holds, so a new
memo table is a reviewed decision: this test fails until it is added here.

Only the standard library's `ast` is needed.  A use is `lru_cache` or
`cache` imported from `functools` (under any alias), or read as
`functools.lru_cache` / `functools.cache`, in a decorator or a call.  It
is reported as the dotted name it is bound to: the decorated function or
class, or the target of the assignment that holds it.
"""

import ast
from pathlib import Path

import hydrogrid

SRC = Path(hydrogrid.__file__).resolve().parent
MEMOS = {"lru_cache", "cache"}
ALLOWED = {"coordinate._state", "numerics._radicand"}


def _aliases(tree: ast.Module) -> set[str]:
    """The local names that `from functools import ...` binds to a memo."""
    return {alias.asname or alias.name for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "functools"
            for alias in node.names if alias.name in MEMOS}


def _uses_memo(node: ast.AST, aliases: set[str]) -> bool:
    return any(
        (isinstance(n, ast.Name) and n.id in aliases)
        or (isinstance(n, ast.Attribute) and n.attr in MEMOS
            and isinstance(n.value, ast.Name) and n.value.id == "functools")
        for n in ast.walk(node))


def _memos(body: list[ast.stmt], prefix: str, aliases: set[str]) -> set[str]:
    found = set()
    for node in body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            if any(_uses_memo(d, aliases) for d in node.decorator_list):
                found.add(prefix + node.name)
            found |= _memos(node.body, f"{prefix}{node.name}.", aliases)
        elif _uses_memo(node, aliases):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [getattr(node, "target", None)])
            names = [n.id for t in targets if t is not None
                     for n in ast.walk(t) if isinstance(n, ast.Name)]
            found.update(prefix + name for name in names or
                         [f"<line {node.lineno}>"])
    return found


def memo_tables(src: Path) -> set[str]:
    """module.name for every lru_cache (or functools.cache) in src/*.py."""
    found = set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found |= _memos(tree.body, f"{path.stem}.", _aliases(tree))
    return found


def test_only_the_state_and_the_radicand_are_memoized():
    assert memo_tables(SRC) == ALLOWED


def test_every_form_of_a_memo_is_reported(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import functools\n"
        "from functools import lru_cache, cache as memo, reduce\n"
        "@lru_cache(maxsize=None)\n"
        "def table(n):\n"
        "    return n\n"
        "@memo\n"
        "def other(n):\n"
        "    return reduce(max, [n])\n"
        "held = lru_cache(maxsize=None)(int)\n"
        "class Holder:\n"
        "    @functools.lru_cache\n"
        "    def method(self):\n"
        "        return 1\n"
        "def plain():\n"
        "    inner = functools.cache(len)\n"
        "    return inner\n")
    assert memo_tables(tmp_path) == {
        "mod.table", "mod.other", "mod.held", "mod.Holder.method",
        "mod.plain.inner"}
