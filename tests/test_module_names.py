"""Every module-level name of hydrogrid is used: read somewhere in the
package's source, or exported through `hydrogrid._MODULES`.

Only the standard library's `ast` is needed.  A read is a name loaded in
an expression (annotations included), an attribute read as `module.name`,
or a name imported by `from ... import name`.  Dunder names (`__all__`,
`__version__`, `__getattr__`, ...) are exempt.
"""

import ast
from pathlib import Path

import hydrogrid

SRC = Path(hydrogrid.__file__).resolve().parent


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            names.update(n.id for target in targets for n in ast.walk(target)
                         if isinstance(n, ast.Name))
    return {name for name in names if not name.startswith("__")}


def _read(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def unused_names(src: Path) -> list[str]:
    """module.name for every module-level name of src/*.py that is neither
    read anywhere in src nor exported."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    read = set().union(*map(_read, trees.values()))
    exported = {name for names in hydrogrid._MODULES.values()
                for name in names}
    return [f"{module}.{name}" for module, tree in trees.items()
            for name in sorted(_defined(tree) - read - exported)]


def test_every_module_level_name_is_read_or_exported():
    assert unused_names(SRC) == []


def test_an_unread_name_is_reported(tmp_path):
    (tmp_path / "mod.py").write_text(
        "import os\n"
        "__all__ = ['used']\n"
        "TABLE = (1, 2)\n"
        "LIMIT: int = 3\n"
        "def used(x: LIMIT) -> str:\n"
        "    return os.sep\n"
        "def helper():\n"
        "    return used\n"
        "class Spare:\n"
        "    pass\n")
    assert unused_names(tmp_path) == ["mod.Spare", "mod.TABLE", "mod.helper"]
