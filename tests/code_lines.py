"""Count the code lines of hydrogrid's modules.

A code line is a source line that is not blank, not only a comment and
not inside a module, class or function docstring.  tokenize finds the
lines that hold a token other than a comment or a line break, and ast
finds the docstrings, whose lines are then taken out.  A string that is
not a docstring counts on every line it spans.  This module needs only
the standard library:

    python tests/code_lines.py [DIR]

prints one count per module of DIR (default src/hydrogrid, next to this
file's directory) and the total.
"""

import ast
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE,
             tokenize.INDENT, tokenize.DEDENT, tokenize.ENCODING,
             tokenize.ENDMARKER}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef,
               ast.AsyncFunctionDef)


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file at path."""
    lines: set[int] = set()
    with path.open("rb") as source:
        for tok in tokenize.tokenize(source.readline):
            if tok.type not in _NOT_CODE:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(path.read_bytes())):
        if isinstance(node, _DOCUMENTED) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else (
        Path(__file__).resolve().parent.parent / "src" / "hydrogrid")
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path)
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
