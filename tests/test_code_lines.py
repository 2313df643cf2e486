from pathlib import Path

from code_lines import code_lines, main

FIXTURE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts as code

# a comment-only line


class Holder:
    """Class docstring."""

    text = """a string that is not a docstring
counts on every line
it spans"""

    def method(self):
        """Function docstring,

        with a blank line inside."""
        return os.sep
'''


def _write(tmp_path: Path) -> Path:
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURE)
    return path


def test_code_lines_counts_by_hand(tmp_path):
    # import, class, the three lines of text, def, return
    assert code_lines(_write(tmp_path)) == 7


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    _write(tmp_path)
    (tmp_path / "empty.py").write_text("# nothing but a comment\n")
    assert main(["code_lines.py", str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     0  empty.py", "     7  fixture.py", "     7  total"]
