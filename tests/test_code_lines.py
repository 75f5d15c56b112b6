"""tools/code_lines.py counts the physical lines that hold code: a
docstring, a comment line and a blank line count nothing, and every line of
a continued expression or a multi-line string counts."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SNIPPET = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# a comment line
def area(r):
    """One-line docstring."""

    total = (math.pi
             * r
             ** 2)
    note = """not a docstring,
    so both lines count"""
    return total, note


class Shape:
    """Class docstring."""
    sides = 0
'''


def test_snippet_counts_only_code_lines():
    # import, def, the three-line expression, the two-line string, return,
    # class, sides
    assert code_lines.code_lines(SNIPPET) == 10


def test_cli_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert code_lines.main([str(tmp_path / "a.py"), str(tmp_path / "b.py")]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "    10  a.py", "     1  b.py", "    11  total", ""]
