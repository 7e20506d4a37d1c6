import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
on two lines."""

import math   # a trailing comment keeps its line


class A:
    """Class docstring."""

    x = 1
    # a comment line


def f(a,
      b):
    """Function docstring."""
    text = """a string that is not
a docstring"""
    return (a +

            b)
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, class A, x = 1, def f (two lines), text (two lines), return (two lines)
    assert code_lines.code_lines(SOURCE) == 9


def test_code_lines_print_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text("x = 1\n")
    (tmp_path / "pkg" / "b.py").write_text(SOURCE)
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "9", "10"]
    assert lines[-1].split()[1] == "total"
