"""tools/src_lines.py: code, docstring and comment-only lines per module."""

import importlib.util
import pathlib

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring
on two lines."""

# a comment-only line
import os  # a trailing comment


def f(x):
    """One line."""
    s = """a string
that is no docstring"""
    return s


class C:
    """Class
    docstring."""
'''


def test_count_lines():
    # code: import, def, the two lines of s, return, class; docstrings: 1-2, 9
    # and 16-17; the trailing comment's line is a code line
    assert src_lines.count_lines(SOURCE) == (6, 5, 1)


def test_one_row_per_module_and_a_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("x = 1\n", encoding="utf-8")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["code", "doc", "comment", "module"], ["6", "5", "1", "a.py"],
                    ["1", "0", "0", "b.py"], ["7", "5", "1", "total"]]
