"""tools/code_lines.py counts code lines as its docstring defines them."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
spec = importlib.util.spec_from_file_location("code_lines", TOOL)
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
def f(x):  # code with a trailing comment
    """Docstring."""
    "a string statement anywhere is a docstring"
    text = """data,
not a docstring"""
    return (x +
            1)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    assert code_lines.code_lines(SOURCE) == 5


def test_code_lines_prints_every_module_and_the_sum(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows[1:] == [["a.py", "5", "11"], ["b.py", "1", "2"], ["sum", "6", "13"]]
