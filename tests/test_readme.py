"""The README's examples run as written and give the values it states."""

import ast
import re
import shlex
from pathlib import Path

import pytest

from hfgenus.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced_block(heading, lang):
    """The first ```lang block after the given heading."""
    match = re.search(rf"^{re.escape(heading)}\n.*?^```{lang}\n(.*?)^```", README,
                      re.DOTALL | re.MULTILINE)
    assert match, f"no {lang} block under {heading!r}"
    return match.group(1)


COMMANDS = [line for line in fenced_block("## Command line", "sh").splitlines()
            if line.startswith("hfgenus ")]


def test_readme_lists_commands():
    assert len(COMMANDS) >= 5


@pytest.mark.parametrize("line", COMMANDS)
def test_readme_command_runs(line, tmp_path, monkeypatch, capsys):
    (tmp_path / "mylink.json").write_text(fenced_block("## Link descriptor JSON", "json"))
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    assert code == 0, capsys.readouterr().err


def stated_value(comment):
    """The value a '# ...' comment states, and whether it lists only some keys
    of a dict (a trailing ', ...')."""
    partial = comment.endswith(", ...}")
    if partial:
        comment = comment[:-len(", ...}")] + "}"
    return ast.literal_eval(comment), partial


def test_readme_library_values():
    source = fenced_block("## Library", "python")
    lines = source.splitlines()
    namespace: dict = {}
    checked = 0
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        _, hash_, comment = lines[stmt.end_lineno - 1].partition("#")
        if not (isinstance(stmt, ast.Expr) and hash_):
            exec(compile(code, "README.md", "exec"), namespace)
            continue
        value = eval(compile(code, "README.md", "eval"), namespace)
        want, partial = stated_value(comment.strip())
        if partial:
            assert {k: value[k] for k in want} == want, code
        else:
            assert value == want, code
        checked += 1
    assert checked >= 4
