"""Count code lines and AST nodes in each module of src/hfgenus.

A code line is a nonblank line holding a token that is neither a comment nor
part of a docstring; a docstring is any expression statement that is a
string constant.  The nodes are those `ast.walk` visits: with no cached
bytecode, as under PYTHONDONTWRITEBYTECODE=1, a process compiles every module
it imports, and compile time follows the node count, while docstrings and
comments cost almost nothing.  Prints code lines, AST nodes and total lines
per module and the sum.

    python tools/code_lines.py [DIR]
    python tools/code_lines.py --command ARG...

With --command, it runs `hfgenus ARG...` in a fresh interpreter, the
command's own output discarded, and prints the AST nodes of each `hfgenus`
module the command loads and their sum: the nodes that one job of that
command compiles.  The exit code is the command's.
"""

from __future__ import annotations

import ast
import io
import os
import subprocess
import sys
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(source: str) -> int:
    docstrings = [((node.lineno, node.col_offset), (node.end_lineno, node.end_col_offset))
                  for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)]
    rows = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in NON_CODE or tok.type == tokenize.STRING and any(
                start <= tok.start and tok.end <= end for start, end in docstrings):
            continue
        rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def ast_nodes(source: str) -> int:
    return sum(1 for _ in ast.walk(ast.parse(source)))


SRC = Path(__file__).resolve().parents[1] / "src"

# Run the command with its output discarded, then list the hfgenus modules it
# loaded, one a line, after the exit code.
_CHILD = """import contextlib, io, sys
from hfgenus.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # -h
        code = exc.code
print(code)
print("\\n".join(sorted(m for m in sys.modules if m.split(".")[0] == "hfgenus")))
"""


def command_modules(argv: list) -> tuple:
    """The exit code of `hfgenus ARG...` run in a fresh interpreter, and the
    sorted names of the hfgenus modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, *modules = proc.stdout.splitlines()
    return int(code), modules


def module_path(module: str) -> Path:
    """The source file of an hfgenus module."""
    return SRC / "hfgenus" / f"{module.partition('.')[2] or '__init__'}.py"


def command_nodes(argv: list) -> int:
    code, modules = command_modules(argv)
    total = 0
    print(f"{'module':<20} {'nodes':>6}")
    for module in modules:
        nodes = ast_nodes(module_path(module).read_text(encoding="utf-8"))
        total += nodes
        print(f"{module:<20} {nodes:>6}")
    print(f"{'sum':<20} {total:>6}")
    return code


def main(argv: list) -> int:
    if argv[:1] == ["--command"]:
        return command_nodes(argv[1:])
    root = Path(argv[0]) if argv else SRC / "hfgenus"
    code = nodes = total = 0
    print(f"{'module':<16} {'code':>6} {'nodes':>6} {'total':>6}")
    for path in sorted(root.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        c, n, t = code_lines(source), ast_nodes(source), len(source.splitlines())
        code, nodes, total = code + c, nodes + n, total + t
        print(f"{path.name:<16} {c:>6} {n:>6} {t:>6}")
    print(f"{'sum':<16} {code:>6} {nodes:>6} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
