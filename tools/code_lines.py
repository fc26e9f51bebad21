"""Count code lines and AST nodes in each module of src/hfgenus and its
subpackages.

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
command compiles.  Beside each, it prints the unused nodes: those of the
module's top-level functions and of the methods of its top-level classes
that the command compiled but never called, as a `sys.setprofile` hook in
the child saw it.  The exit code is the command's.
"""

from __future__ import annotations

import ast
import io
import json
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


def ast_nodes(source) -> int:
    """The nodes of a source text, or of a parsed tree."""
    tree = ast.parse(source) if isinstance(source, str) else source
    return sum(1 for _ in ast.walk(tree))


SRC = Path(__file__).resolve().parents[1] / "src"

# Run the command with its output discarded and every Python call recorded,
# then print the exit code and, as JSON, the (first line, name) of each code
# object called in each hfgenus module the command loaded.
_CHILD = """import contextlib, io, json, sys
seen = set()
def record(frame, event, arg):
    if event == "call":
        seen.add((frame.f_code.co_filename, frame.f_code.co_firstlineno, frame.f_code.co_name))
sys.setprofile(record)
from hfgenus.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    try:
        code = main(sys.argv[1:])
    except SystemExit as exc:  # -h
        code = exc.code
sys.setprofile(None)
files = {sys.modules[m].__file__: m for m in sys.modules if m.split(".")[0] == "hfgenus"}
called = {m: [] for m in files.values()}
for filename, line, name in seen:
    if filename in files:
        called[files[filename]].append([line, name])
print(code)
print(json.dumps(called, sort_keys=True))
"""


def command_calls(argv: list) -> tuple:
    """The exit code of `hfgenus ARG...` run in a fresh interpreter, and for
    each hfgenus module it loaded, in name order, the set of (first line,
    name) of the code objects it called there."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _CHILD, *argv], env=env,
                          capture_output=True, text=True, check=True)
    code, called = proc.stdout.splitlines()
    return int(code), {module: {tuple(call) for call in calls}
                       for module, calls in sorted(json.loads(called).items())}


def module_path(module: str) -> Path:
    """The source file of an hfgenus module or package."""
    path = SRC.joinpath(*module.split("."))
    return path / "__init__.py" if path.is_dir() else path.with_suffix(".py")


def definitions(tree: ast.Module):
    """The top-level functions and the methods of top-level classes, each
    with the first line of its code object: its first decorator's, if any."""
    for node in tree.body:
        for fn in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield min([fn.lineno] + [d.lineno for d in fn.decorator_list]), fn


def unused_nodes(tree: ast.Module, called: set) -> int:
    """The nodes of the definitions whose code was never called."""
    return sum(ast_nodes(fn) for line, fn in definitions(tree)
               if (line, fn.name) not in called)


def command_nodes(argv: list) -> int:
    code, calls = command_calls(argv)
    total = unused = 0
    print(f"{'module':<30} {'nodes':>6} {'unused':>6}")
    for module, called in calls.items():
        tree = ast.parse(module_path(module).read_text(encoding="utf-8"))
        nodes, idle = ast_nodes(tree), unused_nodes(tree, called)
        total, unused = total + nodes, unused + idle
        print(f"{module:<30} {nodes:>6} {idle:>6}")
    print(f"{'sum':<30} {total:>6} {unused:>6}")
    return code


def main(argv: list) -> int:
    if argv[:1] == ["--command"]:
        return command_nodes(argv[1:])
    root = Path(argv[0]) if argv else SRC / "hfgenus"
    code = nodes = total = 0
    print(f"{'module':<26} {'code':>6} {'nodes':>6} {'total':>6}")
    for path in sorted(root.rglob("*.py")):
        source = path.read_text(encoding="utf-8")
        c, n, t = code_lines(source), ast_nodes(source), len(source.splitlines())
        code, nodes, total = code + c, nodes + n, total + t
        print(f"{path.relative_to(root).as_posix():<26} {c:>6} {n:>6} {t:>6}")
    print(f"{'sum':<26} {code:>6} {nodes:>6} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
