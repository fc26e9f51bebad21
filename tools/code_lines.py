"""Count code lines and AST nodes in each module of src/hfgenus.

A code line is a nonblank line holding a token that is neither a comment nor
part of a docstring; a docstring is any expression statement that is a
string constant.  The nodes are those `ast.walk` visits: with no cached
bytecode, as under PYTHONDONTWRITEBYTECODE=1, a process compiles every module
it imports, and compile time follows the node count, while docstrings and
comments cost almost nothing.  Prints code lines, AST nodes and total lines
per module and the sum.

    python tools/code_lines.py [DIR]
"""

from __future__ import annotations

import ast
import io
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


def main(argv: list) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parents[1] / "src" / "hfgenus"
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
