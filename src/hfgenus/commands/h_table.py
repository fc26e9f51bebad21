"""h-table: h and H over the cube [-M, M]^n, as JSON or, for one or two
components, as an ASCII grid."""

from __future__ import annotations

from ..cli import _emit, _make_table
from ..errors import UsageError


def _nested(table, fn, prefix=()):
    """fn over [-M, M]^n as nested lists, the first coordinate outermost."""
    if len(prefix) == table.n:
        return fn(prefix)
    return [_nested(table, fn, prefix + (s,)) for s in range(-table.M, table.M + 1)]


def run(args) -> int:
    table = _make_table(args)
    if (args.format or ("ascii" if table.n <= 2 else "json")) == "json":
        return _emit(args, {"name": table.link.name, "window": table.M,
                            "origin": [-table.M] * table.n,
                            "h": _nested(table, table.h), "H": _nested(table, table.H)})
    if table.n > 2:
        raise UsageError("ascii grids need one or two components; use --format json")
    from ..render import ascii_h_grid
    return _emit(args, ascii_h_grid(table, table.M) + "\n")
