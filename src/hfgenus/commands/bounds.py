"""bounds: the 4-genus lower bounds of a link and the unlink test."""

from __future__ import annotations

from ..bounds import best_lower_bound, unlink_test
from ..cli import _emit, _make_table


def run(args) -> int:
    table = _make_table(args)
    report = best_lower_bound(table)
    unlink = unlink_test(table)
    rows = {**report["bounds"], "best lower bound": f"{report['best']} (via {report['via']})"}
    if unlink:
        rows["h vanishes identically"] = "a slice L-space link with this data is the unlink"
    return _emit(args, {"name": table.link.name, **report, "unlink_consistent": unlink}, rows)
