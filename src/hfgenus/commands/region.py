"""region: the generators of the genus region and the maximal points outside
it, read off one `HTable.staircases` call, or drawn as an SVG staircase."""

from __future__ import annotations

from ..cli import _emit, _make_table
from ..errors import UsageError


def run(args) -> int:
    table = _make_table(args)
    generators, maximal = table.staircases()
    if args.format == "svg":
        if table.n != 2:
            raise UsageError("svg staircases need exactly two components")
        from ..render import region_svg
        return _emit(args, region_svg(generators, table.M, maximal))
    return _emit(args, {"name": table.link.name, "generators": generators,
                        "maximal_points": maximal},
                 {"generators": " ".join(map(str, generators)),
                  "maximal points": " ".join(map(str, maximal))})
