"""SVG staircases: the column minima read off the generators agree with the
per-cell membership scan."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfgenus.hfunction import HTable
from hfgenus.linkcat import catalog
from hfgenus.region import UpwardClosedRegion
from hfgenus.render import CELL, ascii_h_grid, region_svg
from oracles import assert_refused


def per_cell_region_svg(region, window, maximal_points):
    """The staircase drawn by testing every cell of [0, window]^2 with
    `contains`: O(W^2 |G|), kept as the oracle for `region_svg`."""
    W = window
    size = (W + 2) * CELL

    def px(x):
        return (x + 1) * CELL

    def py(y):
        return size - (y + 1) * CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x in range(W + 1):
        for y in range(W + 1):
            if not region.contains((x, y)):
                parts.append(
                    f'<rect x="{px(x)}" y="{py(y + 1)}" width="{CELL}" '
                    f'height="{CELL}" fill="#d0d0d0"/>')
    for k in range(W + 2):
        parts.append(f'<line x1="{px(k)}" y1="{py(0)}" x2="{px(k)}" y2="{py(W + 1)}" '
                     f'stroke="#999999" stroke-width="1"/>')
        parts.append(f'<line x1="{px(0)}" y1="{py(k)}" x2="{px(W + 1)}" y2="{py(k)}" '
                     f'stroke="#999999" stroke-width="1"/>')
    if not region.is_empty():
        col_min = {}
        for x in range(W + 1):
            ys = [y for y in range(W + 1) if region.contains((x, y))]
            if ys:
                col_min[x] = min(ys)
        if col_min:
            xs = sorted(col_min)
            pts = [(xs[0], W + 1)]
            for x in xs:
                pts.append((x, col_min[x]))
                pts.append((x + 1, col_min[x]))
            path = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
            parts.append(f'<polyline points="{path}" fill="none" stroke="black" '
                         f'stroke-width="3"/>')
        for g in region.generators:
            if g[0] <= W and g[1] <= W:
                parts.append(f'<circle cx="{px(g[0])}" cy="{py(g[1])}" r="5" '
                             f'fill="black"/>')
    for z in maximal_points:
        if z[0] <= W and z[1] <= W:
            parts.append(f'<circle cx="{px(z[0])}" cy="{py(z[1])}" r="5" '
                         f'fill="none" stroke="black" stroke-width="2"/>')
    parts.append(f'<text x="{px(W + 1) - CELL // 2}" y="{py(0) + CELL - 8}" '
                 f'font-family="monospace" font-size="14">s1</text>')
    parts.append(f'<text x="4" y="{py(W + 1) + CELL // 2}" '
                 f'font-family="monospace" font-size="14">s2</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


POINTS = st.lists(st.tuples(st.integers(0, 14), st.integers(0, 14)), max_size=8)


@given(POINTS, st.integers(0, 12), POINTS)
def test_region_svg_matches_the_per_cell_scan(generators, window, maximal_points):
    region = UpwardClosedRegion(2, tuple(generators))
    assert region_svg(region.generators, window, maximal_points) == \
        per_cell_region_svg(region, window, maximal_points)


def test_region_svg_needs_two_coordinates():
    with pytest.raises(ValueError, match="only drawn for two components"):
        region_svg(((0, 1, 2),), 3, ())


# (what is refused, the call, the exception type, its message)
REFUSALS = [
    ("an ascii grid of three components", lambda: ascii_h_grid(HTable(catalog("borromean")), 2),
     ValueError, "ASCII grids are only drawn for one or two components"),
]


@pytest.mark.parametrize("what, call, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals(what, call, error, message):
    assert_refused(call, error, message)
