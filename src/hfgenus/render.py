"""Text and SVG rendering of h-tables and genus regions.

ASCII grids put the first coordinate on the horizontal axis and the second on
the vertical axis with the origin at the lower left, matching the staircase
pictures.  SVG output draws the region boundary staircase over a lattice
window and shades the complement; it is only produced for two components.
"""

from __future__ import annotations

from typing import Sequence

CELL = 28  # svg cell size in px


def ascii_h_row(table: HTable, window: int) -> str:
    rng = list(range(-window, window + 1))
    hs = [table.h((s,)) for s in rng]
    Hs = [table.H((s,)) for s in rng]
    width = max(len(str(v)) for v in hs + Hs + rng)
    svals = " ".join(f"{s:>{width}}" for s in rng)
    hvals = " ".join(f"{v:>{width}}" for v in hs)
    Hvals = " ".join(f"{v:>{width}}" for v in Hs)
    return f"s : {svals}\nh : {hvals}\nH : {Hvals}"


def ascii_h_grid(table: HTable, window: int) -> str:
    """h over [-window, window]^2; s1 horizontal, s2 vertical, origin lower left."""
    if table.n == 1:
        return ascii_h_row(table, window)
    if table.n != 2:
        raise ValueError("ASCII grids are only drawn for one or two components")
    rng = range(-window, window + 1)
    values = {(s1, s2): table.h((s1, s2)) for s1 in rng for s2 in rng}
    width = max(len(str(v)) for v in list(values.values()) + list(rng))
    lines = [" s2"]
    for s2 in reversed(rng):
        row = " ".join(f"{values[(s1, s2)]:>{width}}" for s1 in rng)
        lines.append(f"{s2:>4} | {row}")
    lines.append("     +" + "-" * ((width + 1) * len(list(rng)) + 1))
    lines.append("       " + " ".join(f"{s1:>{width}}" for s1 in rng) + "   s1")
    return "\n".join(lines)


def region_svg(generators: Sequence, window: int, maximal_points: Sequence) -> str:
    """SVG staircase over [0, window]^2 of the 2-dimensional region with these
    minimal generators.

    Unit cells whose lower-left lattice point is outside the region are shaded;
    the boundary staircase is drawn on top of them, and the generators and
    maximal lattice points are marked.
    """
    if any(len(g) != 2 for g in generators):
        raise ValueError("SVG staircases are only drawn for two components")
    W = window
    size = (W + 2) * CELL

    def px(x: int) -> int:
        return (x + 1) * CELL

    def py(y: int) -> int:
        return size - (y + 1) * CELL

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    # lowest member of each column, clipped to the window (W + 1 if none)
    low = [min([W + 1] + [y for x0, y in generators if x0 <= x])
           for x in range(W + 1)]
    # shaded complement cells
    for x in range(W + 1):
        for y in range(low[x]):
            parts.append(
                f'<rect x="{px(x)}" y="{py(y + 1)}" width="{CELL}" '
                f'height="{CELL}" fill="#d0d0d0"/>')
    # lattice grid
    for k in range(W + 2):
        parts.append(f'<line x1="{px(k)}" y1="{py(0)}" x2="{px(k)}" y2="{py(W + 1)}" '
                     f'stroke="#999999" stroke-width="1"/>')
        parts.append(f'<line x1="{px(0)}" y1="{py(k)}" x2="{px(W + 1)}" y2="{py(k)}" '
                     f'stroke="#999999" stroke-width="1"/>')
    # staircase boundary over the columns that meet the region
    xs = [x for x in range(W + 1) if low[x] <= W]
    if xs:
        pts = [(xs[0], W + 1)]
        for x in xs:
            pts.append((x, low[x]))
            pts.append((x + 1, low[x]))
        path = " ".join(f"{px(x)},{py(y)}" for x, y in pts)
        parts.append(f'<polyline points="{path}" fill="none" stroke="black" '
                     f'stroke-width="3"/>')
    for g in generators:
        if g[0] <= W and g[1] <= W:
            parts.append(f'<circle cx="{px(g[0])}" cy="{py(g[1])}" r="5" '
                         f'fill="black"/>')
    for z in maximal_points:
        if z[0] <= W and z[1] <= W:
            parts.append(f'<circle cx="{px(z[0])}" cy="{py(z[1])}" r="5" '
                         f'fill="none" stroke="black" stroke-width="2"/>')
    # axes labels
    parts.append(f'<text x="{px(W + 1) - CELL // 2}" y="{py(0) + CELL - 8}" '
                 f'font-family="monospace" font-size="14">s1</text>')
    parts.append(f'<text x="4" y="{py(W + 1) + CELL // 2}" '
                 f'font-family="monospace" font-size="14">s2</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
