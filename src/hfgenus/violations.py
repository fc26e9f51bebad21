"""The problems of an H-function that breaks its laws, as messages.

`HTable` checks unit steps and the shell law on its h list with whole-list
operations and imports this module only when no sublink's face fails them,
to render each violation of a failing table as the `StabilizationError`
problems, stated on H = h + H_O: the failing steps, and the negative values
of H, which only a failing step leaves (D in the `hfunction` docstring).
The table passes its own box list, the one its check read, and the steps
are taken as the check takes them, on the rows of each axis in turn.
"""

from __future__ import annotations

from itertools import product
from typing import Sequence

from .hfunction import _joined, _rows, _unlink_H


def law_messages(h: list, radii: Sequence[int]) -> list:
    """The violations of the laws on a flat h list over prod [-r_i, r_i], in
    box order, on H = h + H_O: at each point the negative value first, else
    the failing steps e_1..e_k.

    Each value carries its point through the turns of `_joined`, so the
    step from a row to the next, H(s - e_i) - H(s), is taken once and kept
    under s, the point of the later row."""
    grid = [(s, x + _unlink_H(s)) for s, x in zip(product(*(range(-r, r + 1) for r in radii)), h)]
    steps = {}  # s -> its failing steps (i, jump), in axis order
    for i, r in enumerate(radii):
        rows = _rows(_joined(rows) if i else grid, 2 * r + 1)  # no turn after the last axis
        for below, row in zip(rows, rows[1:]):
            for (_, down), (s, v) in zip(below, row):
                if down - v not in (0, 1):
                    steps.setdefault(s, []).append((i, down - v))
    problems = []
    for s, v in grid:
        if v < 0:
            problems.append(f"H{s} = {v} is negative")
        else:
            problems += [f"step law fails: H at {s} minus e_{i + 1} jumps by {jump}"
                         for i, jump in steps.get(s, ())]
    return problems
