"""The problems of an H-function that breaks its laws, as messages.

`HTable` checks unit steps and the shell law on its h list with whole-list
operations and imports this module only when no sublink's face fails them,
to render each violation of a failing table as the `StabilizationError`
problems, stated on H = h + H_O: the failing steps, and the negative values
of H, which only a failing step leaves (D in the `hfunction` docstring).
The table passes h over the cube [-M, M]^n read off its one box list
through the clamp, h(s) = h(clamp(s)), so no second list is built.
"""

from __future__ import annotations

from itertools import product
from operator import add, sub
from typing import Sequence

from .hfunction import _strides, _unlink_H


def law_messages(h: list, radii: Sequence[int]) -> list:
    """The violations of the laws on a flat h list over prod [-r_i, r_i], in
    box order, on H = h + H_O: at each point the negative value first, else
    the failing steps e_1..e_k."""
    sides = [2 * r + 1 for r in radii]
    strides = _strides(sides)
    grid = list(map(add, h, map(_unlink_H, product(*(range(-r, r + 1) for r in radii)))))
    bad = {j for j, x in enumerate(grid) if x < 0}
    for st, side in zip(strides, sides):  # each slab along each axis, as `_laws_hold` walks
        for base in range(0, len(grid), st * side):
            slab = grid[base:base + st * side]
            bad.update(base + st + j for j, d in enumerate(map(sub, slab, slab[st:]))
                       if d not in (0, 1))
    problems = []
    for j in sorted(bad):
        s = tuple((j // st) % side - r for st, side, r in zip(strides, sides, radii))
        v = grid[j]
        if v < 0:
            problems.append(f"H{s} = {v} is negative")
            continue
        for i, st in enumerate(strides):
            if s[i] > -radii[i] and (jump := grid[j - st] - v) not in (0, 1):
                problems.append(f"step law fails: H at {s} minus e_{i + 1} jumps by {jump}")
    return problems
