"""The problems of an H-function that breaks its laws, as messages.

`HTable` checks unit steps and the shell law with whole-list operations and
imports this module only when no sublink's face fails them, to render each
violation of a failing table as the `StabilizationError` problems: the
failing steps, and the negative values of H, which only a failing step
leaves (D in the `hfunction` docstring).
"""

from __future__ import annotations

from operator import sub
from typing import Sequence

from .hfunction import _strides


def law_messages(grid: list, radii: Sequence[int]) -> list:
    """The violations of the laws on a flat grid over prod [-r_i, r_i], in box
    order: at each point the negative value first, else the failing steps
    e_1..e_k."""
    sides = [2 * r + 1 for r in radii]
    strides = _strides(sides)
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
