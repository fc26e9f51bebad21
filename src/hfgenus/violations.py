"""The problems of an H-function that breaks its laws, as messages.

`HTable` checks H >= 0 and unit steps with whole-list operations and imports
this module only when they fail, to render each violation of a failing
table as the `StabilizationError` problems.
"""

from __future__ import annotations

from typing import Sequence

from .hfunction import _steps, _strides


def law_messages(grid: list, radii: Sequence[int]) -> list:
    """The violations of the laws on a flat grid over prod [-r_i, r_i], in box
    order: at each point the negative value first, else the failing steps
    e_1..e_k."""
    sides = [2 * r + 1 for r in radii]
    strides = _strides(sides)
    bad = {j for j, x in enumerate(grid) if x < 0}
    for start, steps in _steps(grid, sides):
        bad.update(start + j for j, d in enumerate(steps) if d not in (0, 1))
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
