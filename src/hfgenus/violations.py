"""The verdict on a table whose h list or tables break the laws.

`HTable` imports this module only when its class lists fail a step or one
of its tables breaks Torres's condition.  It then builds its box list, h
over prod [-M_i, M_i] with the signs as chosen, and passes that list's
failing unit steps (`_failing_steps`) and its Torres breakers, the tables
of three or more components with an axis over which their sums are not all
0.  `refuse` maps those failures to points once and raises the error
they make, by the two equivalences of `HTable._resolve_signs`: the sublink
that no sign makes valid, as `SignResolutionError`, or else every problem on
the table's box, stated on H = h + H_O, as `StabilizationError`: the failing
steps, and the negative values of H, which only a failing step leaves (D in
the `hfunction` docstring).
"""

from __future__ import annotations

from itertools import compress, product
from operator import ne

from .errors import SignResolutionError, StabilizationError
from .hfunction import _joined, _rows, _unlink_H


def refuse(t, grid: list, steps: list, breakers: list) -> None:
    """Raise the error of the table t, whose h list over its box
    prod [-M_i, M_i] is `grid`, with these failing unit steps (i, a, p, d),
    as `_failing_steps` lists them, and whose tables breaking Torres's
    condition are `breakers`.

    The box's points are turned as the check turned h, so each step is
    mapped once to s, the point of its later row a + 1, where its H jump,
    H(s - e_i) - H(s), is d from the middle row on and 1 - d below it, where
    H_O grows by 1, and to its minimal face {j : s_j != M_j}, which holds
    i: h is constant in s_i from M_i - 1 on, so no step fails at
    s_i = M_i.  The culprit is the first multi-component sublink with a
    table, in `all_subsets` order, holding a breaker or such a face.  With
    none, the problems are listed in box order: at each point its negative
    value of H, else its failing steps e_1..e_k."""
    box = t._box
    points = list(product(*(range(-m, m + 1) for m in box)))
    rows = []  # rows[i]: the rows of axis i of the points, turned as the check turned h
    for m in box:
        rows.append(_rows(_joined(rows[-1]) if rows else points, 2 * m + 1))
    found, faces = {}, set(breakers)  # s -> its failing steps, in axis order
    for i, a, p, d in steps:
        s = rows[i][a + 1][p]
        found.setdefault(s, []).append(f"step law fails: H at {s} minus e_{i + 1} jumps by "
                                       f"{d if a >= box[i] else 1 - d}")
        faces.add(tuple(compress(range(len(box)), map(ne, s, box))))
    for B in t._tables:
        if len(B) > 1 and any(map(set(B).issuperset, faces)):
            raise SignResolutionError(
                f"{t.link.name}: neither sign of the polynomial for subset "
                f"{tuple(i + 1 for i in B)} yields a valid H-function; "
                f"not an L-space link with this data")
    problems = []
    for s, x in zip(points, grid):
        v = x + _unlink_H(s)
        problems += [f"H{s} = {v} is negative"] if v < 0 else found.get(s, [])
    raise StabilizationError(
        f"{t.link.name}: H-function fails validation on box "
        + " x ".join(f"[-{m}, {m}]" for m in box) + ": " + "; ".join(problems[:5]),
        problems, t.flipped_signs())
