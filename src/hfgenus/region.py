"""Upward-closed subsets of the nonnegative lattice orthant.

A region is stored as its finite antichain of minimal generators; membership
means dominating some generator.  The genus region of a link is the set of
nonnegative lattice points where h vanishes; its complement is finite in
every bounded window, which is what a staircase plot draws.  Its generators
and the maximal points of its complement come from one whole-list pass over
the table's box list (`HTable.staircases`), which reads no point through
`HTable.h`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .hfunction import HTable
from .laurent import Record


def dominates(x: Sequence[int], y: Sequence[int]) -> bool:
    """Componentwise x >= y."""
    return all(a >= b for a, b in zip(x, y))


def minimalize(points: Iterable[Sequence[int]]) -> tuple:
    """Minimal elements of a set of equal-length points, sorted.

    In lexicographic order a point comes after every point it dominates, so
    a point is kept unless a point kept before it lies below it."""
    keep = []
    for p in sorted(set(map(tuple, points))):
        if not any(dominates(p, q) for q in keep):
            keep.append(p)
    return tuple(keep)


class UpwardClosedRegion(Record):
    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators: tuple):
        gens = tuple(map(tuple, generators))
        if any(len(g) != n for g in gens):
            raise ValueError("generator dimension mismatch")
        if any(x < 0 for g in gens for x in g):
            raise ValueError("generators must be nonnegative")
        self._init(n, minimalize(gens))

    def contains(self, x: Sequence[int]) -> bool:
        x = tuple(x)
        if len(x) != self.n:
            raise ValueError("point dimension mismatch")
        return any(dominates(x, g) for g in self.generators)

    __contains__ = contains

    def is_empty(self) -> bool:
        return not self.generators

    def min_generator_sum(self) -> int:
        if not self.generators:
            raise ValueError("empty region has no generators")
        return min(sum(g) for g in self.generators)


def region_from_h(table: HTable) -> UpwardClosedRegion:
    """Minimal generators of the set of nonnegative points with h = 0.

    They are the points w >= 0 with h(w) = 0 and h(w - e_i) > 0 wherever
    w_i > 0, read off the box list with the maximal points in one pass
    (`HTable.staircases`).  h is constant in w_i from M_i - 1 on, by
    construction (see `hfunction`), checked by the oracle tests, so every
    generator lies inside the box and below its top shell.
    """
    return UpwardClosedRegion(table.n, table.staircases()[0])


def maximal_lattice_points(table: HTable) -> tuple:
    """Nonnegative points outside the region all of whose upper neighbors are in,
    sorted: the points z >= 0 with h(z) > 0 and h(z + e_i) = 0 for every i,
    read off the box list with the generators (`HTable.staircases`).

    Every maximal point has H(z) = 1, so chi at z + 1 is (-1)^(n-1)
    (`test_maximal_points_have_H_one` checks it against the polynomial
    coefficients).  Each corner
    z + 1 - e_S of the unit cube other than z dominates some z + e_i, so it
    lies in the up-closed region and H = 0 there; the inclusion-exclusion
    sum is then (-1)^(n-1) H(z).  H(z) > 0 as z is outside the region, and
    the step law at z + e_n gives H(z) <= H(z + e_n) + 1 = 1.
    """
    return table.staircases()[1]


def region_product(r1: UpwardClosedRegion, r2: UpwardClosedRegion) -> UpwardClosedRegion:
    """Region of a disjoint union: concatenate generator coordinates pairwise."""
    return UpwardClosedRegion(
        r1.n + r2.n,
        tuple(g1 + g2 for g1 in r1.generators for g2 in r2.generators))


def projection_check(t: HTable, r: UpwardClosedRegion) -> list:
    """Every generator, with any one coordinate dropped, must lie in the region
    of the corresponding component-deleted sublink.  Returns violations.

    The sublink without component i has the h of the face s_i = M_i of the
    link's table t (see `hfunction`), so a projection lies in its region,
    {h = 0} on the orthant, exactly when h vanishes at the generator with
    g_i replaced by M; for a knot that is h(M) = 0, on the top corner block,
    as the empty link's region is all of its orthant.  One table answers
    every sublink."""
    if t.n != r.n:
        raise ValueError("region dimension does not match the link")
    return [f"generator {g} projects outside the region of the sublink "
            f"with component {i + 1} deleted"
            for i in range(t.n) for g in r.generators if t.h(g[:i] + (t.M,) + g[i + 1:])]
