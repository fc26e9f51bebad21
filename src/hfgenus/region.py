"""Upward-closed subsets of the nonnegative lattice orthant.

A region is stored as its finite antichain of minimal generators; membership
means dominating some generator.  The genus region of a link is the set of
nonnegative lattice points where h vanishes; its complement is finite in every
bounded window, which is what a staircase plot draws.
"""

from __future__ import annotations

from itertools import product
from typing import Iterable, Sequence

from .errors import HfgenusError
from .hfunction import HTable
from .linkcat import LinkDescriptor, Record, sublink


def dominates(x: Sequence[int], y: Sequence[int]) -> bool:
    """Componentwise x >= y."""
    return all(a >= b for a, b in zip(x, y))


def minimalize(points: Iterable[Sequence[int]]) -> tuple:
    """Minimal elements of the given set, sorted for deterministic output."""
    pts = sorted(set(tuple(p) for p in points))
    keep = []
    for p in pts:
        if any(dominates(p, q) for q in keep):
            continue
        keep = [q for q in keep if not dominates(q, p)]
        keep.append(p)
    return tuple(sorted(keep))


class UpwardClosedRegion(Record):
    __slots__ = ("n", "generators")

    def __init__(self, n: int, generators: tuple):
        gens = minimalize(generators)
        if any(len(g) != n for g in gens):
            raise ValueError("generator dimension mismatch")
        if any(x < 0 for g in gens for x in g):
            raise ValueError("generators must be nonnegative")
        self._init(n, gens)

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

    That set is up-closed on [0, M]^n, so they are the w with h(w) = 0 and
    h(w - e_i) > 0 for every i with w_i > 0.  h is constant in w_i from
    M - 1 on, by construction (see `hfunction`), checked by the oracle
    tests, so every generator lies inside the box and below its top shell.
    """
    table.require_valid()
    M = table.M
    gens = [w for w in product(range(M + 1), repeat=table.n) if table.h(w) == 0
            and all(table.h(w[:i] + (x - 1,) + w[i + 1:]) > 0
                    for i, x in enumerate(w) if x > 0)]
    return UpwardClosedRegion(table.n, tuple(gens))


def maximal_lattice_points(table: HTable) -> tuple:
    """Nonnegative points outside the region all of whose upper neighbors are in.

    Each maximal point z is certified through the inclusion-exclusion identity:
    the Euler characteristic at z+1 must be (-1)^(n-1).
    """
    table.require_valid()
    M = table.M
    n = table.n
    out = []
    for z in product(range(M), repeat=n):
        if table.h(z) == 0:
            continue
        if all(table.h(z[:i] + (z[i] + 1,) + z[i + 1:]) == 0 for i in range(n)):
            certificate = table.chi_from_H(tuple(x + 1 for x in z))
            if certificate != (-1) ** (n - 1):
                raise HfgenusError(
                    f"{table.link.name}: internal consistency failure at maximal "
                    f"point {z}: chi at z+1 is {certificate}, expected {(-1) ** (n - 1)}")
            out.append(z)
    return tuple(sorted(out))


def region_product(r1: UpwardClosedRegion, r2: UpwardClosedRegion) -> UpwardClosedRegion:
    """Region of a disjoint union: concatenate generator coordinates pairwise."""
    if r1.is_empty() or r2.is_empty():
        return UpwardClosedRegion(r1.n + r2.n, ())
    return UpwardClosedRegion(
        r1.n + r2.n,
        tuple(g1 + g2 for g1 in r1.generators for g2 in r2.generators))


def projection_check(d: LinkDescriptor, r: UpwardClosedRegion) -> list:
    """Every generator, with any one coordinate dropped, must lie in the region
    of the corresponding component-deleted sublink.  Returns violations."""
    if d.n != r.n:
        raise ValueError("region dimension does not match the link")
    problems = []
    if d.n == 1:
        return problems  # deleting the only component leaves the empty link
    for i in range(d.n):
        rest = tuple(j for j in range(d.n) if j != i)
        sub_region = region_from_h(HTable(sublink(d, rest)))
        for g in r.generators:
            proj = tuple(g[j] for j in rest)
            if not sub_region.contains(proj):
                problems.append(
                    f"generator {g} projects outside the region of the sublink "
                    f"with component {i + 1} deleted")
    return problems
