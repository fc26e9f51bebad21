"""Lower bounds for the 4-genus and the unlink criterion.

The central inequality: if the components bound pairwise disjoint surfaces of
genera g_i in the 4-ball, then h(v) <= sum_i f_cap(g_i, v_i) for every lattice
point v; h never increases away from 0, so the corners of its folded level
sets decide it, as `genus_admissible` checks.  Over each prefix (g_1 ...
g_{n-1}) the corners give the least admissible g_n in closed form.  The region
of admissible g is the staircase of an up-set (see `region`):
`admissible_region` walks the prefixes depth first, only through the values
where some f-term changes, and carries one remainder per corner, so moving a
coordinate updates its own terms and nothing else.  Everything in this module
is exact.  The d-invariants are in `surgery`, so the `d-invariants` command
never loads this module.
"""

from __future__ import annotations

from itertools import compress, product, repeat
from operator import add, gt, sub
from typing import Sequence

from .errors import ValidationError


def f_cap(g: int, v: int) -> int:
    """ceil((g - |v|)/2) when |v| <= g, else 0."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if abs(v) > g:
        return 0
    return (g - abs(v) + 1) // 2


def genus_admissible(table: HTable, g: Sequence[int]) -> bool:
    """True iff h(v) <= sum_i f_cap(g_i, v_i) for every v.

    Outside the box [-M, M]^n h(v) equals h at the clamped point, while
    f_cap(g_i, v_i) is 0 once |v_i| > g_i, so a boundary-shell coordinate
    (|v_i| = M) contributes an f-term of 0.  That side depends on |v| only and
    never grows with it, so a violation persists up to a corner of the same
    height (`HTable.corners`): g passes iff every corner (w, k) has
    sum_{w_i < M} f_cap(g_i, w_i) >= k.
    """
    if len(g) != table.n or any(x < 0 for x in g):
        raise ValueError("genus vector must be nonnegative with one entry per component")
    M = table.M
    return all(sum(f_cap(gi, wi) for gi, wi in zip(g, w) if wi < M) >= k
               for w, k in table.corners())


def admissible_region(table: HTable) -> UpwardClosedRegion:
    """Minimal genus vectors passing the inequality, as an upward-closed region.

    Each coordinate of a minimal generator is at most cap_i, the largest
    w_i + 2k - 1 over the corners (w, k) with w_i < M (0 if there are none):
    once g_i >= cap_i, f_cap(g_i, w_i) >= k meets every such corner alone, and
    the corners with w_i = M never read g_i, so g - e_i passes whenever g does.
    Admissibility is monotone in g, so every minimal generator is (p, m) with
    p a prefix in the capped box and m the least admissible last coordinate
    over p.  Each corner leaves r = k - sum_{i<n, w_i<M} f_cap(p_i, w_i) for
    g_n: it holds for every g_n when r <= 0, for none when r > 0 and w_n = M,
    and otherwise iff f_cap(g_n, w_n) >= r, that is g_n >= w_n + 2r - 1.  So
    m is the largest w_n + 2r - 1 over the corners with r > 0 (0 if there are
    none), and there is no m if one of them has w_n = M.  f_cap(g_i, w_i)
    changes with g_i only at g_i = w_i + 2j - 1, so a prefix coordinate p_i at
    no such value (nor 0) gives the m of the candidate value below it, and
    (p, m) is not minimal.  The walk therefore visits only those values, depth
    first, carrying one remainder k - sum f_cap(p_i, w_i) per corner over the
    coordinates fixed so far, and the finite candidates (p, m) are
    minimalized.

    Every admissible g lies in the h-vanishing region: at v = g every f-term
    is f_cap(g_i, g_i) = 0, so h(g) <= 0 <= H(g) = h(g).  Only a wrong walk
    could break this; the oracle tests compare it with the per-point
    definition.
    """
    from .region import UpwardClosedRegion
    M, n = table.M, table.n
    # corners with w_n < M first: a positive remainder on one with w_n = M
    # leaves no admissible g_n
    corners = sorted(table.corners(), key=lambda c: c[0][-1] == M)
    inner = sum(w[-1] < M for w, _ in corners)
    last = [w[-1] - 1 for w, _ in corners[:inner]]
    levels = []  # per prefix axis: each candidate value and the corners' f-terms there
    for i in range(n - 1):
        axis = [w[i] for w, _ in corners]
        inside = {x for x in axis if x < M}
        cap = max((x + 2 * k - 1 for x, (_, k) in zip(axis, corners) if x < M), default=0)
        levels.append([])
        for g in sorted({0}.union(*(range(x + 1, cap + 1, 2) for x in inside))):
            term = {x: f_cap(g, x) for x in inside}
            term[M] = 0
            levels[-1].append((g, list(map(term.__getitem__, axis))))

    def walk(prefix: tuple, rest: list):
        if len(prefix) < n - 1:
            for g, terms in levels[len(prefix)]:
                yield from walk(prefix + (g,), list(map(sub, rest, terms)))
        elif max(rest[inner:], default=0) <= 0:
            least = compress(map(add, last, map(add, rest, rest)), map(gt, rest, repeat(0)))
            yield prefix + (max(least, default=0),)

    return UpwardClosedRegion(n, tuple(walk((), [k for _, k in corners])))


def bound_min_region(table: HTable) -> int:
    """Smallest coordinate sum over generators of the h-vanishing region.

    The generators are the minimal points that `HTable.staircases` reads off
    the box, already an antichain, so no `UpwardClosedRegion` is built.  There
    is at least one: h vanishes at the box's top corner (see `hfunction`), and
    some minimal point lies below it."""
    return min(map(sum, table.staircases()[0]))


def bound_max_h(table: HTable) -> int:
    """2 * max h - n, signed (a genuine bound only after flooring at zero);
    max h = h(0), as h never increases away from 0."""
    return 2 * table.h((0,) * table.n) - table.n


def bound_weighted(table: HTable) -> int:
    """max over |s_i| <= g4(L_i) of 2 h(s) - n + sum |s_i|, signed, g4(L_i)
    read from the link's components; a ValidationError if one is unknown.

    h(s) = h(clamp(s)), so for g_i > M a point with M <= |s_i| < g_i loses to
    the point with s_i = +-g_i of the same sign: h is the same and sum |s_i|
    larger.  Each axis then takes |s_i| < M and +-g_i, at most 2M + 1 values,
    whatever the genus."""
    component_g4 = tuple(c.g4 for c in table.link.components)
    if any(g is None for g in component_g4):
        raise ValidationError(
            f"{table.link.name}: component 4-genus unknown; the weighted bound "
            f"needs g4 for every component")
    M = table.M
    axes = [range(-g, g + 1) if g <= M else (-g, *range(-M + 1, M), g)
            for g in component_g4]
    return max(2 * table.h(s) - table.n + sum(map(abs, s)) for s in product(*axes))


BOUND_NAMES = ("min_generator_sum", "max_h_excess", "component_weighted")


def best_lower_bound(table: HTable) -> dict:
    """Best available 4-genus lower bound, floored at zero, with provenance."""
    values = {
        "min_generator_sum": bound_min_region(table),
        "max_h_excess": bound_max_h(table),
    }
    try:
        values["component_weighted"] = bound_weighted(table)
    except ValidationError:
        values["component_weighted"] = None
    candidates = {k: v for k, v in values.items() if v is not None}
    best = max(0, max(candidates.values()))
    via = next((k for k in BOUND_NAMES if candidates.get(k) == best),
               "floored_at_zero")
    return {"bounds": values, "best": best, "via": via}


def unlink_test(table: HTable) -> bool:
    """True iff h vanishes identically.

    h(v) = h(clamp(v)) holds by construction (see `hfunction`), checked by
    the oracle tests, so the box [-M, M]^n decides it.  The step law makes h
    nonincreasing as any coordinate moves away from 0, so max h = h(0), and
    moving every coordinate of a box point away from 0 out to +-M never
    raises h, so the box minimum lies at a corner of {-M, M}^n.  h vanishes
    iff h(0) and h at the 2^n corners are 0.

    Reading h(0) alone would need h = 0 at every corner.  That follows from
    stabilization together with the symmetry h(-s) = h(s).  The tests check
    that symmetry on every oracle link, but it is not derived from the
    validated laws (it rests on the Torres condition of the Alexander data,
    which validation does not check), so the corners are still read.

    A slice L-space link with identically zero h-function is the unlink; a
    True result means the input is consistent with that conclusion.
    """
    M = table.M
    return table.h((0,) * table.n) == 0 and all(
        table.h(v) == 0 for v in product((-M, M), repeat=table.n))
