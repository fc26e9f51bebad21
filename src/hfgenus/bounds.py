"""Lower bounds for the 4-genus, the unlink criterion, and d-invariants.

The central inequality: if the components bound pairwise disjoint surfaces of
genera g_i in the 4-ball, then h(v) <= sum_i f_cap(g_i, v_i) for every lattice
point v; h never increases away from 0, so the corners of its folded level
sets decide it.  Everything in this module is exact; d-invariants are Fractions.
"""

from __future__ import annotations

import warnings
from fractions import Fraction
from itertools import product
from typing import Optional, Sequence

from .errors import HfgenusError, LargenessError, ValidationError
from .hfunction import HTable
from .region import UpwardClosedRegion, dominates, region_from_h


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
    height (`HTable.corners`), and the corners decide the inequality.
    """
    g = tuple(g)
    if len(g) != table.n or any(x < 0 for x in g):
        raise ValueError("genus vector must be nonnegative with one entry per component")
    for w, k in table.corners():
        if k > sum(f_cap(gi, wi) for gi, wi in zip(g, w) if wi < table.M):
            return False
    return True


def admissible_region(table: HTable) -> UpwardClosedRegion:
    """Minimal genus vectors passing the inequality, as an upward-closed region.

    Each coordinate of a minimal generator is at most cap_i, the largest
    w_i + 2k - 1 over the corners (w, k) with w_i < M (0 if there are none):
    once g_i >= cap_i, f_cap(g_i, w_i) >= k meets every such corner alone, and
    the corners with w_i = M never read g_i, so g - e_i passes whenever g does.
    Admissibility is monotone in g, so the sum-ordered sweep of the capped
    box, skipping points above a generator found, with `genus_admissible` as
    predicate, yields exactly the minimal generators.  The result is asserted
    to sit inside the h-vanishing region.
    """
    h_region = region_from_h(table)
    corners = table.corners()
    caps = [max((w[i] + 2 * k - 1 for w, k in corners if w[i] < table.M), default=0)
            for i in range(table.n)]
    gens: list = []
    for g in sorted(product(*(range(c + 1) for c in caps)), key=lambda p: (sum(p), p)):
        if not any(dominates(g, q) for q in gens) and genus_admissible(table, g):
            gens.append(g)
    region = UpwardClosedRegion(table.n, tuple(gens))
    for g in region.generators:
        if not h_region.contains(g):
            raise HfgenusError(
                f"{table.link.name}: admissible genus vector {g} falls outside "
                f"the h-vanishing region; internal inconsistency")
    return region


def bound_min_region(table: HTable) -> int:
    """Smallest coordinate sum over generators of the h-vanishing region."""
    return region_from_h(table).min_generator_sum()


def bound_max_h(table: HTable) -> int:
    """2 * max h - n, signed (a genuine bound only after flooring at zero)."""
    table.require_valid()
    return 2 * table.h((0,) * table.n) - table.n


def bound_weighted(table: HTable, component_g4: Optional[Sequence[int]] = None) -> int:
    """max over |s_i| <= g4(L_i) of 2 h(s) - n + sum |s_i|, signed."""
    if component_g4 is None:
        component_g4 = tuple(c.g4 for c in table.link.components)
    if any(g is None for g in component_g4):
        raise ValidationError(
            f"{table.link.name}: component 4-genus unknown; the weighted bound "
            f"needs g4 for every component")
    component_g4 = tuple(component_g4)
    table.require_valid()
    best = None
    for s in product(*(range(-g, g + 1) for g in component_g4)):
        value = 2 * table.h(s) - table.n + sum(abs(x) for x in s)
        if best is None or value > best:
            best = value
    return best


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
    the oracle tests, so a sweep of the validated box decides it.

    A slice L-space link with identically zero h-function is the unlink; a
    True result means the input is consistent with that conclusion.
    """
    table.require_valid()
    return all(table.h(s) == 0 for s in table.iter_box())


# -- d-invariants ----------------------------------------------------------------


def lens_d(m: int, k: int) -> Fraction:
    """d-invariant of the lens space L(m,1) at the label k, |k| <= m/2.

    Closed form 1/4 - (m - 2|k|)^2 / (4m); it agrees with the degree-shift
    evaluation of large_surgery_d on the unknot (see the test suite).
    """
    if m < 1:
        raise ValueError("lens space order must be positive")
    if 2 * abs(k) > m:
        raise ValueError(f"label k={k} outside |k| <= {m}/2")
    return Fraction(1, 4) - Fraction((m - 2 * abs(k)) ** 2, 4 * m)


def circle_bundle_d(m: int, g: int, k: int) -> Fraction:
    """d-invariant of the Euler-number -m circle bundle over a genus-g surface.

    Valid for large m; a heuristic warning fires when m <= 2g + 2.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if m <= 2 * g + 2 and g > 0:
        warnings.warn(f"circle_bundle_d: m={m} may not be large enough for g={g}",
                      stacklevel=2)
    base = lens_d(m, k)
    if abs(k) <= g:
        return base - g + 2 * ((g - abs(k) + 1) // 2)
    return base - g


def large_surgery_d(table: HTable, q: Sequence[int], v: Sequence[int],
                    force: bool = False) -> Fraction:
    """d-invariant of the surgery with framing vector q at the structure label v.

    Computed as sum_i (2 v_i - q_i)^2 / (4 q_i) - n/4 - 2 H(v); the quadratic
    part is the degree shift of the reversed 2-handle cobordism with the
    diagonal linking matrix.  Labels live in the centered fundamental domain
    |v_i| <= q_i / 2.
    """
    q = tuple(q)
    v = tuple(v)
    n = table.n
    if len(q) != n or len(v) != n:
        raise ValueError("framing and label vectors must match the component count")
    if any(x < 1 for x in q):
        raise ValueError("surgery coefficients must be positive")
    if any(2 * abs(x) > qi for x, qi in zip(v, q)):
        raise ValueError(f"label {v} outside the fundamental domain |v_i| <= q_i/2")
    threshold = 2 * (2 * table.M)
    small = [qi for qi in q if qi <= threshold]
    if small and not force:
        raise LargenessError(
            f"surgery coefficients {small} do not exceed twice the box diameter "
            f"{2 * table.M}; pass force=True if the surgery is known to be large")
    shift = sum(Fraction((2 * vi - qi) ** 2, 4 * qi) for vi, qi in zip(v, q))
    return shift - Fraction(n, 4) - 2 * table.H(v)
