"""Genus bounds, the unlink criterion, and d-invariants."""

from fractions import Fraction
from functools import reduce
from itertools import product
from math import inf

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hfgenus import bounds
from hfgenus.bounds import (admissible_region, best_lower_bound, bound_max_h,
                            bound_min_region, bound_weighted, f_cap,
                            genus_admissible, unlink_test)
from hfgenus.cable import CableSpec, cable_alexander
from hfgenus.errors import LargenessError, StabilizationError, ValidationError
from hfgenus.hfunction import HTable
from hfgenus.linkcat import Component, LinkDescriptor, catalog, disjoint_union
from hfgenus.region import UpwardClosedRegion, minimalize, region_from_h, region_product
from hfgenus.surgery import circle_bundle_d, large_surgery_d, lens_d
from test_hfunction import INVALID_TABLES, ORACLE_LINKS, UNION_PARTS


def test_f_cap_values():
    assert f_cap(0, 0) == 0
    assert f_cap(2, 1) == 1
    assert f_cap(2, 0) == 1
    assert f_cap(2, 3) == 0
    assert f_cap(5, -2) == 2
    with pytest.raises(ValueError):
        f_cap(-1, 0)


def test_f_cap_monotone_in_genus():
    for v in range(-6, 7):
        for g in range(0, 8):
            assert f_cap(g + 1, v) >= f_cap(g, v)


def test_genus_admissible_examples():
    wh = HTable(catalog("whitehead"))
    assert genus_admissible(wh, (1, 0))
    assert genus_admissible(wh, (0, 1))
    assert not genus_admissible(wh, (0, 0))
    bor = HTable(catalog("borromean"))
    assert genus_admissible(bor, (1, 0, 0))
    assert not genus_admissible(bor, (0, 0, 0))


def test_genus_admissible_monotone():
    t = HTable(catalog("mirror_L7a3"))
    for g in [(1, 1), (0, 2)]:
        assert genus_admissible(t, g)
        assert genus_admissible(t, (g[0] + 1, g[1]))
        assert genus_admissible(t, (g[0], g[1] + 2))


def test_admissible_region_examples():
    assert admissible_region(HTable(catalog("unknot"))).generators == ((0,),)
    assert admissible_region(HTable(catalog("whitehead"))).generators == \
        ((0, 1), (1, 0))
    assert admissible_region(HTable(catalog("mirror_L7a3"))).generators == \
        ((0, 2), (1, 1))


def test_admissible_region_contained_in_h_region():
    links = [catalog(key) for key in ["whitehead", "borromean", "mirror_L7a3", "trefoil_rh"]]
    links += [make() for make in ADMISSIBLE_ORACLE_LINKS.values()]
    for d in links:
        t = HTable(d)
        adm = admissible_region(t)
        h_region = region_from_h(t)
        for g in adm.generators:
            assert h_region.contains(g)


def test_bound_min_region():
    for k in range(1, 6):
        assert bound_min_region(HTable(catalog("two_bridge", k))) == k
    assert bound_min_region(HTable(catalog("mirror_L7a3"))) == 2
    assert bound_min_region(HTable(catalog("unlink", 3))) == 0


def test_bound_max_h():
    assert bound_max_h(HTable(catalog("whitehead"))) == 0
    assert bound_max_h(HTable(catalog("borromean"))) == -1
    assert bound_max_h(HTable(catalog("unknot"))) == -1


def test_bound_weighted():
    assert bound_weighted(HTable(catalog("whitehead"))) == 0
    assert bound_weighted(HTable(catalog("mirror_L7a3"))) == 1
    assert bound_weighted(HTable(catalog("unlink", 2))) == -2


def test_bound_weighted_needs_g4():
    wh = catalog("whitehead")
    anon = LinkDescriptor("wh-no-g4", [Component("a"), Component("b")],
                          alexander=wh.alexander, lspace_asserted=True)
    with pytest.raises(ValidationError, match="g4"):
        bound_weighted(HTable(anon))


def with_component_g4(d, genera):
    return LinkDescriptor(d.name, [Component(c.label, g) for c, g in zip(d.components, genera)],
                          alexander=d.alexander, lspace_asserted=d.lspace_asserted)


def reference_bound_weighted(t):
    """2 h(s) - n + sum |s_i| at every s with |s_i| <= g4(L_i), maximized."""
    genera = (c.g4 for c in t.link.components)
    return max(2 * t.h(s) - t.n + sum(map(abs, s))
               for s in product(*(range(-g, g + 1) for g in genera)))


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_bound_weighted_matches_the_full_sweep(name):
    d = ORACLE_LINKS[name]()
    M = HTable(d).M
    genera = [tuple(c.g4 for c in d.components)]
    genera += [(g,) * d.n for g in (M - 1, M, M + 1, M + 3)]
    genera.append(tuple(M + 3 if i % 2 else i for i in range(d.n)))
    for g in genera:
        t = HTable(with_component_g4(d, g))
        assert bound_weighted(t) == reference_bound_weighted(t), g


def test_bound_weighted_reads_at_most_the_box():
    # the full sweep would read (2 * 10**6 + 1)**2 points; h = 0 at (g, g)
    t = HTable(with_component_g4(catalog("whitehead"), (10 ** 6, 10 ** 6)))
    reads, h = [], t.h
    t.h = lambda s: reads.append(s) or h(s)
    assert bound_weighted(t) == 2 * 10 ** 6 - 2
    assert len(reads) <= (2 * t.M + 1) ** t.n


def test_best_lower_bound_provenance():
    report = best_lower_bound(HTable(catalog("two_bridge", 3)))
    assert report["best"] == 3 and report["via"] == "min_generator_sum"
    report = best_lower_bound(HTable(catalog("borromean")))
    assert report["best"] == 1
    report = best_lower_bound(HTable(catalog("whitehead_cable", 2, 7)))
    assert report["best"] == (2 - 1) * (7 - 1) // 2 + 1 == 4
    report = best_lower_bound(HTable(catalog("unlink", 3)))
    assert report["best"] == 0


def test_unlink_test():
    assert unlink_test(HTable(catalog("unknot")))
    assert unlink_test(HTable(catalog("unlink", 2)))
    assert unlink_test(HTable(catalog("unlink", 3)))
    assert not unlink_test(HTable(catalog("whitehead")))
    assert not unlink_test(HTable(catalog("trefoil_rh")))
    assert not unlink_test(HTable(disjoint_union(catalog("trefoil_rh"),
                                                    catalog("unknot"))))


def reference_unlink_test(t):
    """h = 0 at every point of the box."""
    return all(t.h(s) == 0 for s in t.iter_box())


UNLINK_ORACLE_LINKS = {
    **ORACLE_LINKS,
    "unlink:3": lambda: catalog("unlink", 3),
    "unknot+unknot": lambda: disjoint_union(catalog("unknot"), catalog("unknot")),
}


@pytest.mark.parametrize("name", sorted(UNLINK_ORACLE_LINKS))
def test_unlink_test_matches_the_box_sweep(name):
    # and reads h(0) and the 2^n corners of the box only
    t = HTable(UNLINK_ORACLE_LINKS[name]())
    want = reference_unlink_test(t)
    reads, h = [], t.h
    t.h = lambda s: reads.append(s) or h(s)
    assert unlink_test(t) == want
    assert len(reads) <= 2 ** t.n + 1


def test_unlink_iff_trivial_region():
    for key in ["unknot", "whitehead", "borromean", "trefoil_rh"]:
        t = HTable(catalog(key))
        trivial = region_from_h(t).generators == ((0,) * t.n,)
        assert unlink_test(t) == trivial


# -- d-invariants -----------------------------------------------------------------


def test_lens_d_small_values():
    assert lens_d(1, 0) == 0
    assert lens_d(2, 0) == Fraction(-1, 4)
    assert lens_d(2, 1) == Fraction(1, 4)
    assert lens_d(4, 2) == Fraction(1, 4)
    with pytest.raises(ValueError):
        lens_d(4, 3)


def test_lens_d_symmetry():
    for m in range(1, 13):
        for k in range(0, m // 2 + 1):
            assert lens_d(m, k) == lens_d(m, -k)


def test_lens_d_matches_surgery_oracle():
    # independent route: the degree-shift evaluation on the unknot, with the
    # orientation flip relating the two surgery signs
    unk = HTable(catalog("unknot"))
    for m in range(1, 13):
        for k in range(-(m // 2), m // 2 + 1):
            assert lens_d(m, k) == -large_surgery_d(unk, (m,), (k,), force=True)


def test_circle_bundle_d():
    for m in range(1, 13):
        for k in range(-(m // 2), m // 2 + 1):
            assert circle_bundle_d(m, 0, k) == lens_d(m, k)
    assert circle_bundle_d(10, 1, 0) == lens_d(10, 0) + 1
    assert circle_bundle_d(10, 2, 1) == lens_d(10, 1)
    assert circle_bundle_d(10, 2, 3) == lens_d(10, 3) - 2


def test_circle_bundle_warns_when_small():
    with pytest.warns(UserWarning):
        circle_bundle_d(3, 2, 0)


def test_large_surgery_d_values():
    unk = HTable(catalog("unknot"))
    assert large_surgery_d(unk, (3,), (0,), force=True) == Fraction(1, 2)
    wh = HTable(catalog("whitehead"))
    assert large_surgery_d(wh, (50, 50), (0, 0)) == \
        2 * Fraction(50 ** 2, 4 * 50) - Fraction(2, 4) - 2 * 1


def test_large_surgery_d_additive_on_unlinks():
    for n in (2, 3):
        t = HTable(catalog("unlink", n))
        for m in (20, 33):
            got = large_surgery_d(t, (m,) * n, (0,) * n, force=True)
            assert got == n * (Fraction(m, 4) - Fraction(1, 4))


def test_large_surgery_d_guards():
    unk = HTable(catalog("unknot"))
    with pytest.raises(LargenessError):
        large_surgery_d(unk, (3,), (0,))
    with pytest.raises(ValueError, match="fundamental domain"):
        large_surgery_d(unk, (100,), (51,), force=True)
    with pytest.raises(ValueError):
        large_surgery_d(unk, (0,), (0,), force=True)
    # data failing validation are refused before any framing is read
    with pytest.raises(StabilizationError):
        HTable(INVALID_TABLES["-t + 3 - 1/t, forced"](), force=True)


def test_bound_dominates_component_thresholds():
    # a link's region bound is at least each component's own threshold
    for key in ["whitehead", "mirror_L7a3", "borromean"]:
        d = catalog(key)
        whole = bound_min_region(HTable(d))
        for i in range(d.n):
            from hfgenus.linkcat import sublink
            comp = bound_min_region(HTable(sublink(d, (i,))))
            assert whole >= comp


def test_large_surgery_threshold_ignores_box_growth():
    # the box is fixed at construction: no call moves M or the threshold
    t = HTable(catalog("whitehead"))
    assert t.M == 3
    assert large_surgery_d(t, (20, 20), (0, 0)) == Fraction(15, 2)
    admissible_region(t)
    assert t.M == 3
    assert large_surgery_d(t, (20, 20), (0, 0)) == Fraction(15, 2)
    with pytest.raises(LargenessError):
        large_surgery_d(t, (12, 20), (0, 0))


# -- brute-force oracle for the admissible region -----------------------------------


def oracle_admissible_region(t):
    """The grown-box algorithm: every positive point within M + cap through
    t.h, and a sum-ordered sweep of the capped genus box with domination
    pruning.  Returns (generators, admissibility predicate, cap)."""
    cap = 2 * max((t.h(v) for v in t.iter_box()), default=0) + t.M
    R = t.M + cap
    # f_cap reads |v_i| only: keep the largest h per vector of absolute values
    worst: dict = {}
    for v in product(range(-R, R + 1), repeat=t.n):
        if (hv := t.h(v)) > 0:
            key = tuple(map(abs, v))
            worst[key] = max(worst.get(key, 0), hv)

    def admissible(g):
        return all(hv <= sum(f_cap(gi, vi) for gi, vi in zip(g, v))
                   for v, hv in worst.items())

    gens = []
    for g in sorted(product(range(cap + 1), repeat=t.n), key=lambda g: (sum(g), g)):
        if not any(all(a >= b for a, b in zip(g, q)) for q in gens) and admissible(g):
            gens.append(g)
    return tuple(sorted(gens)), admissible, cap


ADMISSIBLE_ORACLE_LINKS = {
    **ORACLE_LINKS,
    "whitehead_cable:2,7": lambda: catalog("whitehead_cable", 2, 7),
    "two_bridge:2_cable:2,9,3,13": lambda: cable_alexander(
        catalog("two_bridge", 2), CableSpec(((2, 9), (3, 13)))),
    "trefoil_rh_cable:2,7": lambda: cable_alexander(
        catalog("trefoil_rh"), CableSpec(((2, 7),))),
    "whitehead+unknot": lambda: disjoint_union(catalog("whitehead"), catalog("unknot")),
    "trefoil_rh+trefoil_rh": lambda: disjoint_union(catalog("trefoil_rh"),
                                                    catalog("trefoil_rh")),
}


@pytest.mark.parametrize("name", sorted(ADMISSIBLE_ORACLE_LINKS))
def test_admissible_region_matches_oracle(name):
    d = ADMISSIBLE_ORACLE_LINKS[name]()
    want, admissible, cap = oracle_admissible_region(HTable(d))
    t = HTable(d)
    assert admissible_region(t).generators == want
    # genus_admissible agrees on a grid of genus vectors and around the staircase
    reach = max(2, int((400 if d.n < 3 else 60) ** (1 / d.n)))
    checks = set(product(range(min(cap, reach) + 1), repeat=d.n))
    for g in want:
        for i in range(d.n):
            for step in (-1, 1):
                checks.add(g[:i] + (max(0, g[i] + step),) + g[i + 1:])
    for g in sorted(checks):
        assert genus_admissible(t, g) == admissible(g), f"{name} at {g}"


def maximal_points(points):
    return minimalize(tuple(-x for x in w) for w in points)


@pytest.mark.parametrize("name", sorted(ADMISSIBLE_ORACLE_LINKS))
def test_corners_give_the_maximal_points_of_every_level_set(name):
    t = HTable(ADMISSIBLE_ORACLE_LINKS[name]())
    corners = t.corners()
    assert corners == sorted(corners) and all(k > 0 for _, k in corners)
    folded = [(tuple(map(abs, v)), t.h(v)) for v in t.iter_box()]
    for j in range(1, max(hv for _, hv in folded) + 1):
        assert maximal_points(w for w, k in corners if k >= j) == \
            maximal_points(w for w, hv in folded if hv >= j), f"{name}, level {j}"


def test_corner_counts():
    # the box holds 2439, 18139 and 761 points with h > 0
    cable = cable_alexander(catalog("borromean"), CableSpec(((2, 7),) * 3))
    assert len(HTable(cable).corners()) == 27
    assert len(HTable(catalog("whitehead_cable", 7, 22)).corners()) == 25
    assert len(HTable(catalog("two_bridge", 20)).corners()) == 110


# -- the fold and the walk against their per-point definitions ---------------------


def reference_corners(t):
    """`HTable.corners` point by point: top[w], the largest h(v) over |v| = w,
    from t.h over the cube [-M, M]^n, and the w with top[w] > 0 and
    top[w + e_i] < top[w] for every i with w_i < M."""
    top: dict = {}
    for v in t.iter_box():
        w = tuple(map(abs, v))
        top[w] = max(top.get(w, 0), t.h(v))
    return sorted((w, k) for w, k in top.items()
                  if k > 0 and all(top[w[:i] + (x + 1,) + w[i + 1:]] < k
                                   for i, x in enumerate(w) if x < t.M))


def reference_least_last(corners, M, p):
    """The least g_n with (p, g_n) admissible, or inf: each corner's f-terms
    summed afresh over the prefix p."""
    rest = [(w[-1], k - sum(f_cap(gi, wi) for gi, wi in zip(p, w) if wi < M))
            for w, k in corners]
    if any(r > 0 and wn == M for wn, r in rest):
        return inf
    return max((wn + 2 * r - 1 for wn, r in rest if r > 0), default=0)


def reference_admissible_region(n, M, corners):
    """The prefix sweep: the least last coordinate over every prefix of the
    capped box, minimalized."""
    caps = [max((w[i] + 2 * k - 1 for w, k in corners if w[i] < M), default=0)
            for i in range(n)]
    return UpwardClosedRegion(n, tuple(
        p + (m,) for p in product(*(range(c + 1) for c in caps[:-1]))
        if (m := reference_least_last(corners, M, p)) < inf))


# ADMISSIBLE_ORACLE_LINKS holds four of the five inputs of the
# admissible_region benchmark workload; the fifth, and two larger ones.
FOLD_AND_WALK_LINKS = {
    **ADMISSIBLE_ORACLE_LINKS,
    "two_bridge:12": lambda: catalog("two_bridge", 12),
    "two_bridge:40": lambda: catalog("two_bridge", 40),
    "borromean_cable:3,16,3,16,3,16": lambda: cable_alexander(
        catalog("borromean"), CableSpec(((3, 16),) * 3)),
}


@pytest.mark.parametrize("name", sorted(FOLD_AND_WALK_LINKS))
def test_fold_and_walk_match_the_per_point_oracles(name):
    t = HTable(FOLD_AND_WALK_LINKS[name]())
    corners = reference_corners(t)
    assert t.corners() == corners
    assert admissible_region(t) == reference_admissible_region(t.n, t.M, corners)


class CornerList:
    """What `admissible_region` and `genus_admissible` read of a table: n, M
    and the corners."""

    def __init__(self, n, M, corners):
        self.n, self.M, self._corners = n, M, corners

    def corners(self):
        return self._corners


@st.composite
def corner_lists(draw):
    n = draw(st.integers(1, 3))
    M = draw(st.integers(2, 5))
    corners = draw(st.lists(st.tuples(st.tuples(*[st.integers(0, M)] * n),
                                      st.integers(1, 4)), max_size=4))
    return n, M, corners


@settings(max_examples=300, deadline=None)
@given(corner_lists())
# the corners of the tables above never need a prefix value w_i + 2j - 1
# with j > 1; this one needs 3 = 0 + 2 * 2 - 1 for the generator (3, 1)
@example((2, 5, [((0, 0), 3)]))
def test_walk_matches_the_sweep_on_any_corner_list(case):
    # the walk's argument holds for any list of constraints (w, k), not only
    # for the corners of a table
    n, M, corners = case
    table = CornerList(n, M, corners)
    assert admissible_region(table) == reference_admissible_region(n, M, corners)
    # genus_admissible reads the same corners one genus vector at a time
    for g in product(range(2 * M + 1), repeat=n):
        assert genus_admissible(table, g) == \
            (g[-1] >= reference_least_last(corners, M, g[:-1])), g


def test_walk_reads_each_f_term_once_per_candidate(monkeypatch):
    # f_cap runs once per candidate value and distinct w_i on each prefix
    # axis; the prefix sweep that came before ran it per prefix, corner and
    # coordinate, 896 and 546 times on these inputs
    tables = [HTable(FOLD_AND_WALK_LINKS[name]())
              for name in ("borromean_cable:2,7,2,7,1,1", "two_bridge:12")]
    for t in tables:
        t.corners()
    calls = []
    real = bounds.f_cap
    monkeypatch.setattr(bounds, "f_cap", lambda g, v: calls.append(g) or real(g, v))
    assert [(admissible_region(t), len(calls))[1] for t in tables] == [30, 30 + 156]


# -- the admissible region of a disjoint union ----------------------------------------


PRODUCT_PARTS = {**UNION_PARTS, "borromean": lambda: catalog("borromean")}


def admissible_product(parts):
    return reduce(region_product, (admissible_region(HTable(d)) for d in parts))


# At most 4 components in all, which keeps each example well under a second.
@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(sorted(PRODUCT_PARTS)), min_size=2, max_size=3)
       .map(lambda keys: [PRODUCT_PARTS[key]() for key in keys])
       .filter(lambda parts: sum(d.n for d in parts) <= 4))
def test_admissible_region_of_a_union_is_the_product(parts):
    # h and f_cap both add over the parts, and each part's sup(h - f) is >= 0
    assert admissible_region(HTable(disjoint_union(*parts))) == admissible_product(parts)


def test_admissible_region_of_a_four_component_union():
    parts = [cable_alexander(catalog("whitehead"), CableSpec(((2, 7), (2, 7)))),
             catalog("whitehead")]
    region = admissible_region(HTable(disjoint_union(*parts)))
    assert region.generators == \
        ((3, 5, 0, 1), (3, 5, 1, 0), (5, 3, 0, 1), (5, 3, 1, 0))
    assert region == admissible_product(parts)
