"""Genus bounds, the unlink criterion, and d-invariants."""

import random
import warnings
from collections import Counter
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
from hfgenus.linkcat import Component, LinkDescriptor, catalog
from hfgenus.linkops import disjoint_union
from hfgenus.region import region_from_h, region_product
from hfgenus.surgery import circle_bundle_d, large_surgery_d, lens_d
from oracles import (ADMISSIBLE, ORACLE, PARTS, SPLIT, TABLE_READ_EXCEPTION, WALK,
                     assert_refused, axis_radii, box, brute_h, count_reads, cube, link, minimalize,
                     oracle_admissible_region, oracle_h, raw_draw, reference_bound_weighted,
                     reference_corners, reference_genera, reference_maximal_points,
                     reference_region, reference_sign_resolution, reference_signs,
                     reference_unlink_test, two_bridge_h)
from oracles import f_cap as reference_f_cap


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
    links += [link(name) for name in ORACLE + ADMISSIBLE]
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


def test_bound_weighted_reads_each_genus_off_the_knot_polynomials():
    # a component is a label only: its genus is deg Delta of its knot, so
    # relabelled components give the bound of their data, and a cabled
    # trefoil's axis runs over its genus, 2 * 1 + 3
    wh = catalog("whitehead")
    anon = LinkDescriptor("wh-anon", [Component("a"), Component("b")],
                          alexander=wh.alexander, lspace_asserted=True)
    assert bound_weighted(HTable(anon)) == bound_weighted(HTable(wh)) == 0
    cabled = cable_alexander(catalog("trefoil_rh"), CableSpec(((2, 7),)))
    assert bound_weighted(HTable(cabled)) == 5


@pytest.mark.parametrize("name", ORACLE)
def test_bound_weighted_matches_the_full_sweep(name):
    d = link(name)
    assert bound_weighted(HTable(d)) == reference_bound_weighted(oracle_h(name),
                                                                 reference_genera(d))


def test_bound_weighted_reads_at_most_the_box():
    # each axis is range(-g_i, g_i + 1), g_i = deg Delta_i <= M_i - 2: the
    # sweep reads every point of prod [-g_i, g_i] once, all inside the box
    for name in ORACLE + ADMISSIBLE:
        d = link(name)
        t, genera = HTable(d), reference_genera(d)
        reads = count_reads(t)
        bound_weighted(t)
        assert sorted(reads) == list(box(genera)), name
        assert all(g <= m - 2 for g, m in zip(genera, axis_radii(d))), name


def test_best_lower_bound_provenance():
    report = best_lower_bound(HTable(catalog("two_bridge", 3)))
    assert report["best"] == 3 and report["via"] == "min_generator_sum"
    report = best_lower_bound(HTable(catalog("borromean")))
    assert report["best"] == 1
    report = best_lower_bound(HTable(catalog("whitehead_cable", 2, 7)))
    assert report["best"] == (2 - 1) * (7 - 1) // 2 + 1 == 4
    report = best_lower_bound(HTable(catalog("unlink", 3)))
    assert report["best"] == 0
    # where bounds tie at the best, the first in the order of the dict names it
    report = best_lower_bound(HTable(catalog("trefoil_rh")))
    assert report["bounds"] == {"min_generator_sum": 1, "max_h_excess": 1,
                                "component_weighted": 1}
    assert report["via"] == "min_generator_sum"
    # a cabled trefoil, of genus 5: the weighted bound ties the region's
    report = best_lower_bound(HTable(link("trefoil_rh_cable:2,7")))
    assert report["bounds"] == {"min_generator_sum": 5, "max_h_excess": 3,
                                "component_weighted": 5}
    assert report["via"] == "min_generator_sum"


def test_unlink_test():
    assert unlink_test(HTable(catalog("unknot")))
    assert unlink_test(HTable(catalog("unlink", 2)))
    assert unlink_test(HTable(catalog("unlink", 3)))
    assert not unlink_test(HTable(catalog("whitehead")))
    assert not unlink_test(HTable(catalog("trefoil_rh")))
    assert not unlink_test(HTable(disjoint_union(catalog("trefoil_rh"),
                                                    catalog("unknot"))))


@pytest.mark.parametrize("name", sorted(ORACLE + SPLIT))
def test_unlink_test_matches_the_box_sweep(name):
    # and reads h at the origin only: h >= 0 with max h = h(0) is a theorem
    # of the laws (see the hfunction docstring)
    t = HTable(link(name))
    reads = count_reads(t)
    assert unlink_test(t) == reference_unlink_test(oracle_h(name), axis_radii(t.link))
    assert reads == [(0,) * t.n]


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
    # the heuristic warns up to m = 2g + 2, and from m = 2g + 3 on it is silent
    for g in (1, 2, 3):
        with pytest.warns(UserWarning, match=f"m={2 * g + 2} may not be large enough"):
            circle_bundle_d(2 * g + 2, g, 0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            circle_bundle_d(2 * g + 3, g, 0)


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
        HTable(link("-t + 3 - 1/t, forced"), force=True)


def test_bound_dominates_component_thresholds():
    # a link's region bound is at least each component's own threshold
    for key in ["whitehead", "mirror_L7a3", "borromean"]:
        d = catalog(key)
        whole = bound_min_region(HTable(d))
        for i in range(d.n):
            from hfgenus.linkops import sublink
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


# -- the admissible region, the fold and the walk against their per-point definitions --


def test_the_pair_scope_matches_the_level_set_oracles(pair_scope_outcomes):
    # every table of the exhaustive two-component scope: 91 hold one class
    # of orthants and 104 two, whose lists differ, so the corners read both;
    # the corners, the staircases and the admissible region match their
    # per-point oracles, on h from the polynomials with the reference signs
    tables = [t for _, t in pair_scope_outcomes if isinstance(t, HTable)]
    assert sorted(Counter(len(t._grids) for t in tables).items()) == [(1, 91), (2, 104)]
    for t in tables:
        d = t.link
        h, radii = brute_h(d, reference_signs(d)), axis_radii(d)
        assert t.corners() == reference_corners(h, radii), d.name
        assert t.staircases() == (reference_region(h, radii),
                                  reference_maximal_points(h, radii)), d.name
        assert admissible_region(t).generators == oracle_admissible_region(h, radii)[0], d.name


@pytest.mark.parametrize("name", sorted(ORACLE + ADMISSIBLE))
def test_admissible_region_matches_oracle(name):
    d = link(name)
    want, admissible, cap = oracle_admissible_region(oracle_h(name), axis_radii(d))
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


def test_a_caller_changing_the_corners_list_changes_no_later_answer():
    # corners() returns a new list on each call, so clearing one leaves the
    # table's answers as they were
    t = HTable(catalog("whitehead"))
    t.corners().clear()
    assert not genus_admissible(t, (0, 0))
    assert admissible_region(t).generators == ((0, 1), (1, 0))


def test_admissible_region_bounds_and_unlink_test_match_the_oracles_on_raw_draws():
    # the seeded two-component draws of the corners test: every draw that
    # builds, some with h(v) > h(|v|), against the per-point references
    rng, built, asymmetric = random.Random(8), 0, 0
    for k in range(600):
        d = raw_draw(rng, k)
        try:
            t = HTable(d)
        except ValidationError:
            continue
        built += 1
        h, radii, M = brute_h(d, reference_sign_resolution(d)), axis_radii(d), t.M
        asymmetric += any(h(s) > h((abs(s[0]), abs(s[1]))) for s in cube(M, 2))
        assert admissible_region(t).generators == oracle_admissible_region(h, radii)[0], d.name
        assert unlink_test(t) == reference_unlink_test(h, radii), d.name
        assert bound_weighted(t) == reference_bound_weighted(h, reference_genera(d)), d.name
    assert built >= 50 and asymmetric >= 5


def maximal_points(points):
    return minimalize(tuple(-x for x in w) for w in points)


@pytest.mark.parametrize("name", sorted(ORACLE + ADMISSIBLE))
def test_corners_give_the_maximal_points_of_every_level_set(name):
    t = HTable(link(name))
    corners = t.corners()
    assert corners == sorted(corners) and all(k > 0 for _, k in corners)
    h = oracle_h(name)
    folded = [(tuple(map(abs, v)), h(v)) for v in cube(max(axis_radii(t.link)), t.n)]
    for j in range(1, max(hv for _, hv in folded) + 1):
        assert maximal_points(w for w, k in corners if k >= j) == \
            maximal_points(w for w, hv in folded if hv >= j), f"{name}, level {j}"


def test_corner_counts():
    # the box holds 2439, 18139 and 761 points with h > 0
    cable = cable_alexander(catalog("borromean"), CableSpec(((2, 7),) * 3))
    assert len(HTable(cable).corners()) == 27
    assert len(HTable(catalog("whitehead_cable", 7, 22)).corners()) == 25
    assert len(HTable(catalog("two_bridge", 20)).corners()) == 110


def reference_least_last(corners, M, p):
    """The least g_n with (p, g_n) admissible, or inf: each corner's f-terms
    summed afresh over the prefix p."""
    rest = [(w[-1], k - sum(reference_f_cap(gi, wi) for gi, wi in zip(p, w) if wi < M))
            for w, k in corners]
    if any(r > 0 and wn == M for wn, r in rest):
        return inf
    return max((wn + 2 * r - 1 for wn, r in rest if r > 0), default=0)


def reference_admissible_region(n, M, corners):
    """The prefix sweep: the least last coordinate over every prefix of the
    capped box, minimalized."""
    caps = [max((w[i] + 2 * k - 1 for w, k in corners if w[i] < M), default=0)
            for i in range(n)]
    return minimalize(p + (m,) for p in product(*(range(c + 1) for c in caps[:-1]))
                      if (m := reference_least_last(corners, M, p)) < inf)


@pytest.mark.parametrize("name", sorted(ORACLE + ADMISSIBLE + WALK))
def test_fold_and_walk_match_the_per_point_oracles(name):
    t = HTable(link(name))
    # the one input whose oracle reads the table under test: see oracles
    h = t.h if name == TABLE_READ_EXCEPTION else oracle_h(name)
    corners = reference_corners(h, axis_radii(t.link))
    assert t.corners() == corners
    assert admissible_region(t).generators == reference_admissible_region(t.n, t.M, corners)


def test_two_bridge_closed_forms_at_a_size_brute_force_cannot_reach():
    # two_bridge:120 has 60,025 box points and a polynomial of 29,040 terms
    k = 120
    t = HTable(catalog("two_bridge", k))
    assert t.staircases() == (tuple((i, k - i) for i in range(k + 1)),
                              tuple((i, k - 1 - i) for i in range(k)))
    assert t.corners() == reference_corners(two_bridge_h(k), axis_radii(t.link))
    assert admissible_region(t).generators == tuple((i, k - i) for i in range(k + 1))


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
    assert admissible_region(table).generators == reference_admissible_region(n, M, corners)
    # genus_admissible reads the same corners one genus vector at a time
    for g in product(range(2 * M + 1), repeat=n):
        assert genus_admissible(table, g) == \
            (g[-1] >= reference_least_last(corners, M, g[:-1])), g


def test_walk_reads_each_f_term_once_per_candidate(monkeypatch):
    # f_cap runs once per candidate value and distinct w_i on each prefix
    # axis; the prefix sweep that came before ran it per prefix, corner and
    # coordinate, 896 and 546 times on these inputs
    tables = [HTable(link(name))
              for name in ("borromean_cable:2,7,2,7,1,1", "two_bridge:12")]
    calls = []
    real = bounds.f_cap
    monkeypatch.setattr(bounds, "f_cap", lambda g, v: calls.append(g) or real(g, v))
    assert [(admissible_region(t), len(calls))[1] for t in tables] == [30, 30 + 156]


# -- the admissible region of a disjoint union ----------------------------------------


def admissible_product(parts):
    return reduce(region_product, (admissible_region(HTable(d)) for d in parts))


# At most 4 components in all, which keeps each example well under a second.
@settings(max_examples=25, deadline=None)
@given(st.lists(st.sampled_from(sorted(PARTS + ("borromean",))), min_size=2, max_size=3)
       .map(lambda keys: [link(key) for key in keys])
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


# (what is refused, the call, the exception type, its message)
REFUSALS = [
    ("lens space of order 0", lambda: lens_d(0, 0),
     ValueError, "lens space order must be positive"),
    ("a negative genus", lambda: genus_admissible(HTable(catalog("whitehead")), (1, -1)),
     ValueError, "genus vector must be nonnegative with one entry per component"),
    ("a short genus vector", lambda: genus_admissible(HTable(catalog("whitehead")), (1,)),
     ValueError, "genus vector must be nonnegative with one entry per component"),
]


@pytest.mark.parametrize("what, call, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals(what, call, error, message):
    assert_refused(call, error, message)
