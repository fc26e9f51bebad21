"""Acceptance suite: the headline results, one pass/fail line per criterion.

Every assertion is exact (integer or rational equality, zero tolerance).
Run with `pytest tests/test_acceptance.py -s` to see the criterion lines.
"""

import random
from itertools import product

from hfgenus.bounds import (admissible_region, best_lower_bound,
                            bound_min_region, unlink_test)
from hfgenus.cable import CableSpec, cable_alexander, region_via_T
from hfgenus.errors import StabilizationError
from hfgenus.hfunction import HTable
from hfgenus.laurent import LaurentPoly
from hfgenus.linkcat import LinkDescriptor, catalog
from hfgenus.linkops import disjoint_union
from hfgenus.region import (UpwardClosedRegion, dominates,
                            maximal_lattice_points, minimalize, region_from_h,
                            region_product)
from hfgenus.surgery import circle_bundle_d, large_surgery_d, lens_d
from oracles import bad_knot, inclusion_exclusion, oracle_chi


def criterion(number, description, ok):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {number}: {description}")
    assert ok, f"criterion {number}: {description}"


def catalog_roster():
    return [
        catalog("unknot"), catalog("trefoil_rh"), catalog("whitehead"),
        catalog("two_bridge", 2), catalog("two_bridge", 3),
        catalog("borromean"), catalog("mirror_L7a3"),
        catalog("unlink", 2), catalog("unlink", 3),
        catalog("whitehead_cable", 2, 7), catalog("whitehead_cable", 3, 10),
        catalog("two_bridge_cable", 1, 2, 7, 1, 1),
    ]


NON_SPLIT = ["trefoil_rh", "whitehead", "borromean", "mirror_L7a3"]


def test_criterion_1_two_bridge_family():
    ok = True
    for k in range(1, 6):
        t = HTable(catalog("two_bridge", k))
        ok &= bound_min_region(t) == k
        ok &= region_from_h(t).generators == tuple(sorted((i, k - i)
                                                          for i in range(k + 1)))
        ok &= t.h((k, 0)) == 0 and t.h((k - 1, 0)) == 1
    criterion(1, "two-bridge family: bound k, staircase generators, "
                 "h(k,0)=0 and h(k-1,0)=1 for k=1..5", ok)


def test_criterion_2_borromean():
    t = HTable(catalog("borromean"))
    ok = t.h((0, 0, 0)) == 1
    for v in product(range(0, t.M + 1), repeat=3):
        if v != (0, 0, 0) and all(x >= 0 for x in v):
            ok &= t.h(v) == 0
    ok &= best_lower_bound(t)["best"] == 1
    ok &= maximal_lattice_points(t) == ((0, 0, 0),)
    criterion(2, "borromean: h(0)=1, h=0 above, best bound 1, "
                 "maximal point at the origin", ok)


def test_criterion_3_mirror_l7a3():
    t = HTable(catalog("mirror_L7a3"))
    ok = region_from_h(t).generators == ((0, 2), (1, 1))
    ok &= bound_min_region(t) == 2
    criterion(3, "mirror L7a3: generators {(1,1),(0,2)} with the trefoil on "
                 "coordinate 2, bound 2", ok)


def test_criterion_4_cabled_whitehead():
    ok = True
    base_region = region_from_h(HTable(catalog("whitehead")))
    for p, q in [(2, 7), (3, 10)]:
        expected = (p - 1) * (q - 1) // 2 + 1
        direct = region_from_h(HTable(catalog("whitehead_cable", p, q)))
        transformed = region_via_T(base_region, CableSpec(((p, q), (1, 1))))
        ok &= direct.generators == transformed.generators
        ok &= direct.min_generator_sum() == expected
        ok &= transformed.min_generator_sum() == expected
    criterion(4, "cabled whitehead (2,7) and (3,10): bound (p-1)(q-1)/2+1 via "
                 "both pipelines, generator-for-generator", ok)


def test_criterion_5_cable_sanity():
    trefoil = LaurentPoly.from_terms(1, [(1, (1,)), (-1, (0,)), (1, (-1,))])
    cab = cable_alexander(catalog("unknot"), CableSpec(((2, 3),)))
    ok = cab.delta((0,)) == trefoil
    ok &= region_from_h(HTable(cab)).generators == ((1,),)
    for key, n in [("whitehead", 2), ("two_bridge", 2)]:
        d = catalog(key, 2) if key == "two_bridge" else catalog(key)
        ident = cable_alexander(d, CableSpec(((1, 1),) * n))
        ok &= all(ident.delta(B) == d.delta(B) for B in d.alexander)
    criterion(5, "(2,3)-cable of the unknot gives the trefoil polynomial and "
                 "region; identity cables are no-ops", ok)


def test_criterion_6_chi_roundtrip():
    ok = True
    for d in catalog_roster():
        t = HTable(d)
        full = tuple(range(d.n))
        for s in product(range(-t.M + 1, t.M), repeat=d.n):
            if inclusion_exclusion(t.H, s) != oracle_chi(d, full, s):
                ok = False
    criterion(6, "inclusion-exclusion of H reproduces every chi coefficient "
                 "on every catalog link (zero tolerance)", ok)


def test_criterion_7_validator_and_sign_flip():
    for d in catalog_roster():
        HTable(d)  # raises StabilizationError unless H passes the laws
    try:
        HTable(disjoint_union(bad_knot(), catalog("unknot")), force=True)
        report = []
    except StabilizationError as exc:
        report = exc.problems
    ok = "H(0, 0) = -1 is negative" in report
    wh = catalog("whitehead")
    flipped = LinkDescriptor("whitehead-flipped", wh.components, alexander={
        **wh.alexander, (0, 1): -wh.delta((0, 1))}, lspace_asserted=True)
    ok &= HTable(flipped).flipped_signs() == [(1, 2)]
    criterion(7, "H-function laws hold on all catalog links; a knot with "
                 "negative H fails them, and a flipped whitehead sign is "
                 "resolved back", ok)


def test_criterion_8_d_invariant_cross_check():
    unk = HTable(catalog("unknot"))
    ok = True
    for m in range(1, 13):
        for k in range(-(m // 2), m // 2 + 1):
            closed = lens_d(m, k)
            oracle = -large_surgery_d(unk, (m,), (k,), force=True)
            ok &= closed == oracle
            ok &= circle_bundle_d(m, 0, k) == closed
    criterion(8, "lens-space closed form equals the degree-shift oracle for "
                 "all m <= 12; genus-0 circle bundles reduce to it", ok)


def test_criterion_9_unlink_checker():
    ok = all(unlink_test(HTable(catalog("unlink", n))) for n in (1, 2, 3))
    for key in NON_SPLIT + ["two_bridge", "whitehead_cable"]:
        if key == "two_bridge":
            d = catalog(key, 2)
        elif key == "whitehead_cable":
            d = catalog(key, 2, 7)
        else:
            d = catalog(key)
        ok &= not unlink_test(HTable(d))
    criterion(9, "n-unlinks have identically zero h; every non-split catalog "
                 "link fails the unlink test", ok)


def test_criterion_10_containment_and_region_laws():
    ok = True
    for d in catalog_roster():
        t = HTable(d)
        adm = admissible_region(t)
        h_region = region_from_h(t)
        ok &= all(h_region.contains(g) for g in adm.generators)

    rng = random.Random(20260810)
    cases = 0

    # antichain + monotone membership on random regions
    for _ in range(500):
        n = rng.randint(1, 4)
        pts = [tuple(rng.randint(0, 6) for _ in range(n))
               for _ in range(rng.randint(0, 6))]
        region = UpwardClosedRegion(n, tuple(pts))
        gens = region.generators
        ok &= all(not dominates(a, b)
                  for a in gens for b in gens if a != b)
        ok &= gens == minimalize(pts)
        x = tuple(rng.randint(0, 8) for _ in range(n))
        i = rng.randrange(n)
        ok &= (not region.contains(x)) or region.contains(
            x[:i] + (x[i] + 1,) + x[i + 1:])
        cases += 1

    # product formula for disjoint unions
    pool = ["unknot", "trefoil_rh", "whitehead", "mirror_L7a3"]
    pool_regions = {k: region_from_h(HTable(catalog(k))) for k in pool}
    union_regions = {}
    for a in pool:
        for b in pool:
            u = disjoint_union(catalog(a), catalog(b))
            union_regions[(a, b)] = region_from_h(HTable(u))
    for _ in range(600):
        a, b = rng.choice(pool), rng.choice(pool)
        ra, rb = pool_regions[a], pool_regions[b]
        prod = region_product(ra, rb)
        ok &= prod.generators == union_regions[(a, b)].generators
        x = tuple(rng.randint(0, 5) for _ in range(ra.n))
        y = tuple(rng.randint(0, 5) for _ in range(rb.n))
        ok &= prod.contains(x + y) == (ra.contains(x) and rb.contains(y))
        cases += 1

    ok &= cases >= 1000
    criterion(10, f"admissible region contained in the h-region on every "
                  f"catalog link; region laws hold on {cases} randomized "
                  f"cases with zero failures", ok)
