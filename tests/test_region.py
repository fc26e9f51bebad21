"""Genus regions: generators, maximal points, products, projections,
and the reconstruction of the region from maximal points plus sublink data."""

from itertools import product

import pytest

from hfgenus.hfunction import HTable
from hfgenus.linkcat import catalog, disjoint_union, sublink
from hfgenus.region import (UpwardClosedRegion, dominates,
                            maximal_lattice_points, minimalize,
                            projection_check, region_from_h, region_product)


def region_of(key, *params):
    return region_from_h(HTable(catalog(key, *params)))


def test_region_generators_catalog():
    assert region_of("whitehead").generators == ((0, 1), (1, 0))
    assert region_of("mirror_L7a3").generators == ((0, 2), (1, 1))
    assert region_of("borromean").generators == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    assert region_of("trefoil_rh").generators == ((1,),)
    assert region_of("unknot").generators == ((0,),)


def test_two_bridge_staircase_generators():
    for k in range(1, 6):
        expected = tuple(sorted((i, k - i) for i in range(k + 1)))
        assert region_of("two_bridge", k).generators == expected


def test_region_contains():
    r = region_of("whitehead")
    assert r.contains((3, 0)) and (3, 0) in r
    assert not r.contains((0, 0))
    empty = UpwardClosedRegion(2, ())
    assert not empty.contains((5, 5))


def test_membership_monotone():
    r = region_of("mirror_L7a3")
    for x in product(range(0, 5), repeat=2):
        for y in product(range(0, 5), repeat=2):
            if dominates(y, x) and r.contains(x):
                assert r.contains(y)


def test_minimalize_gives_antichain():
    pts = [(1, 2), (2, 1), (2, 2), (1, 2), (0, 5)]
    gens = minimalize(pts)
    assert gens == ((0, 5), (1, 2), (2, 1))
    for a in gens:
        for b in gens:
            if a != b:
                assert not dominates(a, b)


def test_maximal_points_catalog():
    assert maximal_lattice_points(HTable(catalog("whitehead"))) == ((0, 0),)
    assert maximal_lattice_points(HTable(catalog("borromean"))) == ((0, 0, 0),)
    assert maximal_lattice_points(HTable(catalog("two_bridge", 2))) == \
        ((0, 1), (1, 0))
    assert maximal_lattice_points(HTable(catalog("mirror_L7a3"))) == ((0, 1),)
    assert maximal_lattice_points(HTable(catalog("trefoil_rh"))) == ((0,),)
    assert maximal_lattice_points(HTable(catalog("unknot"))) == ()


def test_maximal_points_definition():
    # outside the region, every upper neighbor inside
    for key in ["whitehead", "two_bridge", "mirror_L7a3", "borromean"]:
        d = catalog(key, 2) if key == "two_bridge" else catalog(key)
        t = HTable(d)
        r = region_from_h(t)
        for z in maximal_lattice_points(t):
            assert not r.contains(z)
            for i in range(t.n):
                assert r.contains(z[:i] + (z[i] + 1,) + z[i + 1:])


def test_region_product():
    wh = region_of("whitehead")
    assert region_product(wh, wh).generators == (
        (0, 1, 0, 1), (0, 1, 1, 0), (1, 0, 0, 1), (1, 0, 1, 0))
    unk = region_of("unknot")
    assert region_product(unk, unk).generators == ((0, 0),)
    padded = region_product(unk, wh)
    assert padded.generators == ((0, 0, 1), (0, 1, 0))


def test_region_product_matches_union_region():
    pool = ["unknot", "trefoil_rh", "whitehead"]
    for a in pool:
        for b in pool:
            u = disjoint_union(catalog(a), catalog(b))
            direct = region_from_h(HTable(u))
            via_product = region_product(region_of(a), region_of(b))
            assert direct.generators == via_product.generators, (a, b)


def test_projection_check_passes():
    for key in ["whitehead", "mirror_L7a3", "borromean"]:
        d = catalog(key)
        r = region_from_h(HTable(d))
        assert projection_check(d, r) == []


def test_projection_check_detects_violation():
    d = catalog("mirror_L7a3")
    bogus = UpwardClosedRegion(2, ((0, 0),))
    assert projection_check(d, bogus)  # (0,) is not in the trefoil's region


def test_region_reconstruction_from_maximal_points():
    # membership is equivalent to: not below any maximal point, and every
    # one-coordinate-deleted projection lies in the sublink's region
    for key in ["whitehead", "two_bridge", "mirror_L7a3", "borromean", "trefoil_rh"]:
        d = catalog(key, 3) if key == "two_bridge" else catalog(key)
        t = HTable(d)
        r = region_from_h(t)
        zmax = maximal_lattice_points(t)
        if d.n == 1:
            sub_regions = []
        else:
            sub_regions = [
                (i, region_from_h(HTable(
                    sublink(d, tuple(j for j in range(d.n) if j != i)))))
                for i in range(d.n)]
        for x in product(range(0, t.M), repeat=d.n):
            reconstructed = not any(dominates(z, x) for z in zmax) and all(
                sr.contains(tuple(x[j] for j in range(d.n) if j != i))
                for i, sr in sub_regions)
            assert reconstructed == r.contains(x), (key, x)


def test_generators_are_nonnegative_antichain():
    with pytest.raises(ValueError):
        UpwardClosedRegion(2, ((0, -1),))
    r = UpwardClosedRegion(2, ((1, 1), (1, 2), (2, 1)))
    assert r.generators == ((1, 1),)


def test_region_from_h_refuses_invalid_table():
    from hfgenus.errors import StabilizationError
    from test_hfunction import bad_knot
    bad = HTable(disjoint_union(bad_knot(), catalog("whitehead")), force=True)
    with pytest.raises(StabilizationError):
        region_from_h(bad)


def test_membership_dimension_mismatch():
    r = UpwardClosedRegion(2, ((0, 0),))
    with pytest.raises(ValueError):
        r.contains((1, 2, 3))
