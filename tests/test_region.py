"""Genus regions: generators, maximal points, products, projections,
and the reconstruction of the region from maximal points plus sublink data."""

import random
from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hfgenus.cable import CableSpec, region_via_T
from hfgenus.errors import StabilizationError
from hfgenus.hfunction import HTable
from hfgenus.linkcat import catalog
from hfgenus.linkops import disjoint_union, sublink
from hfgenus.region import (UpwardClosedRegion, dominates,
                            maximal_lattice_points, minimalize,
                            projection_check, region_from_h, region_product)
from oracles import (ADMISSIBLE, ORACLE, STAIRCASE, assert_refused, axis_radii, bad_knot,
                     count_reads, inclusion_exclusion, link, oracle_chi, oracle_h,
                     reference_maximal_points, reference_projection_check, reference_region)


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


@given(st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=30)))
def test_minimalize_matches_brute_force(points):
    minimal = {p for p in points
               if not any(q != p and dominates(p, q) for q in points)}
    assert minimalize(points) == tuple(sorted(minimal))


def test_maximal_points_catalog():
    assert maximal_lattice_points(HTable(catalog("whitehead"))) == ((0, 0),)
    assert maximal_lattice_points(HTable(catalog("borromean"))) == ((0, 0, 0),)
    assert maximal_lattice_points(HTable(catalog("two_bridge", 2))) == \
        ((0, 1), (1, 0))
    assert maximal_lattice_points(HTable(catalog("mirror_L7a3"))) == ((0, 1),)
    assert maximal_lattice_points(HTable(catalog("trefoil_rh"))) == ((0,),)
    assert maximal_lattice_points(HTable(catalog("unknot"))) == ()


@pytest.mark.parametrize("name", ORACLE)
def test_maximal_points_have_H_one(name):
    # the proof in maximal_lattice_points' docstring, checked point by point
    d = link(name)
    t = HTable(d)
    for z in maximal_lattice_points(t):
        assert t.H(z) == 1, z
        above = tuple(x + 1 for x in z)
        assert inclusion_exclusion(t.H, above) == (-1) ** (t.n - 1) == \
            oracle_chi(d, tuple(range(d.n)), above), z


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
        t = HTable(catalog(key))
        assert projection_check(t, region_from_h(t)) == []


def test_projection_check_detects_violation():
    t = HTable(catalog("mirror_L7a3"))
    bogus = UpwardClosedRegion(2, ((0, 0),))
    assert projection_check(t, bogus)  # (0,) is not in the trefoil's region


@pytest.mark.parametrize("name", sorted(ORACLE + ADMISSIBLE))
def test_projection_check_matches_the_oracle(name):
    # the read off the link's own table against each component-deleted
    # sublink's region from that sublink's descriptor: on the link's region,
    # its image under a cable transform and generator sets drawn at random;
    # a knot (unknot, trefoil_rh) has none to violate, as h(M) = 0
    d = link(name)
    t = HTable(d)
    r = region_from_h(t)
    rng = random.Random(26)
    top = max(axis_radii(d)) + 1
    regions = [r, region_via_T(r, CableSpec(((2, 3),) * d.n))] + [
        UpwardClosedRegion(d.n, [tuple(rng.randrange(top) for _ in range(d.n))
                                 for _ in range(rng.randrange(1, 5))])
        for _ in range(30)]
    for g in regions:
        assert projection_check(t, g) == reference_projection_check(d, g), g.generators


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


@pytest.mark.parametrize("generators", [((0, 0), (1,)), ((3, 3), (4, 4, 4))])
def test_malformed_generators_are_refused(generators):
    # each bad point lies above a good one once zip truncates it, so it
    # must be refused before any domination test can drop it
    with pytest.raises(ValueError, match="dimension"):
        UpwardClosedRegion(2, generators)


def test_region_from_h_refuses_invalid_table():
    # data failing validation never make a table to read a region from
    with pytest.raises(StabilizationError):
        HTable(disjoint_union(bad_knot(), catalog("whitehead")), force=True)


def test_membership_dimension_mismatch():
    r = UpwardClosedRegion(2, ((0, 0),))
    with pytest.raises(ValueError):
        r.contains((1, 2, 3))


# -- the per-point sweeps, as oracles for the whole-list staircases -------------


@pytest.mark.parametrize("name", sorted(ORACLE + ADMISSIBLE + STAIRCASE))
def test_staircase_matches_the_per_point_sweeps(name):
    t = HTable(link(name))
    h, radii = oracle_h(name), axis_radii(t.link)
    assert region_from_h(t).generators == reference_region(h, radii)
    assert maximal_lattice_points(t) == reference_maximal_points(h, radii)


@pytest.mark.parametrize("name", ["two_bridge:20", "borromean_cable:2,7,2,7,1,1"])
def test_staircases_read_no_point(name):
    # both are read off the box list in one whole-list pass, not point by point
    t = HTable(link(name))
    reads = count_reads(t)
    region_from_h(t), maximal_lattice_points(t)
    assert reads == []


# (what is refused, the call, the exception type, its message)
REFUSALS = [
    ("the least sum of no generators", lambda: UpwardClosedRegion(2, ()).min_generator_sum(),
     ValueError, "empty region has no generators"),
    ("a region of another dimension",
     lambda: projection_check(HTable(catalog("whitehead")), UpwardClosedRegion(1, ((0,),))),
     ValueError, "region dimension does not match the link"),
]


@pytest.mark.parametrize("what, call, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals(what, call, error, message):
    assert_refused(call, error, message)
