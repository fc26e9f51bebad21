"""Cabling: polynomial transform, region transform, consistency."""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgenus.bounds import bound_min_region
from hfgenus.cable import (CableSpec, T_transform, cable_alexander,
                           cable_consistency_check, geometric_cable_factor,
                           parse_cable_spec, region_via_T, substitute_powers)
from hfgenus.errors import UsageError
from hfgenus.hfunction import HTable
from hfgenus.laurent import LaurentPoly
from hfgenus.linkcat import catalog, disjoint_union, sublink, validate_descriptor
from hfgenus.region import UpwardClosedRegion, region_from_h


def P(nvars, *terms):
    return LaurentPoly.from_terms(nvars, terms)


TREFOIL = P(1, (1, (1,)), (-1, (0,)), (1, (-1,)))
# classical torus-knot polynomials, frozen by hand from the alternating form
T25 = P(1, (1, (2,)), (-1, (1,)), (1, (0,)), (-1, (-1,)), (1, (-2,)))
T27 = P(1, (1, (3,)), (-1, (2,)), (1, (1,)), (-1, (0,)), (1, (-1,)),
        (-1, (-2,)), (1, (-3,)))


def test_cable_spec_validation():
    with pytest.raises(ValueError):
        CableSpec(((2, 4),))
    with pytest.raises(ValueError):
        CableSpec(((0, 1),))
    spec = CableSpec(((2, 7), (1, 1)))
    assert spec.genus_shift(0) == 3 and spec.genus_shift(1) == 0


def test_parse_cable_spec():
    assert parse_cable_spec("2:7,1:1").pairs == ((2, 7), (1, 1))
    with pytest.raises(UsageError):
        parse_cable_spec("2-7")
    with pytest.raises(UsageError):
        parse_cable_spec("2:4")


def test_unknot_cable_is_trefoil():
    d = cable_alexander(catalog("unknot"), CableSpec(((2, 3),)))
    assert d.delta((0,)) == TREFOIL
    assert d.components[0].g4 == 1
    assert region_from_h(HTable(d)).generators == ((1,),)


COPRIME_PAIRS = [(p, q) for p in range(1, 9) for q in range(1, 40) if gcd(p, q) == 1]


def binomial(e):
    """t^e - 1."""
    return P(1, (1, (e,)), (-1, (0,)))


def up_to_monomial(f):
    """f shifted so that its lowest exponent is 0."""
    return f.shift(tuple(-e for e in min(f.terms)))


def test_unknot_cables_give_torus_knot_polynomials():
    assert cable_alexander(catalog("unknot"), CableSpec(((2, 5),))).delta((0,)) == T25
    assert cable_alexander(catalog("unknot"), CableSpec(((2, 7),))).delta((0,)) == T27
    # Delta_{T(p,q)} = (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)), by multiplication
    for p, q in COPRIME_PAIRS:
        cable = cable_alexander(catalog("unknot"), CableSpec(((p, q),))).delta((0,))
        assert up_to_monomial(cable * binomial(p) * binomial(q)) == \
            up_to_monomial(binomial(p * q) * binomial(1)), (p, q)


@pytest.mark.parametrize("knot", [
    lambda: catalog("trefoil_rh"),
    lambda: cable_alexander(catalog("trefoil_rh"), CableSpec(((2, 5),))),
], ids=["trefoil_rh", "trefoil_rh_cable(2:5)"])
def test_knot_cables_follow_the_division_formula(knot):
    # cable * (t^p - 1) = delta(t^p) * factor(p, q) * (t - 1), up to a monomial
    d = knot()
    delta = d.delta((0,))
    for p, q in COPRIME_PAIRS:
        cable = cable_alexander(d, CableSpec(((p, q),))).delta((0,))
        expected = substitute_powers(delta, (p,)) * geometric_cable_factor(p, q) * binomial(1)
        assert up_to_monomial(cable * binomial(p)) == up_to_monomial(expected), (p, q)


def test_one_strand_cable_is_identity():
    d = cable_alexander(catalog("unknot"), CableSpec(((1, 7),)))
    assert d.delta((0,)) == LaurentPoly.one(1)
    wh = catalog("whitehead")
    idc = cable_alexander(wh, CableSpec(((1, 1), (1, 1))))
    for B in [(0,), (1,), (0, 1)]:
        assert idc.delta(B) == wh.delta(B)
    assert [c.g4 for c in idc.components] == [c.g4 for c in wh.components]


def test_cabled_descriptors_validate():
    for pairs in [((2, 7), (1, 1)), ((3, 10), (1, 1))]:
        d = cable_alexander(catalog("whitehead"), CableSpec(pairs))
        assert validate_descriptor(d) == []


def test_cable_commutes_with_sublink():
    wh = catalog("whitehead")
    spec = CableSpec(((2, 7), (3, 11)))
    cabled = cable_alexander(wh, spec)
    for B in [(0,), (1,), (0, 1)]:
        direct = sublink(cabled, B)
        via = cable_alexander(sublink(wh, B), CableSpec(tuple(spec.pairs[i] for i in B)))
        for C in [tuple(range(len(B)))]:
            assert direct.delta(C) == via.delta(C), (B, C)


def test_cable_g4_update():
    tref = catalog("trefoil_rh")
    d = cable_alexander(tref, CableSpec(((2, 3),)))
    assert d.components[0].g4 == 2 * 1 + 1 == 3
    d = cable_alexander(tref, CableSpec(((3, 7),)))
    assert d.components[0].g4 == 3 * 1 + 6 == 9


def test_cable_g4_matches_region_bound_for_lspace_cables():
    # unknot and trefoil cables with q above the L-space threshold
    for base, pairs in [("unknot", (2, 3)), ("unknot", (2, 5)), ("unknot", (3, 7)),
                        ("trefoil_rh", (2, 3)), ("trefoil_rh", (2, 5)),
                        ("trefoil_rh", (3, 7))]:
        d = cable_alexander(catalog(base), CableSpec((pairs,)))
        assert bound_min_region(HTable(d)) == d.components[0].g4, (base, pairs)


def test_T_transform():
    ident = CableSpec(((1, 1), (1, 5)))
    assert T_transform(ident, (4, -2)) == (4, -2)
    spec = CableSpec(((2, 7), (3, 5)))
    assert T_transform(spec, (0, 0)) == (3, 4)
    assert T_transform(CableSpec(((2, 3),)), (0,)) == (1,)


def test_T_transform_strictly_monotone():
    spec = CableSpec(((2, 7), (3, 5)))
    pts = [(0, 0), (1, 0), (0, 1), (2, 3), (-1, 4)]
    for a in pts:
        for b in pts:
            if all(x <= y for x, y in zip(a, b)) and a != b:
                ta, tb = T_transform(spec, a), T_transform(spec, b)
                assert all(x <= y for x, y in zip(ta, tb)) and ta != tb


def test_region_via_T_whitehead_formula():
    wh_region = UpwardClosedRegion(2, ((0, 1), (1, 0)))
    for p, q in [(2, 7), (3, 10), (2, 9)]:
        spec = CableSpec(((p, q), (1, 1)))
        shift = (p - 1) * (q - 1) // 2
        got = region_via_T(wh_region, spec)
        assert got.generators == tuple(sorted([(p + shift, 0), (shift, 1)]))
    ident = CableSpec(((1, 1), (1, 1)))
    assert region_via_T(wh_region, ident).generators == wh_region.generators


def test_consistency_unknot_and_whitehead():
    rep = cable_consistency_check(catalog("unknot"), CableSpec(((2, 3),)))
    assert rep["equal"] and rep["direct_generators"] == ((1,),)
    for pairs in [((2, 7), (1, 1)), ((3, 10), (1, 1))]:
        rep = cable_consistency_check(catalog("whitehead"), CableSpec(pairs))
        assert rep["equal"], pairs
        assert rep["warnings"] == []


def test_consistency_small_coprime_specs():
    # blanket check on small specs with q/p >= 3
    for key in ["unknot", "trefoil_rh", "whitehead"]:
        d = catalog(key)
        for p in (1, 2):
            for q in (1, 3, 7):
                if p == 2 and (q % 2 == 0 or q < 3 * p):
                    continue
                spec = CableSpec(((p, q),) * d.n)
                rep = cable_consistency_check(d, spec)
                assert rep["equal"], (key, p, q)


def test_two_bridge_cable_staircase():
    # large ratios: both pipelines agree and give the stair with runs p1, p2
    rep = cable_consistency_check(catalog("two_bridge", 2),
                                  CableSpec(((2, 9), (3, 13))))
    assert rep["equal"]
    gens = rep["direct_generators"]
    assert gens == ((4, 18), (6, 15), (8, 12))
    runs = sorted((b[0] - a[0], a[1] - b[1])
                  for a, b in zip(gens, gens[1:]))
    assert runs == [(2, 3), (2, 3)]


def test_two_bridge_cable_below_threshold_is_rejected():
    # the q/p < 3 pair from the worked examples: the cabled data fails
    # H-validity for both signs, so the direct route reports a rejection
    rep = cable_consistency_check(catalog("two_bridge", 2),
                                  CableSpec(((2, 5), (3, 7))))
    assert rep["direct_generators"] is None
    assert "valid H-function" in rep["direct_error"]
    assert rep["warnings"]  # largeness warnings flagged the ratios
    # the transformed route still yields the stair pattern
    assert rep["transformed_generators"] == ((2, 12), (4, 9), (6, 6))


def test_cable_spec_mismatch():
    with pytest.raises(ValueError):
        cable_alexander(catalog("whitehead"), CableSpec(((2, 3),)))


def test_cable_of_a_union_is_the_union_of_the_cables():
    wh, tr = catalog("whitehead"), catalog("trefoil_rh")
    d = cable_alexander(disjoint_union(wh, tr), CableSpec(((2, 7), (1, 1), (2, 9))))
    u = disjoint_union(cable_alexander(wh, CableSpec(((2, 7), (1, 1)))),
                       cable_alexander(tr, CableSpec(((2, 9),))))
    assert d.alexander == u.alexander
    assert d.components == u.components


def test_one_strand_cables_on_links():
    wh = catalog("whitehead")
    d = cable_alexander(wh, CableSpec(((1, 3), (1, 5))))
    for B in [(0,), (1,), (0, 1)]:
        assert d.delta(B) == wh.delta(B)


# Links whose cables by CABLE_PAIRS keep the L-space property.  two_bridge:3 is
# left out: its (2, 7) and (2, 9) cables on one component fail sign resolution.
CABLE_LINKS = {"whitehead": ("whitehead",), "two_bridge:2": ("two_bridge", 2),
               "mirror_L7a3": ("mirror_L7a3",), "trefoil_rh": ("trefoil_rh",),
               "borromean": ("borromean",)}
CABLE_PAIRS = [(1, 1)] + [(p, q) for p in (2, 3) for q in range(3 * p, 3 * p + 7)
                          if gcd(p, q) == 1]


@st.composite
def cable_cases(draw):
    key = draw(st.sampled_from(sorted(CABLE_LINKS)))
    d = catalog(*CABLE_LINKS[key])
    pairs = [draw(st.sampled_from(CABLE_PAIRS)) for _ in range(d.n)]
    if key == "borromean":  # cable at most two components
        pairs[draw(st.integers(0, d.n - 1))] = (1, 1)
    return d, CableSpec(tuple(pairs))


@settings(max_examples=30, deadline=None)
@given(cable_cases())
def test_cable_routes_agree(case):
    d, spec = case
    assert cable_consistency_check(d, spec)["equal"], (d.name, spec.pairs)
