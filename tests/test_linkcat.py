"""Link descriptors: catalog, validation, sublinks, unions, JSON persistence."""

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgenus.errors import (LSpaceAssertionError, SchemaError, SymmetryError,
                            ValidationError)
from hfgenus.hfunction import HTable
from hfgenus.laurent import (LaurentPoly, involution, normalize_symmetric,
                             symmetry_sign)
from hfgenus.linkcat import (Component, LinkDescriptor, _key_str, all_subsets,
                             catalog, catalog_list, disjoint_union, sublink,
                             two_bridge_poly, validate_descriptor)
from hfgenus.linkjson import (descriptor_from_dict, descriptor_to_dict, load_json,
                              save_json)

H = Fraction(1, 2)


def P(nvars, *terms):
    return LaurentPoly.from_terms(nvars, terms)


CATALOG_SAMPLES = [
    catalog("unknot"), catalog("trefoil_rh"), catalog("whitehead"),
    catalog("two_bridge", 2), catalog("two_bridge", 3), catalog("borromean"),
    catalog("mirror_L7a3"), catalog("unlink", 2), catalog("unlink", 3),
    catalog("whitehead_cable", 2, 7), catalog("two_bridge_cable", 1, 2, 7, 1, 1),
]


@pytest.mark.parametrize("d", CATALOG_SAMPLES, ids=lambda d: d.name)
def test_catalog_entries_validate(d):
    assert validate_descriptor(d) == []


@pytest.mark.parametrize("d", CATALOG_SAMPLES + [
    disjoint_union(catalog("whitehead"), catalog("trefoil_rh"))], ids=lambda d: d.name)
def test_descriptors_pickle_and_deepcopy(d):
    grid = HTable(d, force=True)._grid
    for twin in (pickle.loads(pickle.dumps(d)), copy.deepcopy(d)):
        assert twin == d
        assert HTable(twin, force=True)._grid == grid


def test_whitehead_polynomial():
    expected = P(2, (-1, (H, H)), (1, (H, -H)), (1, (-H, H)), (-1, (-H, -H)))
    assert catalog("whitehead").delta((0, 1)) == expected
    assert catalog("two_bridge", 1).delta((0, 1)) == expected


def test_two_bridge_term_count():
    # the diamond |i+1/2| + |j+1/2| <= k holds 2k(k+1) lattice points
    for k in range(1, 6):
        assert len(two_bridge_poly(k).terms) == 2 * k * (k + 1)


def fraction_two_bridge_poly(k):
    """The two-bridge polynomial built term by term on half-integer exponents."""
    terms = []
    for i in range(-k - 1, k + 1):
        for j in range(-k - 1, k + 1):
            if abs(i + H) + abs(j + H) <= k:
                terms.append((1 if (k + i + j) % 2 == 0 else -1, (i + H, j + H)))
    return LaurentPoly.from_terms(2, terms)


def test_two_bridge_poly_matches_the_fraction_formula():
    for k in range(1, 31):
        assert two_bridge_poly(k).terms == fraction_two_bridge_poly(k).terms, k


def test_borromean_polynomial():
    b = catalog("borromean")
    delta = b.delta((0, 1, 2))
    assert delta.coeff((H, H, H)) == 1
    assert delta.coeff((-H, H, H)) == -1
    assert len(delta.terms) == 8
    for pair in [(0, 1), (0, 2), (1, 2)]:
        assert b.delta(pair).is_zero()


def test_mirror_l7a3_polynomial():
    d = catalog("mirror_L7a3")
    delta = d.delta((0, 1))
    # trefoil factor sits on the second variable
    assert delta.coeff((H, Fraction(3, 2))) == -1
    assert delta.coeff((Fraction(3, 2), H)) == 0
    assert d.components[1].g4 == 1 and d.components[0].g4 == 0


def test_sublink_extracts_trefoil():
    d = catalog("mirror_L7a3")
    sub = sublink(d, (1,))
    assert sub.n == 1
    assert sub.delta((0,)) == P(1, (1, (1,)), (-1, (0,)), (1, (-1,)))


def test_sublink_full_set_is_identity():
    d = catalog("borromean")
    assert sublink(d, (0, 1, 2)) is d


def test_sublink_of_borromean_pair_is_unlink_data():
    sub = sublink(catalog("borromean"), (0, 1))
    assert sub.n == 2
    assert sub.delta((0, 1)).is_zero()
    assert sub.delta((0,)) == LaurentPoly.one(1)
    assert validate_descriptor(sub) == []


def test_sublink_composes():
    d = catalog("borromean")
    assert sublink(sublink(d, (0, 2)), (1,)).delta((0,)) == \
        sublink(d, (2,)).delta((0,))


def test_negative_component_indices_are_refused():
    # Python indexing would wrap -1 to the last component, and a descriptor
    # holding such a key would save a file that loading refuses
    with pytest.raises(ValueError, match="out of range"):
        sublink(catalog("mirror_L7a3"), (-1,))
    wh = catalog("whitehead")
    with pytest.raises(ValueError, match="out of range"):
        LinkDescriptor("bad", wh.components,
                       alexander={(-1,): LaurentPoly.one(1), **wh.alexander})


def test_disjoint_union_counts_and_flattens():
    a = disjoint_union(catalog("unknot"), catalog("unknot"))
    assert a.n == 2
    b = disjoint_union(a, catalog("trefoil_rh"))
    assert b.n == 3 and b.name == "unknot + unknot + trefoil_rh"
    assert b == disjoint_union(catalog("unknot"), catalog("unknot"), catalog("trefoil_rh"))
    wh2 = disjoint_union(catalog("whitehead"), catalog("whitehead"))
    assert wh2.n == 4
    assert validate_descriptor(wh2) == []
    for B in [(0, 2), (1, 3), (0, 1, 2), (0, 1, 2, 3)]:
        assert wh2.delta(B) == LaurentPoly.zero(len(B))
    assert wh2.delta((2, 3)) == catalog("whitehead").delta((0, 1))


def test_disjoint_union_mixed_subsets_vanish():
    u = disjoint_union(catalog("trefoil_rh"), catalog("unknot"))
    assert u.delta((0, 1)).is_zero()
    assert u.delta((0,)) == catalog("trefoil_rh").delta((0,))


def test_sublink_of_union():
    wh = catalog("whitehead")
    u = disjoint_union(wh, catalog("unknot"))
    sub = sublink(u, (0, 1))
    assert sub.alexander == wh.alexander
    mixed = sublink(u, (0, 2))
    assert mixed.delta((0,)) == wh.delta((0,))
    assert mixed.delta((1,)) == catalog("unknot").delta((0,))
    assert mixed.delta((0, 1)).is_zero()


def test_validate_reports_nonzero_linking():
    d = LinkDescriptor("bad", [Component("a"), Component("b")],
                       alexander={(0,): LaurentPoly.one(1),
                                  (1,): LaurentPoly.one(1),
                                  (0, 1): LaurentPoly.zero(2)},
                       linking=((0, 1), (1, 0)))
    assert any("nonzero linking" in p for p in validate_descriptor(d))


def test_validate_reports_missing_subset():
    d = LinkDescriptor("bad", [Component("a"), Component("b")],
                       alexander={(0,): LaurentPoly.one(1),
                                  (0, 1): LaurentPoly.zero(2)})
    assert any("incomplete sublink data" in p for p in validate_descriptor(d))


def test_validate_reports_asymmetric_polynomial():
    d = LinkDescriptor("bad", [Component("a")],
                       alexander={(0,): P(1, (1, (2,)), (-1, (1,)))})
    problems = validate_descriptor(d)
    assert problems and any("symmetric" in p or "t=1" in p for p in problems)


def test_validate_reports_wrong_knot_normalization():
    d = LinkDescriptor("bad", [Component("a")],
                       alexander={(0,): P(1, (1, (1,)), (1, (-1,)))})
    assert any("expected 1" in p for p in validate_descriptor(d))


def reference_validate_descriptor(d):
    """The check as it was before it read the stored terms first: every
    nonzero polynomial goes through `normalize_symmetric` and `involution`."""
    problems = []
    for i in range(d.n):
        for j in range(d.n):
            if d.linking[i][j] != 0:
                problems.append(f"nonzero linking number at ({i + 1},{j + 1})")
    for B in all_subsets(d.n):
        if B not in d.alexander:
            problems.append(f"incomplete sublink data: subset {_key_str(B)} missing")
            continue
        poly = d.alexander[B]
        if len(B) == 1:
            if poly.is_zero():
                problems.append(f"subset {_key_str(B)}: knot polynomial must be nonzero")
                continue
            if poly.evaluate_at_one() != 1:
                problems.append(f"subset {_key_str(B)}: knot polynomial value at t=1 is "
                                f"{poly.evaluate_at_one()}, expected 1")
            if any(e % 2 for (e,) in poly.terms):
                problems.append(f"subset {_key_str(B)}: knot exponents must be integers")
        else:
            if poly.is_zero():
                continue  # split sublink
            if any(e % 2 == 0 for exp in poly.terms for e in exp):
                problems.append(f"subset {_key_str(B)}: exponents must be half-odd "
                                f"(zero linking parity)")
        if not poly.is_zero():
            try:
                norm = normalize_symmetric(poly)
            except SymmetryError:
                problems.append(f"subset {_key_str(B)}: no symmetric unit multiple")
                continue
            if norm != poly and norm != -poly:
                problems.append(f"subset {_key_str(B)}: polynomial is not centered "
                                f"(expected {norm} up to sign)")
            if involution(poly) != symmetry_sign(len(B)) * poly:
                problems.append(f"subset {_key_str(B)}: wrong symmetry sign")
    return problems


@st.composite
def stored_polys(draw, k):
    """A k-variable polynomial: zero, or random terms made symmetric,
    antisymmetric or neither, centered or shifted, and for a knot given
    some value at t=1."""
    if draw(st.integers(0, 5)) == 0:
        return LaurentPoly.zero(k)
    parity = 0 if k == 1 else 1  # integer knot exponents, half-odd link exponents
    if draw(st.integers(0, 7)) == 0:
        parity = 1 - parity
    exps = st.tuples(*[st.integers(-3, 3).map(lambda x: 2 * x + parity)] * k)
    raw = LaurentPoly(k, draw(st.dictionaries(exps, st.integers(-3, 3).filter(bool),
                                              min_size=1, max_size=4)))
    mirror = draw(st.sampled_from([symmetry_sign(k), -symmetry_sign(k), 0]))
    poly = raw + mirror * involution(raw)
    if k == 1:
        value = draw(st.sampled_from([1, 1, -1, 0, 3]))
        poly = poly + LaurentPoly(1, {(0,): value - poly.evaluate_at_one()})
    if draw(st.booleans()):
        poly = poly.shift(tuple(draw(st.integers(-2, 2)) for _ in range(k)))
    return poly


@st.composite
def stored_descriptors(draw):
    n = draw(st.integers(1, 3))
    return LinkDescriptor("random", [Component(str(i)) for i in range(n)],
                          alexander={B: draw(stored_polys(len(B))) for B in all_subsets(n)})


@settings(max_examples=300, deadline=None)
@given(stored_descriptors())
def test_validate_descriptor_matches_the_per_polynomial_path(d):
    assert validate_descriptor(d) == reference_validate_descriptor(d)


# -- JSON ---------------------------------------------------------------------


@pytest.mark.parametrize("d", CATALOG_SAMPLES, ids=lambda d: d.name)
def test_json_roundtrip(d, tmp_path):
    path = tmp_path / "link.json"
    save_json(d, path)
    assert load_json(path) == d


def union_document(*parts):
    n = sum(p.n for p in parts)
    return {"name": "my union",
            "components": [c for p in parts for c in descriptor_to_dict(p)["components"]],
            "linking": [[0] * n for _ in range(n)],
            "lspace": True,
            "alexander": {},
            "structure": {"disjoint_union": [descriptor_to_dict(p) for p in parts]}}


def test_json_union_loads_as_disjoint_union(tmp_path):
    parts = [catalog("whitehead"), catalog("trefoil_rh"), catalog("unknot")]
    path = tmp_path / "union.json"
    path.write_text(json.dumps(union_document(*parts)))
    u = disjoint_union(*parts)
    assert load_json(path) == LinkDescriptor("my union", u.components,
                                             alexander=u.alexander,
                                             lspace_asserted=True)


def test_json_union_must_match_its_parts():
    parts = [catalog("whitehead"), catalog("trefoil_rh")]
    data = union_document(*parts)
    data["components"][2]["label"] = "unknot"
    with pytest.raises(SchemaError, match="components"):
        descriptor_from_dict(data)
    data = union_document(*parts)
    data["components"].pop()
    data["linking"] = [[0, 0], [0, 0]]
    with pytest.raises(SchemaError, match="components"):
        descriptor_from_dict(data)
    data = union_document(*parts)
    data["linking"][0][2] = data["linking"][2][0] = 1
    with pytest.raises(SchemaError, match="linking"):
        descriptor_from_dict(data)


def test_json_union_of_one_part():
    wh = catalog("whitehead")
    d = descriptor_from_dict(union_document(wh))
    assert d.name == "my union" and d.alexander == wh.alexander
    assert validate_descriptor(d) == []


def test_json_union_needs_every_part_lspace(tmp_path):
    data = union_document(catalog("whitehead"), catalog("trefoil_rh"))
    data["structure"]["disjoint_union"][1]["lspace"] = False
    path = tmp_path / "union.json"
    path.write_text(json.dumps(data))
    d = load_json(path)
    assert not d.lspace_asserted
    with pytest.raises(LSpaceAssertionError):
        HTable(d)


def test_json_roundtrip_is_canonical(tmp_path):
    d = catalog("whitehead")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    save_json(d, p1)
    save_json(load_json(p1), p2)
    assert p1.read_text() == p2.read_text()


def test_json_rejects_third_exponents(tmp_path):
    data = descriptor_to_dict(catalog("unknot"))
    data["alexander"]["1"] = [{"exp": ["1/3"], "coef": 1}]
    with pytest.raises(SchemaError, match="denominator"):
        descriptor_from_dict(data)


def test_json_missing_singleton_is_validation_failure(tmp_path):
    data = descriptor_to_dict(catalog("whitehead"))
    del data["alexander"]["1"]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="incomplete sublink"):
        load_json(path)


def test_json_parse_error_is_distinct(tmp_path):
    path = tmp_path / "corrupt.json"
    path.write_text("{not json")
    with pytest.raises(SchemaError, match="parse error"):
        load_json(path)


def test_json_schema_violations():
    with pytest.raises(SchemaError):
        descriptor_from_dict({"name": "x"})
    data = descriptor_to_dict(catalog("unknot"))
    data["linking"] = [[0, 0]]
    with pytest.raises(SchemaError, match="linking"):
        descriptor_from_dict(data)
    # JSON booleans load as bool, a subclass of int: none passes as an integer
    data = descriptor_to_dict(catalog("unknot"))
    data["components"][0]["g4"] = True
    with pytest.raises(SchemaError, match="g4"):
        descriptor_from_dict(data)
    data = descriptor_to_dict(catalog("unknot"))
    data["alexander"]["1"][0]["coef"] = True
    with pytest.raises(SchemaError, match="coefficient"):
        descriptor_from_dict(data)
    data = descriptor_to_dict(catalog("whitehead"))
    data["linking"][0][1] = False
    with pytest.raises(SchemaError, match="linking"):
        descriptor_from_dict(data)
    # a union whose parts are not a list
    for parts in (5, None):
        data = descriptor_to_dict(catalog("unlink", 2))
        data["alexander"], data["structure"] = {}, {"disjoint_union": parts}
        with pytest.raises(SchemaError, match="must be a list"):
            descriptor_from_dict(data)


def test_catalog_list_contains_known_keys():
    keys = {e.key for e in catalog_list()}
    assert {"unknot", "whitehead", "borromean", "mirror_L7a3",
            "two_bridge", "whitehead_cable"} <= keys


def test_catalog_checks_the_parameter_count():
    with pytest.raises(ValueError, match="the parameters p,q, got 1"):
        catalog("whitehead_cable", 2)
    with pytest.raises(ValueError, match="no parameters, got 1"):
        catalog("whitehead", 3)


def test_catalog_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown catalog key"):
        catalog("granny")


def test_error_classes_are_distinct(tmp_path):
    from hfgenus.errors import ParseError
    path = tmp_path / "corrupt.json"
    path.write_text("[[[")
    with pytest.raises(ParseError):
        load_json(path)
    # schema violations are not parse errors
    with pytest.raises(SchemaError) as info:
        descriptor_from_dict({"name": 3})
    assert not isinstance(info.value, ParseError)
