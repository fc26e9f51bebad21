"""Link descriptors: catalog, validation, sublinks, unions, JSON persistence."""

import copy
import json
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgenus.catalog_two_bridge import two_bridge_poly
from hfgenus.errors import (LSpaceAssertionError, SchemaError, SymmetryError,
                            ValidationError)
from hfgenus.hfunction import HTable
from hfgenus.jsonwriter import descriptor_to_dict
from hfgenus.laurent import LaurentPoly, symmetry_sign
from hfgenus.linkcat import (Component, LinkDescriptor, _key_str, _problems, all_subsets,
                             catalog, catalog_list, knot_genus)
from hfgenus.linkops import disjoint_union, sublink
from hfgenus.linkjson import descriptor_from_dict, load_json, save_json
from hfgenus.symmetry import involution, normalize_symmetric
from oracles import P, assert_refused

H = Fraction(1, 2)


CATALOG_SAMPLES = [
    catalog("unknot"), catalog("trefoil_rh"), catalog("whitehead"),
    catalog("two_bridge", 2), catalog("two_bridge", 3), catalog("borromean"),
    catalog("mirror_L7a3"), catalog("unlink", 2), catalog("unlink", 3),
    catalog("whitehead_cable", 2, 7), catalog("two_bridge_cable", 1, 2, 7, 1, 1),
]


@pytest.mark.parametrize("d", CATALOG_SAMPLES, ids=lambda d: d.name)
def test_catalog_entries_validate(d):
    assert _problems(d.n, d.alexander) == []


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
    assert [knot_genus(d.delta((i,))) for i in range(2)] == [0, 1]


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
    assert _problems(sub.n, sub.alexander) == []


def test_sublink_composes():
    d = catalog("borromean")
    assert sublink(sublink(d, (0, 2)), (1,)).delta((0,)) == \
        sublink(d, (2,)).delta((0,))


def test_negative_component_indices_are_refused():
    # Python indexing would wrap -1 to the last component, and a descriptor
    # holding such a key would save a file that loading refuses
    # with the text of LinkDescriptor.delta
    with pytest.raises(ValueError) as info:
        sublink(catalog("mirror_L7a3"), (-1,))
    assert str(info.value) == "subset (-1,) out of range for 2 components"
    wh = catalog("whitehead")
    with pytest.raises(ValueError) as info:
        LinkDescriptor("bad", wh.components,
                       alexander={(-1,): LaurentPoly.one(1), **wh.alexander})
    assert str(info.value) == "subset (-1,) out of range for 2 components"


def test_a_subset_given_twice_is_refused():
    # (0, 1) and (1, 0) name one subset: the later polynomial used to replace
    # the earlier one without a word
    wh = catalog("whitehead")
    p = wh.alexander[(0, 1)]
    with pytest.raises(ValueError, match=r"subset \(0, 1\) is given twice"):
        LinkDescriptor("twice", wh.components,
                       alexander={(0,): LaurentPoly.one(1), (1,): LaurentPoly.one(1),
                                  (0, 1): p, (1, 0): -p})


def test_delta_refuses_an_out_of_range_subset():
    # with the constructor's text: a built descriptor holds every subset in range
    wh = catalog("whitehead")
    with pytest.raises(ValueError) as info:
        wh.delta((5,))
    assert str(info.value) == "subset (5,) out of range for 2 components"
    with pytest.raises(ValueError) as info:
        LinkDescriptor("bad", wh.components, alexander={**wh.alexander, (5,): LaurentPoly.one(1)})
    assert str(info.value) == "subset (5,) out of range for 2 components"


def test_each_descriptor_is_checked_once(monkeypatch):
    # a descriptor renamed after it was built is not checked again: the
    # component counts of the checks are those of the parts, the union or
    # the link and its cable
    from hfgenus import linkcat
    union = union_document(catalog("whitehead"), catalog("trefoil_rh"))
    calls = []
    real = linkcat._problems
    monkeypatch.setattr(linkcat, "_problems", lambda n, alex: calls.append(n) or real(n, alex))
    for make, checks in [(lambda: catalog("unlink", 3), [1, 1, 1, 3]),
                         (lambda: catalog("whitehead_cable", 7, 22), [2, 2]),
                         (lambda: catalog("two_bridge_cable", 2, 3, 7, 1, 1), [2, 2]),
                         (lambda: descriptor_from_dict(union), [2, 1, 3])]:
        calls.clear()
        d = make()
        assert calls == checks, d.name
        assert real(d.n, d.alexander) == []


def test_disjoint_union_counts_and_flattens():
    a = disjoint_union(catalog("unknot"), catalog("unknot"))
    assert a.n == 2
    b = disjoint_union(a, catalog("trefoil_rh"))
    assert b.n == 3 and b.name == "unknot + unknot + trefoil_rh"
    assert b == disjoint_union(catalog("unknot"), catalog("unknot"), catalog("trefoil_rh"))
    wh2 = disjoint_union(catalog("whitehead"), catalog("whitehead"))
    assert wh2.n == 4
    assert _problems(wh2.n, wh2.alexander) == []
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


def test_a_repeated_index_in_a_subset_is_refused():
    # (0, 0) names no subset of distinct components; it must not read as (0,)
    wh = catalog("whitehead")
    with pytest.raises(ValueError, match=r"component subset \(0, 0\) repeats an index"):
        sublink(wh, (0, 0))
    with pytest.raises(ValueError, match=r"component subset \(0, 0\) repeats an index"):
        wh.delta((0, 0))
    with pytest.raises(ValueError, match=r"component subset \(0, 0\) repeats an index"):
        LinkDescriptor("k", [Component("a")], alexander={(0, 0): LaurentPoly.one(1)})


def test_validate_reports_nonzero_linking():
    # a descriptor keeps no linking matrix; a file's nonzero entry is refused
    data = descriptor_to_dict(catalog("unlink", 2))
    data["name"], data["linking"] = "bad", [[0, 1], [1, 0]]
    with pytest.raises(SchemaError) as info:
        descriptor_from_dict(data)
    assert str(info.value) == ("bad: nonzero linking number at (1,2); "
                               "nonzero linking number at (2,1)")


def test_nonzero_linking_is_reported_alone():
    # the linking is checked before the polynomials, so a file breaking both
    # reports only the linking
    data = descriptor_to_dict(catalog("whitehead"))
    data["linking"] = [[0, 2], [2, 0]]
    del data["alexander"]["1"]
    with pytest.raises(SchemaError) as info:
        descriptor_from_dict(data)
    assert str(info.value) == ("whitehead: nonzero linking number at (1,2); "
                               "nonzero linking number at (2,1)")


def test_validate_reports_missing_subset():
    with pytest.raises(ValidationError) as info:
        LinkDescriptor("bad", [Component("a"), Component("b")],
                       alexander={(0,): LaurentPoly.one(1),
                                  (0, 1): LaurentPoly.zero(2)})
    assert str(info.value) == "bad: incomplete sublink data: subset 2 missing"


def test_validate_reports_asymmetric_polynomial():
    with pytest.raises(ValidationError) as info:
        LinkDescriptor("bad", [Component("a")],
                       alexander={(0,): P(1, (1, (2,)), (-1, (1,)))})
    assert str(info.value) == ("bad: subset 1: knot polynomial value at t=1 is 0, "
                               "expected 1; subset 1: no symmetric unit multiple")


def test_validate_reports_wrong_knot_normalization():
    with pytest.raises(ValidationError) as info:
        LinkDescriptor("bad", [Component("a")],
                       alexander={(0,): P(1, (1, (1,)), (1, (-1,)))})
    assert str(info.value) == ("bad: subset 1: knot polynomial value at t=1 is 2, "
                               "expected 1; subset 1: no symmetric unit multiple")


def reference_problems(n, alexander):
    """The check as it was before it read the stored terms first: every
    nonzero polynomial goes through `normalize_symmetric` and `involution`."""
    problems = []
    for B in all_subsets(n):
        if B not in alexander:
            problems.append(f"incomplete sublink data: subset {_key_str(B)} missing")
            continue
        poly = alexander[B]
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
def stored_data(draw):
    n = draw(st.integers(1, 3))
    return n, {B: draw(stored_polys(len(B))) for B in all_subsets(n)}


@settings(max_examples=300, deadline=None)
@given(stored_data())
def test_validate_descriptor_matches_the_per_polynomial_path(data):
    # the constructor raises exactly when the reference finds a problem, with
    # every problem in its message
    n, alexander = data
    problems = reference_problems(n, alexander)
    assert _problems(n, alexander) == problems
    components = [Component(str(i)) for i in range(n)]
    if problems:
        with pytest.raises(ValidationError) as info:
            LinkDescriptor("random", components, alexander=alexander)
        assert str(info.value) == "random: " + "; ".join(problems)
    else:
        assert LinkDescriptor("random", components, alexander=alexander).alexander == alexander


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


@pytest.mark.parametrize("d", CATALOG_SAMPLES, ids=lambda d: d.name)
def test_json_g4_is_written_derived_and_read_as_null_or_that_genus(d):
    # "g4" is optional and checked against the data: the writer emits deg
    # Delta of each knot, and null or that value loads the same descriptor
    data = descriptor_to_dict(d)
    assert [c["g4"] for c in data["components"]] == [knot_genus(d.delta((i,)))
                                                     for i in range(d.n)]
    assert descriptor_from_dict(data) == d
    for c in data["components"]:
        c["g4"] = None
    assert descriptor_from_dict(data) == d


def test_json_g4_contradicting_the_knot_polynomial_is_refused():
    # whatever the file asserts: a genus that deg Delta contradicts is
    # inconsistent data, refused naming the 1-based component and both numbers
    for lspace in (True, False):
        data = descriptor_to_dict(catalog("mirror_L7a3"))
        data["components"][1]["g4"], data["lspace"] = 2, lspace
        with pytest.raises(ValidationError) as info:
            descriptor_from_dict(data)
        assert type(info.value) is ValidationError
        assert str(info.value) == ("mirror_L7a3: component 2 has 'g4' 2, but its knot "
                                   "polynomial has genus 1")
    # a union's top level and each part are checked alike
    data = union_document(catalog("whitehead"), catalog("trefoil_rh"))
    data["components"][2]["g4"] = 0
    with pytest.raises(ValidationError) as info:
        descriptor_from_dict(data)
    assert str(info.value) == ("my union: component 3 has 'g4' 0, but its knot polynomial "
                               "has genus 1")
    data = union_document(catalog("whitehead"), catalog("trefoil_rh"))
    data["structure"]["disjoint_union"][1]["components"][0]["g4"] = 3
    with pytest.raises(ValidationError) as info:
        descriptor_from_dict(data)
    assert str(info.value) == ("trefoil_rh: component 1 has 'g4' 3, but its knot "
                               "polynomial has genus 1")


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
    # the top level is checked for zeros on its own, not against the parts
    data = union_document(*parts)
    data["linking"][0][2] = data["linking"][2][0] = 1
    with pytest.raises(SchemaError) as info:
        descriptor_from_dict(data)
    assert str(info.value) == ("my union: nonzero linking number at (1,3); "
                               "nonzero linking number at (3,1)")


def test_json_union_reports_a_bad_part_under_its_own_name():
    # each part is a descriptor: its problems carry its name and its numbering
    data = union_document(catalog("whitehead"), catalog("trefoil_rh"))
    part = data["structure"]["disjoint_union"][1]
    part["name"] = "badknot"
    part["alexander"]["1"][0]["coef"] = 3
    with pytest.raises(ValidationError) as info:
        descriptor_from_dict(data)
    assert str(info.value).startswith("badknot: subset 1: ")
    part["alexander"]["1"][0]["coef"] = 1
    part["linking"] = [[1]]
    with pytest.raises(SchemaError) as info:
        descriptor_from_dict(data)
    assert str(info.value) == "badknot: nonzero linking number at (1,1)"


def test_json_union_of_one_part():
    wh = catalog("whitehead")
    d = descriptor_from_dict(union_document(wh))
    assert d.name == "my union" and d.alexander == wh.alexander
    assert _problems(d.n, d.alexander) == []


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
    # a 4-genus is a nonnegative JSON integer or null; JSON booleans load as
    # bool, a subclass of int, and none passes as an integer
    for g4 in (-1, 1.5, True):
        data = descriptor_to_dict(catalog("unknot"))
        data["components"][0]["g4"] = g4
        with pytest.raises(SchemaError) as info:
            descriptor_from_dict(data)
        assert str(info.value) == "component 'g4' must be a nonnegative integer or null"
    for g4 in (0, None):
        data = descriptor_to_dict(catalog("unknot"))
        data["components"][0]["g4"] = g4
        assert descriptor_from_dict(data) == catalog("unknot")
    data = descriptor_to_dict(catalog("unknot"))
    data["alexander"]["1"][0]["coef"] = True
    with pytest.raises(SchemaError, match="coefficient"):
        descriptor_from_dict(data)
    data = descriptor_to_dict(catalog("whitehead"))
    data["linking"][0][1] = False
    with pytest.raises(SchemaError, match="linking"):
        descriptor_from_dict(data)
    # a label is a string as it stands, never coerced
    for label in (None, {"a": 1}, 7):
        data = descriptor_to_dict(catalog("unknot"))
        data["components"][0]["label"] = label
        with pytest.raises(SchemaError, match="component 'label' must be a string"):
            descriptor_from_dict(data)
    # a union whose parts are not a list
    for parts in (5, None):
        data = descriptor_to_dict(catalog("unlink", 2))
        data["alexander"], data["structure"] = {}, {"disjoint_union": parts}
        with pytest.raises(SchemaError, match="must be a list"):
            descriptor_from_dict(data)


def test_json_subset_key_given_twice_is_refused(tmp_path):
    # "1,2" and "2,1" are distinct JSON keys naming one subset
    data = descriptor_to_dict(catalog("whitehead"))
    data["alexander"]["2,1"] = [{"exp": [e for e in reversed(t["exp"])], "coef": -t["coef"]}
                                for t in data["alexander"]["1,2"]]
    path = tmp_path / "twice.json"
    path.write_text(json.dumps(data))
    with pytest.raises(SchemaError, match="'2,1' repeats subset 1,2"):
        load_json(path)


def test_catalog_list_contains_known_keys():
    keys = {e.key for e in catalog_list()}
    assert {"unknot", "whitehead", "borromean", "mirror_L7a3",
            "two_bridge", "whitehead_cable"} <= keys


def test_catalog_checks_the_parameter_count():
    for args, message in [
            (("whitehead_cable", 2), "catalog key 'whitehead_cable' takes the parameters p,q, "
                                     "got 1"),
            (("whitehead", 3), "catalog key 'whitehead' takes no parameters, got 1"),
            (("two_bridge",), "catalog key 'two_bridge' takes the parameters k, got 0")]:
        with pytest.raises(ValueError) as info:
            catalog(*args)
        assert str(info.value) == message


def test_catalog_rejects_unknown_key():
    with pytest.raises(ValueError) as info:
        catalog("granny")
    assert str(info.value) == (
        "unknown catalog key 'granny'; known: borromean, mirror_L7a3, trefoil_rh, "
        "two_bridge, two_bridge_cable, unknot, unlink, whitehead, whitehead_cable")


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


def _whitehead_json(change):
    """A thunk reading the JSON form of whitehead with one change made to it."""
    data = descriptor_to_dict(catalog("whitehead"))
    change(data)
    return lambda: descriptor_from_dict(data)


# (what is refused, the call, the exception type, its message)
REFUSALS = [
    ("bad subset key", _whitehead_json(lambda d: d["alexander"].update({"1,x": []})),
     SchemaError, "bad subset key '1,x'"),
    ("subset key out of range", _whitehead_json(lambda d: d["alexander"].update({"3": []})),
     SchemaError, "subset key '3' out of range for 2 components"),
    ("exponent not a string", _whitehead_json(lambda d: d["alexander"]["1"][0].update(exp=[0])),
     SchemaError, "exponent must be a string, got 0"),
    ("bad half exponent", _whitehead_json(lambda d: d["alexander"]["1"][0].update(exp=["a/2"])),
     SchemaError, "bad exponent 'a/2'"),
    ("bad exponent", _whitehead_json(lambda d: d["alexander"]["1"][0].update(exp=["x"])),
     SchemaError, "bad exponent 'x'"),
    ("terms not a list", _whitehead_json(lambda d: d["alexander"].update({"1": {}})),
     SchemaError, "alexander['1']: expected a list of terms"),
    ("term with another key", _whitehead_json(lambda d: d["alexander"]["1"][0].update(x=1)),
     SchemaError, "alexander['1']: each term needs exactly 'exp' and 'coef'"),
    ("exponent of wrong arity",
     _whitehead_json(lambda d: d["alexander"]["1,2"][0].update(exp=["1/2"])),
     SchemaError, "alexander['1,2']: exponent vector must have 2 entries"),
    ("document not an object", lambda: descriptor_from_dict([]),
     SchemaError, "descriptor must be a JSON object"),
    ("name not a string", _whitehead_json(lambda d: d.update(name=3)),
     SchemaError, "'name' must be a string"),
    ("no components", _whitehead_json(lambda d: d.update(components=[])),
     SchemaError, "'components' must be a nonempty list"),
    ("component without a label", _whitehead_json(lambda d: d["components"][0].pop("label")),
     SchemaError, "each component needs a 'label'"),
    ("lspace not a boolean", _whitehead_json(lambda d: d.update(lspace=1)),
     SchemaError, "'lspace' must be a boolean"),
    ("alexander not an object", _whitehead_json(lambda d: d.update(alexander=[])),
     SchemaError, "'alexander' must be an object"),
    ("union with top-level alexander",
     _whitehead_json(lambda d: d.update(structure={"disjoint_union": []})),
     SchemaError, "disjoint unions must not carry top-level 'alexander' data"),
    ("bad structure", _whitehead_json(lambda d: d.update(structure="union")),
     SchemaError, "'structure' must be \"atomic\" or {\"disjoint_union\": [...]}"),
    ("empty subset", lambda: catalog("whitehead").delta(()),
     ValueError, "component subset must be nonempty"),
    ("no component", lambda: LinkDescriptor("none", []),
     ValueError, "a link needs at least one component"),
    ("polynomial of wrong arity",
     lambda: LinkDescriptor("k", [Component("k")], alexander={(0,): P(2, (1, (0, 0)))}),
     ValueError, "polynomial for subset (0,) has wrong arity"),
    ("empty disjoint union", lambda: disjoint_union(),
     ValueError, "a disjoint union needs at least one link"),
    ("unlink:0", lambda: catalog("unlink", 0), ValueError, "unlink needs at least one component"),
    ("two_bridge:0", lambda: catalog("two_bridge", 0),
     ValueError, "two_bridge parameter must be a positive integer"),
]


@pytest.mark.parametrize("what, call, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals(what, call, error, message):
    assert_refused(call, error, message)
