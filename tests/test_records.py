"""The immutable value classes: repr, equality, hashing, immutability and
constructor validation."""

import copy
import pickle

import pytest

from hfgenus.cable import CableSpec
from hfgenus.laurent import LaurentPoly
from hfgenus.linkcat import CatalogEntry, Component, LinkDescriptor, catalog
from hfgenus.region import UpwardClosedRegion


def _entry_generator():
    return None


# repr text as the frozen dataclasses printed it.
REPRS = [
    (Component("K"), "Component(label='K')"),
    (Component("(2,3)-cable of unknot"), "Component(label='(2,3)-cable of unknot')"),
    (CatalogEntry("k", "n", len),
     "CatalogEntry(key='k', params='n', generator=<built-in function len>)"),
    (UpwardClosedRegion(2, ((1, 0), (0, 1), (2, 2))),
     "UpwardClosedRegion(n=2, generators=((0, 1), (1, 0)))"),
    (CableSpec(((2, 3), (1, 1))), "CableSpec(pairs=((2, 3), (1, 1)))"),
    (CableSpec([[2, 3], [1, 1]]), "CableSpec(pairs=((2, 3), (1, 1)))"),
]


@pytest.mark.parametrize("value, text", REPRS, ids=lambda x: type(x).__name__)
def test_repr_text(value, text):
    assert repr(value) == text


FIELDS = {Component: ("label",), CatalogEntry: ("key", "params", "generator"),
          UpwardClosedRegion: ("n", "generators"), CableSpec: ("pairs",),
          LaurentPoly: ("nvars", "terms")}

# (value, an equal value built separately, an unequal value)
TRIPLES = [
    (Component("K"), Component(label="K"), Component("L")),
    (CatalogEntry("k", "n", _entry_generator), CatalogEntry("k", "n", _entry_generator),
     CatalogEntry("k", "", _entry_generator)),
    (UpwardClosedRegion(2, ((0, 1), (1, 0))),
     UpwardClosedRegion(n=2, generators=((1, 0), (0, 1), (3, 3))),
     UpwardClosedRegion(2, ((0, 1),))),
    (CableSpec(((2, 3),)), CableSpec(pairs=[(2, 3)]), CableSpec(((2, 5),))),
]


@pytest.mark.parametrize("a, same, other", TRIPLES, ids=lambda x: type(x).__name__)
def test_equality_and_hash(a, same, other):
    assert a == same and not a != same
    assert hash(a) == hash(same)
    assert a != other and not a == other
    assert len({a, same, other}) == 2
    assert a != tuple(getattr(a, f) for f in FIELDS[type(a)])
    assert copy.copy(a) == a and pickle.loads(pickle.dumps(a)) == a


@pytest.mark.parametrize("a", [t[0] for t in TRIPLES] + [catalog("whitehead").delta((0, 1))],
                         ids=lambda x: type(x).__name__)
def test_immutable(a):
    for field in FIELDS[type(a)]:
        before = getattr(a, field)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(a, field, None)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(a, field)
        assert getattr(a, field) == before
    with pytest.raises(AttributeError):
        a.extra = 1


def test_laurent_poly_value_semantics():
    # a polynomial of a descriptor cannot lose its terms, so the descriptor
    # stays readable; it is printed by its text form, equal by its fields,
    # unhashable (its terms sit in a dict), and copies and pickles intact
    d = catalog("whitehead")
    p = d.alexander[(0, 1)]
    with pytest.raises(AttributeError):
        del p.terms
    assert d.delta((0, 1)) is p and p.terms
    assert repr(LaurentPoly(1, {(2,): 1, (0,): -1, (-2,): 1})) == "LaurentPoly(1, 't - 1 + t^-1')"
    same = LaurentPoly(2, dict(p.terms))
    assert p == same and not p != same
    assert p != -p and p != LaurentPoly(1, {}) and p != p.terms and LaurentPoly(1, {}) != 0
    with pytest.raises(TypeError):
        hash(p)
    for q in (copy.copy(p), copy.deepcopy(p), pickle.loads(pickle.dumps(p))):
        assert type(q) is LaurentPoly and q == p and q.terms == p.terms
    assert copy.deepcopy(d) == d and pickle.loads(pickle.dumps(d)) == d


def test_component_takes_a_label_only():
    # its genus is read off its knot polynomial (`knot_genus`), never stored
    assert Component("K").__slots__ == ("label",)
    with pytest.raises(TypeError):
        Component("K", 1)


@pytest.mark.parametrize("pairs, message", [
    (((0, 3),), "cable parameters must be positive, got (0, 3)"),
    (((2, -1),), "cable parameters must be positive, got (2, -1)"),
    (((2, 4),), "cable parameters must be coprime, got (2, 4)"),
    (((2.9, 7), (1, 1)), "cable parameters must be integers, got (2.9, 7)"),
    (((True, True),), "cable parameters must be integers, got (True, True)"),
    (((2, "7"),), "cable parameters must be integers, got (2, '7')"),
])
def test_cable_spec_rejects(pairs, message):
    with pytest.raises(ValueError) as info:
        CableSpec(pairs)
    assert str(info.value) == message


@pytest.mark.parametrize("n, gens, message", [
    (2, ((1,),), "generator dimension mismatch"),
    (1, ((-1,),), "generators must be nonnegative"),
])
def test_region_rejects(n, gens, message):
    with pytest.raises(ValueError) as info:
        UpwardClosedRegion(n, gens)
    assert str(info.value) == message


def test_link_descriptor_value_semantics():
    d = catalog("whitehead")
    reordered = LinkDescriptor(d.name, d.components, lspace_asserted=True,
                               alexander=dict(reversed(list(d.alexander.items()))))
    assert reordered == d and copy.copy(d) == d
    assert d != catalog("two_bridge", 2) and d != d.name
    with pytest.raises(TypeError):
        hash(d)
    with pytest.raises(AttributeError):
        d.name = "other"
    with pytest.raises(AttributeError):
        del d.alexander
    assert repr(d) == "<LinkDescriptor 'whitehead': 2 component(s)>"
