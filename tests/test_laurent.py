"""Exact Laurent arithmetic: worked examples, ring laws and the knot chi
series Delta(t)/(1 - t^-1) against Laurent products."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgenus.cable import geometric_cable_factor, substitute_powers
from hfgenus.errors import SymmetryError, ValidationError
from hfgenus.hfunction import HTable
from hfgenus.laurent import LaurentPoly
from hfgenus.symmetry import involution, normalize_symmetric
from hfgenus.linkcat import Component, LinkDescriptor, catalog
from oracles import P, assert_refused, inclusion_exclusion, oracle_chi

H = Fraction(1, 2)


def test_mul_distributes_over_binomials():
    t1m1 = P(2, (1, (1, 0)), (-1, (0, 0)))
    t2m1 = P(2, (1, (0, 1)), (-1, (0, 0)))
    expected = P(2, (1, (1, 1)), (-1, (1, 0)), (-1, (0, 1)), (1, (0, 0)))
    assert t1m1 * t2m1 == expected


def test_additive_inverse_gives_zero():
    f = P(2, (3, (1, -1)), (-2, (H, H)))
    assert (f + (-f)).is_zero()


def test_whitehead_tilde_expansion():
    # expand the k=1 two-bridge polynomial by hand, then shift by (t1 t2)^(1/2)
    delta = P(2, (-1, (H, H)), (1, (H, -H)), (1, (-H, H)), (-1, (-H, -H)))
    tilde = delta.shift((1, 1))
    assert tilde == P(2, (-1, (1, 1)), (1, (1, 0)), (1, (0, 1)), (-1, (0, 0)))


def test_variable_count_mismatch_raises():
    with pytest.raises(ValueError):
        P(1, (1, (0,))) + P(2, (1, (0, 0)))


def test_substitute_powers_basic():
    f = P(1, (1, (1,)), (-1, (0,)), (1, (-1,)))
    assert substitute_powers(f, (2,)) == P(1, (1, (2,)), (-1, (0,)), (1, (-2,)))
    assert substitute_powers(LaurentPoly.one(3), (5, 1, 2)) == LaurentPoly.one(3)


def test_substitute_powers_whitehead_tilde():
    tilde = P(2, (-1, (1, 1)), (1, (1, 0)), (1, (0, 1)), (-1, (0, 0)))
    assert substitute_powers(tilde, (2, 3)) == P(
        2, (-1, (2, 3)), (1, (2, 0)), (1, (0, 3)), (-1, (0, 0)))


def test_geometric_cable_factor_values():
    assert geometric_cable_factor(1, 5) == LaurentPoly.one(1)
    assert geometric_cable_factor(2, 3) == P(1, (1, (Fraction(3, 2),)),
                                             (1, (Fraction(-3, 2),)))
    assert geometric_cable_factor(3, 2) == P(1, (1, (2,)), (1, (0,)), (1, (-2,)))


def test_geometric_cable_factor_rejects_bad_pairs():
    with pytest.raises(ValueError):
        geometric_cable_factor(2, 4)
    with pytest.raises(ValueError):
        geometric_cable_factor(0, 1)


def test_geometric_cable_factor_multiplies_back():
    # factor * (t^{q/2} - t^{-q/2}) == t^{pq/2} - t^{-pq/2}
    for p in range(1, 13):
        for q in range(1, 13):
            if gcd(p, q) != 1:
                continue
            den = P(1, (1, (Fraction(q, 2),)), (-1, (Fraction(-q, 2),)))
            num = P(1, (1, (Fraction(p * q, 2),)), (-1, (Fraction(-p * q, 2),)))
            assert geometric_cable_factor(p, q) * den == num


def test_involution_examples():
    f = P(1, (1, (1,)), (-1, (0,)), (1, (-1,)))
    assert involution(f) == f
    assert involution(P(2, (1, (1, 1)))) == P(2, (1, (-1, -1)))
    borromean = P(1, (1, (H,)), (-1, (-H,)))
    triple = LaurentPoly.one(3)
    for i in range(3):
        emb = LaurentPoly(3, {tuple(e if j == i else 0 for j in range(3)): c
                              for (e,), c in borromean.terms.items()})
        triple = triple * emb
    assert involution(triple) == -triple


def test_normalize_symmetric_recenter():
    f = P(1, (1, (H,)), (-1, (-H,)), (1, (Fraction(-3, 2),)))
    assert normalize_symmetric(f) == P(1, (1, (1,)), (-1, (0,)), (1, (-1,)))


def test_normalize_symmetric_fixed_point():
    f = P(1, (1, (1,)), (-1, (0,)), (1, (-1,)))
    assert normalize_symmetric(f) == f


def test_normalize_symmetric_rejects():
    with pytest.raises(SymmetryError):
        normalize_symmetric(P(1, (1, (2,)), (-1, (1,))))
    with pytest.raises(SymmetryError):
        normalize_symmetric(LaurentPoly.zero(1))


def test_coefficients_must_be_ints():
    with pytest.raises(TypeError):
        LaurentPoly(1, {(0,): 1.5})


# -- randomized ring laws ------------------------------------------------------


def polys(nvars):
    exps = st.tuples(*[st.integers(-6, 6)] * nvars)
    term = st.tuples(exps, st.integers(-9, 9))
    return st.lists(term, max_size=5).map(
        lambda ts: LaurentPoly(nvars, {e: c for e, c in ts if c}))


@settings(max_examples=150)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(polys(n), polys(n), polys(n))))
def test_ring_laws(fgh):
    f, g, h = fgh
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert f * (g + h) == f * g + f * h
    assert (f * g) * h == f * (g * h)


@settings(max_examples=100)
@given(st.integers(1, 3).flatmap(polys))
def test_involution_is_involution(f):
    assert involution(involution(f)) == f


def test_knot_chi_series_tail_sums():
    trefoil = P(1, (1, (1,)), (-1, (0,)), (1, (-1,)))
    t = HTable(catalog("trefoil_rh"))
    assert t.link.delta((0,)) == trefoil
    # independent oracle: multiply by a truncated geometric series and compare
    # coefficients where the truncation cannot reach
    K = 12
    geom = LaurentPoly(1, {(-2 * j,): 1 for j in range(K + 1)})
    truncated = trefoil * geom
    # chi at u is H(u - 1) - H(u), the torsion coefficient of the series
    chi = lambda u: inclusion_exclusion(t.H, (u,))
    for d in range(-8, 4):
        assert chi(d) == truncated.coeff((d,)) == oracle_chi(t.link, (0,), (d,))
    assert [chi(d) for d in (2, 1, 0, -1, -5)] == [0, 1, 0, 1, 1]


def test_knot_chi_series_unknot():
    t = HTable(catalog("unknot"))
    chi = lambda u: inclusion_exclusion(t.H, (u,))
    assert all(chi(d) == 1 == oracle_chi(t.link, (0,), (d,)) for d in range(-6, 1))
    assert all(chi(d) == 0 == oracle_chi(t.link, (0,), (d,)) for d in range(1, 5))
    # ray sums of the series from v on are H(v - 1): max(0, 1 - v) for the unknot
    assert [t.H((v - 1,)) for v in (-3, -1, 0, 1, 2)] == [4, 2, 1, 0, 0]


def test_knot_chi_series_rejects_half_exponents():
    # a knot exponent off the integers is refused by the descriptor's
    # constructor, so no table, and no chi conversion, ever sees it
    with pytest.raises(ValidationError) as info:
        LinkDescriptor("half-knot", [Component("k")],
                       alexander={(0,): P(1, (1, (H,)), (-1, (-H,)))})
    assert str(info.value) == ("half-knot: subset 1: knot polynomial value at t=1 is 0, "
                               "expected 1; subset 1: knot exponents must be integers; "
                               "subset 1: no symmetric unit multiple")


@settings(max_examples=100)
@given(polys(2))
def test_normalize_symmetric_is_idempotent(f):
    # f * involution(f) is symmetric with sign +1, the right class for 2 variables
    g = f * involution(f)
    if g.is_zero():
        return
    once = normalize_symmetric(g)
    assert normalize_symmetric(once) == once
    assert involution(once) == once


# (what is refused, the call, the exception type, its message)
REFUSALS = [
    ("an exponent off the half-integers", lambda: P(1, (1, (Fraction(1, 3),))),
     ValueError, "exponent 1/3 is not a half-integer"),
    ("an exponent of wrong arity", lambda: LaurentPoly(2, {(0,): 1}),
     ValueError, "exponent (0,) has wrong arity for nvars=2"),
    ("a doubled exponent not an int", lambda: LaurentPoly(1, {(0.5,): 1}),
     TypeError, "doubled exponents must be ints, got (0.5,)"),
    ("an operand not a polynomial", lambda: P(1, (1, (0,))) + 1,
     TypeError, "expected LaurentPoly, got int"),
]


@pytest.mark.parametrize("what, call, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals(what, call, error, message):
    assert_refused(call, error, message)
