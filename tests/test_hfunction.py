"""H-function engine: brute-force oracle, frozen worked values, validation."""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgenus.cable import CableSpec, cable_alexander
from hfgenus.errors import StabilizationError, ValidationError
from hfgenus.hfunction import HTable, _chi_table, _OrthantSums
from hfgenus.laurent import LaurentPoly
from hfgenus.linkcat import (LinkDescriptor, catalog, disjoint_union, sublink)

H2 = Fraction(1, 2)


def P(nvars, *terms):
    return LaurentPoly.from_terms(nvars, terms)


def nonempty_subsets(n):
    out = []
    for mask in range(1, 2 ** n):
        out.append(tuple(i for i in range(n) if mask >> i & 1))
    return out


def brute_H(d, s):
    """Independent evaluation of the alternating sublink sum, straight from the
    stored polynomial dictionaries (no shared code path with HTable)."""
    total = 0
    for B in nonempty_subsets(d.n):
        delta = d.delta(B)
        if delta.is_zero():
            continue
        if len(B) == 1:
            coeffs = {e // 2: c for (e,), c in delta.terms.items()}
            v = s[B[0]] + 1
            top = max(coeffs)
            inner = 0
            for u in range(v, top + 1):
                inner += sum(c for w, c in coeffs.items() if w >= u)
        else:
            shifted = {tuple((e + 1) // 2 for e in exp): c
                       for exp, c in delta.terms.items()}
            v = tuple(s[i] + 1 for i in B)
            inner = sum(c for exp, c in shifted.items()
                        if all(x >= y for x, y in zip(exp, v)))
        total += inner if len(B) % 2 == 1 else -inner
    return total


def scan_orthant_sum(coeffs, v):
    """Sum of the coefficients over the upper orthant at v, by a support scan."""
    return sum(c for exp, c in coeffs.items() if all(e >= w for e, w in zip(exp, v)))


def scan_knot_sum(coeffs, v):
    """Sum of the torsion series Delta(t)/(1-t^-1) over degrees >= v, by a
    support scan of Delta's coefficients."""
    return sum(c * (w - v[0] + 1) for (w,), c in coeffs.items() if w >= v[0])


ATOMIC_SAMPLES = ["unknot", "trefoil_rh", "whitehead", "borromean", "mirror_L7a3"]

ORACLE_LINKS = {
    **{key: lambda key=key: catalog(key) for key in ATOMIC_SAMPLES},
    "two_bridge": lambda: catalog("two_bridge", 2),
    # sparse support, wide box
    "whitehead_cable:5,16": lambda: catalog("whitehead_cable", 5, 16),
    "borromean_cable:2,7,2,7,1,1": lambda: cable_alexander(
        catalog("borromean"), CableSpec(((2, 7), (2, 7), (1, 1)))),
    "whitehead+trefoil_rh": lambda: disjoint_union(
        catalog("whitehead"), catalog("trefoil_rh")),
    "mirror_L7a3+unknot+trefoil_rh": lambda: disjoint_union(
        catalog("mirror_L7a3"), catalog("unknot"), catalog("trefoil_rh")),
    "unlink:4": lambda: catalog("unlink", 4),
}


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_H_matches_brute_force(name):
    d = ORACLE_LINKS[name]()
    table = HTable(d)
    for s in table.iter_box():
        assert table.H(s) == brute_H(d, s), f"{name} at {s}"


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_H_outside_the_box(name):
    d = ORACLE_LINKS[name]()
    t = HTable(d)
    far = t.M + 9
    for s in product((-far, -t.M, 0, t.M, far), repeat=d.n):
        assert t.H(s) == brute_H(d, s), f"{name} at {s}"
    # above the support top every orthant sum is empty
    assert t.H((t.support_radius,) * d.n) == 0
    # far below, only the knot sublinks contribute, each with slope Delta(1) = 1
    low = (-far,) * d.n
    for i in range(d.n):
        assert t.H(low[:i] + (-far - 1,) + low[i + 1:]) == t.H(low) + 1


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_h_is_symmetric(name):
    # h(-s) = h(s) for zero-linking L-space links (Gorsky-Nemethi)
    t = HTable(ORACLE_LINKS[name]())
    for s in t.iter_box():
        assert t.h(tuple(-x for x in s)) == t.h(s), f"{name} at {s}"


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_orthant_tables_match_support_scan(name):
    d = ORACLE_LINKS[name]()
    t = HTable(d)
    for B in nonempty_subsets(d.n):
        delta = d.delta(B)
        if delta.is_zero():
            assert all(t.chi(B, u) == 0 for u in product(range(-2, 3), repeat=len(B)))
            continue
        if len(B) == 1:
            coeffs = {(e // 2,): c for (e,), c in delta.terms.items()}
            table, scan = _OrthantSums(coeffs, knot=True), scan_knot_sum
            coeff = lambda v: sum(c for (w,), c in coeffs.items() if w >= v[0])
        else:
            coeffs = {tuple((e + 1) // 2 for e in exp): c
                      for exp, c in delta.terms.items()}
            table, scan = _OrthantSums(coeffs), scan_orthant_sum
            coeff = lambda v: coeffs.get(v, 0)
        axes = range(len(B))
        sides = []
        for i in axes:
            lo, hi = min(e[i] for e in coeffs), max(e[i] for e in coeffs)
            sides.append(list(range(lo - 3, hi + 4)) + [lo - 40, hi + 40])
        sign = t.sign_resolution[tuple(i + 1 for i in B)]
        for v in product(*sides):
            assert table(v, axes) == scan(coeffs, v), (B, v)
            assert t.chi(B, v) == sign * coeff(v), (B, v)


def test_grown_box_matches_brute_force():
    # a box requested wider than the minimum: validated and exact throughout
    d = catalog("two_bridge", 3)
    M0 = HTable(d).M
    t = HTable(d, box=M0 + 6)
    assert t.M == M0 + 6
    assert t.validation_report() == []
    for s in t.iter_box():
        assert t.H(s) == brute_H(d, s), s


def clamp(t, s):
    return tuple(max(-t.M, min(t.M, x)) for x in s)


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_h_stabilizes_beyond_the_box(name):
    # h(v) = h(clamp(v)): the laws validated on the box hold everywhere
    t = HTable(ORACLE_LINKS[name]())
    M, n = t.M, t.n
    sides = (-5 * M - 3, -M - 1, -M, 0, 1, M, M + 1, 5 * M + 3)
    for s in product(sides, repeat=n):
        assert t.h(s) == t.h(clamp(t, s)), f"{name} at {s}"
    for i in range(n):
        for x in (-7 * M, 7 * M):
            for rest in product(range(-2, 3), repeat=n - 1):
                s = rest[:i] + (x,) + rest[i:]
                assert t.h(s) == t.h(clamp(t, s)), f"{name} at {s}"


def bad_knot():
    # Delta(1) = 1 and symmetric, so the descriptor is valid, but h goes negative
    from hfgenus.linkcat import Component
    return LinkDescriptor("bad-knot", [Component("k")],
                          alexander={(0,): P(1, (-1, (1,)), (3, (0,)), (-1, (-1,)))},
                          lspace_asserted=False)


# Tables whose Alexander data fail validation.
INVALID_TABLES = {
    "whitehead, sign overridden": lambda: HTable(
        catalog("whitehead"), sign_overrides={(0, 1): -1}),
    "two_bridge:3, sign overridden": lambda: HTable(
        catalog("two_bridge", 3), sign_overrides={(0, 1): -1}),
    "-t + 3 - 1/t, forced": lambda: HTable(bad_knot(), force=True),
}


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS) + sorted(INVALID_TABLES))
def test_h_stabilizes_at_the_box_boundary(name):
    # Holds by construction for any data, so validation never checks it: H = 0
    # on the top corner block, H is constant across the top shells and equals
    # the component-deleted sublink's H there, and h is constant across the
    # bottom shells.
    t = INVALID_TABLES[name]() if name in INVALID_TABLES else HTable(ORACLE_LINKS[name]())
    M, n = t.M, t.n
    for s in product((M - 1, M), repeat=n):
        assert t.H(s) == 0, f"{name} at {s}"
    for i in range(n):
        rest_idx = tuple(j for j in range(n) if j != i)
        sub = HTable(sublink(t.link, rest_idx)) if n > 1 else None
        for rest in product(range(-M, M + 1), repeat=n - 1):
            at = lambda x: rest[:i] + (x,) + rest[i:]
            assert t.H(at(M)) == t.H(at(M - 1)), f"{name} at {at(M)}"
            assert t.H(at(M)) == (sub.H(rest) if sub else 0), f"{name} at {at(M)}"
            assert t.h(at(-M)) == t.h(at(-M + 1)), f"{name} at {at(-M)}"
    if name in INVALID_TABLES:
        report = t.validation_report()
        assert report and all("negative" in p or "step law" in p for p in report)


def test_chi_whitehead():
    t = HTable(catalog("whitehead"))
    assert [t.chi((0, 1), u) for u in ((1, 1), (1, 0), (0, 1), (0, 0))] == [-1, 1, 1, -1]
    assert all(t.chi((0, 1), u) == 0 for u in product(range(-3, 4), repeat=2)
               if not all(x in (0, 1) for x in u))


def test_chi_borromean():
    t = HTable(catalog("borromean"))
    t1m1 = P(3, (1, (1, 0, 0)), (-1, (0, 0, 0)))
    t2m1 = P(3, (1, (0, 1, 0)), (-1, (0, 0, 0)))
    t3m1 = P(3, (1, (0, 0, 1)), (-1, (0, 0, 0)))
    expected = t1m1 * t2m1 * t3m1
    for u in product(range(-2, 3), repeat=3):
        assert t.chi((0, 1, 2), u) == expected.coeff(u), u


def test_chi_rejects_bad_parity():
    from hfgenus.linkcat import Component
    bad = LinkDescriptor("bad-parity", [Component("a"), Component("b")],
                         alexander={(0,): LaurentPoly.one(1),
                                    (1,): LaurentPoly.one(1),
                                    (0, 1): P(2, (1, (1, 1)), (1, (-1, -1)))},
                         lspace_asserted=True)
    with pytest.raises(ValidationError, match="parity"):
        HTable(bad)
    # the chi conversion checks the parity itself, whatever validated the input
    with pytest.raises(ValidationError, match="parity"):
        _chi_table(bad.delta((0, 1)))


def test_chi_rejects_wrong_dimension():
    t = HTable(catalog("whitehead"))
    for u in ((1, 1, 7), (1,), 1):
        with pytest.raises(ValueError, match="wrong dimension"):
            t.chi((0, 1), u)
    with pytest.raises(ValueError, match="wrong dimension"):
        t.chi((0,), (0, 0))


def test_chi_reads_u_in_the_order_of_B():
    t = HTable(catalog("mirror_L7a3"))  # not symmetric under swapping components
    pts = [u for u in product(range(-3, 4), repeat=2) if t.chi((0, 1), u) != 0]
    assert any(t.chi((0, 1), u) != t.chi((0, 1), u[::-1]) for u in pts)
    for u in product(range(-3, 4), repeat=2):
        assert t.chi((1, 0), u[::-1]) == t.chi((0, 1), u), u
    bor = HTable(catalog("borromean"))
    for u in product(range(-2, 3), repeat=3):
        assert bor.chi((2, 0, 1), (u[2], u[0], u[1])) == bor.chi((0, 1, 2), u), u


def test_chi_examples():
    tref = HTable(catalog("trefoil_rh"))
    assert [tref.chi((0,), u) for u in (1, 0, -1)] == [1, 0, 1]
    assert HTable(catalog("borromean")).chi((0, 1), (0, 0)) == 0


def test_whitehead_frozen_values():
    t = HTable(catalog("whitehead"))
    assert t.H((0, 0)) == 1
    assert t.H((1, 0)) == 0
    assert t.H((-1, 0)) == 1 and t.h((-1, 0)) == 0
    assert t.H((-1, -1)) == 2 and t.h((-1, -1)) == 0
    assert {s for s in t.iter_box() if t.h(s) != 0} == {(0, 0)}


def test_borromean_frozen_values():
    t = HTable(catalog("borromean"))
    assert t.h((0, 0, 0)) == 1
    for s in product(range(0, 3), repeat=3):
        if s != (0, 0, 0):
            assert t.h(s) == 0, s


def test_mirror_l7a3_frozen_values():
    t = HTable(catalog("mirror_L7a3"))
    assert t.h((1, 1)) == 0
    assert t.h((0, 1)) == 1
    assert t.h((1, 0)) == 1
    assert t.H((0, -1)) == 2 and t.h((0, -1)) == 1
    # the first-coordinate axis never vanishes: deleting the unknot leaves the
    # trefoil, whose h at 0 is 1
    assert all(t.h((s1, 0)) == 1 for s1 in range(0, t.M))


def test_unknot_is_H_O():
    t = HTable(catalog("unknot"))
    for s in range(-4, 5):
        assert t.H((s,)) == max(0, -s)


def test_two_bridge_family_corner_values():
    for k in range(1, 6):
        t = HTable(catalog("two_bridge", k))
        assert t.h((k, 0)) == 0
        assert t.h((k - 1, 0)) == 1
        assert t.h((0, k)) == 0


def test_h_examples():
    assert HTable(catalog("whitehead")).h((-1, 0)) == 0
    u2 = HTable(catalog("unlink", 2))
    assert all(u2.h(s) == 0 for s in product(range(-3, 4), repeat=2))


def test_chi_from_H_roundtrip():
    for key in ATOMIC_SAMPLES:
        d = catalog(key)
        t = HTable(d)
        full = tuple(range(d.n))
        for s in product(range(-t.M + 1, t.M), repeat=d.n):
            assert t.chi_from_H(s) == t.chi(full, s), (key, s)
    assert HTable(catalog("whitehead")).chi_from_H((1, 1)) == -1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_LINKS)), st.data())
def test_chi_from_H_roundtrip_inside_and_outside_the_box(name, data):
    d = ORACLE_LINKS[name]()
    t = HTable(d)
    reach = t.M + 5
    s = data.draw(st.tuples(*[st.integers(-reach, reach)] * d.n), label="s")
    assert t.chi_from_H(s) == t.chi(tuple(range(d.n)), s)


def test_chi_from_H_vanishes_on_split_links():
    t = HTable(catalog("unlink", 2))
    for s in product(range(-2, 3), repeat=2):
        assert t.chi_from_H(s) == 0
    tm = HTable(disjoint_union(catalog("trefoil_rh"), catalog("unknot")))
    for s in product(range(-3, 4), repeat=2):
        assert tm.chi_from_H(s) == 0


def test_trefoil_chi_from_H():
    t = HTable(catalog("trefoil_rh"))
    assert t.chi_from_H((0,)) == t.H((-1,)) - t.H((0,)) == 0
    for s in range(-3, 4):
        assert t.chi_from_H((s,)) == t.chi((0,), s)


def test_forgetful_limit_matches_sublink():
    for key in ["whitehead", "mirror_L7a3", "borromean"]:
        d = catalog(key)
        t = HTable(d)
        M = t.M
        for i in range(d.n):
            rest_idx = tuple(j for j in range(d.n) if j != i)
            sub = HTable(sublink(d, rest_idx))
            for rest in product(range(-2, 3), repeat=d.n - 1):
                s = rest[:i] + (M,) + rest[i:]
                assert t.H(s) == sub.H(rest), (key, i, rest)


def test_h_nonnegative_and_equals_H_on_nonneg():
    for name, make in ORACLE_LINKS.items():
        t = HTable(make())
        for s in t.iter_box():
            assert t.h(s) >= 0, f"{name} at {s}"
            if all(x >= 0 for x in s):
                assert t.h(s) == t.H(s), f"{name} at {s}"


def away_from_zero(t, s):
    """The box neighbours of s one step farther from 0 in one coordinate."""
    for i, x in enumerate(s):
        for step in ((-1, 1) if x == 0 else (1 if x > 0 else -1,)):
            if abs(x + step) <= t.M:
                yield s[:i] + (x + step,) + s[i + 1:]


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_h_nonincreasing_away_from_zero(name):
    t = HTable(ORACLE_LINKS[name]())
    for s in t.iter_box():
        for u in away_from_zero(t, s):
            assert t.h(u) <= t.h(s), f"{name}: h{u} > h{s}"


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_max_h_is_h_at_the_origin(name):
    t = HTable(ORACLE_LINKS[name]())
    assert max(t.h(s) for s in t.iter_box()) == t.h((0,) * t.n)


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_h_at_most_h_of_absolute_value(name):
    # Observed on every oracle link, but not validated by HTable: no code
    # relies on it yet (a sweep of [0, M]^n alone would need it).
    t = HTable(ORACLE_LINKS[name]())
    for s in t.iter_box():
        assert t.h(s) <= t.h(tuple(map(abs, s))), f"{name} at {s}"


def test_disjoint_union_additivity():
    a, b = catalog("whitehead"), catalog("trefoil_rh")
    u = HTable(disjoint_union(a, b))
    ta, tb = HTable(a), HTable(b)
    for sa in product(range(-2, 3), repeat=2):
        for sb in range(-2, 3):
            assert u.H(sa + (sb,)) == ta.H(sa) + tb.H((sb,))


UNION_PARTS = {
    "unknot": lambda: catalog("unknot"),
    "trefoil_rh": lambda: catalog("trefoil_rh"),
    "whitehead": lambda: catalog("whitehead"),
    "mirror_L7a3": lambda: catalog("mirror_L7a3"),
    "two_bridge:2": lambda: catalog("two_bridge", 2),
}


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(sorted(UNION_PARTS)), min_size=2, max_size=3),
       st.data())
def test_union_H_is_brute_force_and_additive(keys, data):
    parts = [UNION_PARTS[key]() for key in keys]
    u = disjoint_union(*parts)
    t = HTable(u)
    reach = t.M + 4  # inside the box and beyond it on every side
    s = data.draw(st.tuples(*[st.integers(-reach, reach)] * u.n), label="s")
    assert t.H(s) == brute_H(u, s)
    total, start = 0, 0
    for d in parts:
        total += HTable(d).H(s[start:start + d.n])
        start += d.n
    assert t.H(s) == total


def test_trefoil_union_unknot_value():
    u = disjoint_union(catalog("trefoil_rh"), catalog("unknot"))
    assert HTable(u).H((0, 0)) == 1


def test_validation_report_passes_on_catalog():
    for key in ATOMIC_SAMPLES:
        assert HTable(catalog(key)).validation_report() == []
    assert HTable(catalog("unlink", 3)).validation_report() == []
    assert HTable(catalog("whitehead_cable", 2, 7)).validation_report() == []


def test_flipped_sign_fails_validation():
    wh = catalog("whitehead")
    bad = HTable(wh, sign_overrides={(0, 1): -1})
    report = bad.validation_report()
    assert any("negative" in p for p in report)
    assert bad.H((0, 0)) == -1


def test_require_valid_keeps_every_problem():
    bad = HTable(catalog("two_bridge", 3), sign_overrides={(0, 1): -1})
    report = bad.validation_report()
    assert len(report) > 5
    with pytest.raises(StabilizationError) as info:
        bad.require_valid()
    assert info.value.problems == report
    assert str(info.value).endswith(": " + "; ".join(report[:5]))


def flipped_whitehead():
    wh = catalog("whitehead")
    return LinkDescriptor("whitehead-flipped", wh.components,
                          alexander={(0,): wh.delta((0,)),
                                     (1,): wh.delta((1,)),
                                     (0, 1): -wh.delta((0, 1))},
                          lspace_asserted=True)


def test_sign_resolution_recovers_flipped_input():
    t = HTable(flipped_whitehead())
    assert t.flipped_signs() == [(1, 2)]
    assert t.validation_report() == []
    good = HTable(catalog("whitehead"))
    for s in product(range(-2, 3), repeat=2):
        assert t.H(s) == good.H(s)


def test_sign_resolution_of_a_union():
    t = HTable(disjoint_union(flipped_whitehead(), catalog("trefoil_rh")))
    assert t.sign_resolution == {(1,): 1, (2,): 1, (3,): 1, (1, 2): -1,
                                 (1, 3): 1, (2, 3): 1, (1, 2, 3): 1}
    assert t.flipped_signs() == [(1, 2)]
    assert t.validation_report() == []


def test_lspace_assertion_gate():
    from hfgenus.errors import LSpaceAssertionError
    wh = catalog("whitehead")
    unasserted = LinkDescriptor("wh-unasserted", wh.components,
                                alexander=wh.alexander, lspace_asserted=False)
    with pytest.raises(LSpaceAssertionError):
        HTable(unasserted)
    assert HTable(unasserted, force=True).H((0, 0)) == 1


def test_box_override_floor():
    from hfgenus.errors import StabilizationError
    with pytest.raises(StabilizationError):
        HTable(catalog("two_bridge", 2), box=2)
    assert HTable(catalog("two_bridge", 2), box=9).M == 9
