"""H-function engine: brute-force oracle, frozen worked values, validation."""

from fractions import Fraction
from itertools import chain, combinations, product
from math import prod
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgenus import hfunction
from hfgenus.bounds import admissible_region, genus_admissible
from hfgenus.cable import CableSpec, cable_alexander
from hfgenus.errors import SignResolutionError, StabilizationError, ValidationError
from hfgenus.hfunction import HTable, _broadcast, _chi_table, _grid
from hfgenus.laurent import LaurentPoly
from hfgenus.linkcat import LinkDescriptor, all_subsets, catalog, disjoint_union, sublink
from hfgenus.linkjson import descriptor_from_dict
from hfgenus.region import maximal_lattice_points, region_from_h
from test_cli import WORKLOADS

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


def scan_sum(coeffs, v):
    """The orthant sum of a sublink's table at v: a knot's when it has one axis."""
    return (scan_knot_sum if len(v) == 1 else scan_orthant_sum)(coeffs, v)


def coeff_radius(coeffs):
    """The largest |u_i| over the exponents of a table."""
    return max(map(abs, chain.from_iterable(coeffs)))


def unlink_H(s):
    return sum(max(-x, 0) for x in s)


def axis_radii(d):
    """M_i for each component i: two more than the largest |u_i| over the
    half-shifted exponents of the sublinks that contain i, read straight off
    the stored polynomials."""
    radii = [0] * d.n
    for B in nonempty_subsets(d.n):
        shift = 0 if len(B) == 1 else 1
        for exp in d.delta(B).terms:
            for i, e in zip(B, exp):
                radii[i] = max(radii[i], abs((e + shift) // 2))
    return [r + 2 for r in radii]


def axis_box(d):
    """The points of prod [-M_i, M_i], in the order of `itertools.product`."""
    return product(*(range(-m, m + 1) for m in axis_radii(d)))


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
    assert t.H((t.M - 2,) * d.n) == 0
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
            coeff = lambda v: sum(c for (w,), c in coeffs.items() if w >= v[0])
        else:
            coeffs = {tuple((e + 1) // 2 for e in exp): c
                      for exp, c in delta.terms.items()}
            coeff = lambda v: coeffs.get(v, 0)
        assert _chi_table(delta) == coeffs, B
        radii = [max(map(abs, axis)) + 1 for axis in zip(*coeffs)]
        box = product(*(range(-r, r + 1) for r in radii))
        assert _grid(coeffs, radii) == [scan_sum(coeffs, tuple(x + 1 for x in s))
                                        for s in box], B
        for j in range(len(B)):
            with pytest.raises(AssertionError):
                _grid(coeffs, radii[:j] + [radii[j] - 1] + radii[j + 1:])
        sides = []
        for i in range(len(B)):
            lo, hi = min(e[i] for e in coeffs), max(e[i] for e in coeffs)
            sides.append(list(range(lo - 3, hi + 4)) + [lo - 40, hi + 40])
        sign = t.sign_resolution[tuple(i + 1 for i in B)]
        for v in product(*sides):
            assert t.chi(B, v) == sign * coeff(v), (B, v)


def clamp(t, s):
    return tuple(max(-t.M, min(t.M, x)) for x in s)


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_h_stabilizes_beyond_the_box(name):
    # h(v) = h(clamp(v)), on the brute-force oracle: the laws validated on the
    # box hold everywhere, and H outside the box may be read by clamping
    d = ORACLE_LINKS[name]()
    t = HTable(d)
    M, n = t.M, t.n
    h = lambda s: brute_H(d, s) - unlink_H(s)
    sides = (-5 * M - 3, -M - 1, -M, 0, 1, M, M + 1, 5 * M + 3)
    for s in product(sides, repeat=n):
        assert h(s) == h(clamp(t, s)), f"{name} at {s}"
    for i in range(n):
        for x in (-7 * M, 7 * M):
            for rest in product(range(-2, 3), repeat=n - 1):
                s = rest[:i] + (x,) + rest[i:]
                assert h(s) == h(clamp(t, s)), f"{name} at {s}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_LINKS)), st.data())
def test_H_matches_brute_force_anywhere(name, data):
    d = ORACLE_LINKS[name]()
    t = HTable(d)
    far = 4 * t.M
    s = data.draw(st.tuples(*[st.integers(-far, far)] * t.n))
    assert t.H(s) == brute_H(d, s), f"{name} at {s}"


def bad_knot():
    # Delta(1) = 1 and symmetric, so the descriptor is valid, but h goes negative
    from hfgenus.linkcat import Component
    return LinkDescriptor("bad-knot", [Component("k")],
                          alexander={(0,): P(1, (-1, (1,)), (3, (0,)), (-1, (-1,)))},
                          lspace_asserted=False)


# Descriptors whose Alexander data fail validation, to be built with force=True.
INVALID_TABLES = {
    "-t + 3 - 1/t, forced": bad_knot,
    "-t + 3 - 1/t + whitehead, forced": lambda: disjoint_union(bad_knot(), catalog("whitehead")),
    "-t + 3 - 1/t + two_bridge:3, forced": lambda: disjoint_union(
        bad_knot(), catalog("two_bridge", 3)),
}


def law_problems(d):
    """The (1-based) subsets whose sign `HTable(d, force=True)` flips and the
    law problems it reports: none if the table builds, else those its
    StabilizationError carries."""
    try:
        t = HTable(d, force=True)
    except StabilizationError as exc:
        return exc.flipped, exc.problems
    return t.flipped_signs(), []


def bypass_law_checks(monkeypatch):
    """Let every HTable built from here on skip the laws, keeping every stored
    sign, so the lists of data failing validation can be read."""
    monkeypatch.setattr(hfunction, "_laws_hold", lambda *a: True)


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS) + sorted(INVALID_TABLES))
def test_h_stabilizes_at_the_box_boundary(name, monkeypatch):
    # Holds by construction for any data, so validation never checks it: H = 0
    # on the top corner block, H is constant across the top shells and equals
    # the component-deleted sublink's H there, and h is constant across the
    # bottom shells.  Data failing validation are read with the check bypassed.
    if name in INVALID_TABLES:
        bypass_law_checks(monkeypatch)
        t = HTable(INVALID_TABLES[name](), force=True)
    else:
        t = HTable(ORACLE_LINKS[name]())
    M, n = t.M, t.n
    for s in product((M - 1, M), repeat=n):
        assert t.H(s) == 0, f"{name} at {s}"
    for i in range(n):
        rest_idx = tuple(j for j in range(n) if j != i)
        sub = HTable(sublink(t.link, rest_idx), force=True) if n > 1 else None
        for rest in product(range(-M, M + 1), repeat=n - 1):
            at = lambda x: rest[:i] + (x,) + rest[i:]
            assert t.H(at(M)) == t.H(at(M - 1)), f"{name} at {at(M)}"
            assert t.H(at(M)) == (sub.H(rest) if sub else 0), f"{name} at {at(M)}"
            assert t.h(at(-M)) == t.h(at(-M + 1)), f"{name} at {at(-M)}"
    if name in INVALID_TABLES:
        monkeypatch.undo()
        _, report = law_problems(t.link)
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
    # require_valid refuses the parity before the chi conversion sees it, so
    # the error is require_valid's own, word for word
    from hfgenus.linkcat import Component, require_valid
    bad = LinkDescriptor("bad-parity", [Component("a"), Component("b")],
                         alexander={(0,): LaurentPoly.one(1),
                                    (1,): LaurentPoly.one(1),
                                    (0, 1): P(2, (1, (1, 1)), (1, (-1, -1)))},
                         lspace_asserted=True)
    with pytest.raises(ValidationError) as want:
        require_valid(bad)
    assert "parity" in str(want.value)
    with pytest.raises(ValidationError) as info:
        HTable(bad)
    assert str(info.value) == str(want.value)


def test_chi_rejects_wrong_dimension():
    t = HTable(catalog("whitehead"))
    for u in ((1, 1, 7), (1,), 1):
        with pytest.raises(ValueError, match="wrong dimension"):
            t.chi((0, 1), u)
    with pytest.raises(ValueError, match="wrong dimension"):
        t.chi((0,), (0, 0))


def test_chi_rejects_a_malformed_sublink():
    t = HTable(catalog("whitehead"))
    for B, u in (((0, 0), (1, 1)), ((5,), (0,)), ((-1,), (0,)), ((), ())):
        with pytest.raises(ValueError, match="sublink"):
            t.chi(B, u)


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
        assert law_problems(catalog(key)) == ([], [])
    assert law_problems(catalog("unlink", 3)) == ([], [])
    assert law_problems(catalog("whitehead_cable", 2, 7)) == ([], [])


def test_flipped_sign_fails_validation():
    # sign resolution picks every multi-variable sign, so the bad data are a knot's
    _, report = law_problems(disjoint_union(bad_knot(), catalog("unknot")))
    assert any("negative" in p for p in report)
    assert "H(0, 0) = -1 is negative" in report


def test_require_valid_keeps_every_problem():
    # the constructor raises with every problem, the message shows five
    with pytest.raises(StabilizationError) as info:
        HTable(INVALID_TABLES["-t + 3 - 1/t + two_bridge:3, forced"](), force=True)
    report = info.value.problems
    assert len(report) > 5
    assert str(info.value).endswith(": " + "; ".join(report[:5]))


@pytest.mark.parametrize("name", sorted(INVALID_TABLES))
def test_invalid_data_raise_at_construction(name):
    # with every problem of the point-by-point sweep and the message that
    # names the box [-M, M]^n, M two more than the largest support radius
    d = INVALID_TABLES[name]()
    with pytest.raises(StabilizationError) as info:
        HTable(d, force=True)
    tables, signs = reference_sign_resolution(d)
    problems = list(reference_law_problems(tables, tuple(range(d.n)), signs))
    M = max(map(coeff_radius, tables.values())) + 2
    assert info.value.problems == problems and info.value.flipped == []
    assert str(info.value) == (f"{d.name}: H-function fails validation on box "
                               f"[-{M}, {M}]^{d.n}: " + "; ".join(problems[:5]))


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
    good = HTable(catalog("whitehead"))
    for s in product(range(-2, 3), repeat=2):
        assert t.H(s) == good.H(s)


# Descriptors, to be built with force=True: the ones failing validation last.
REPORT_TABLES = {
    **ORACLE_LINKS,
    **INVALID_TABLES,
    "whitehead, stored sign flipped": flipped_whitehead,
}


def reference_sweep(H, radii):
    """The laws H >= 0 and unit steps checked point by point on
    prod [-r_i, r_i]: at each point the negative value first, else the
    failing steps e_1..e_k."""
    k = len(radii)
    for s in product(*(range(-r, r + 1) for r in radii)):
        v = H(s)
        if v < 0:
            yield f"H{s} = {v} is negative"
            continue
        for i in range(k):
            if s[i] > -radii[i]:
                down = H(s[:i] + (s[i] - 1,) + s[i + 1:])
                if down - v not in (0, 1):
                    yield f"step law fails: H at {s} minus e_{i + 1} jumps by {down - v}"


def reference_law_problems(tables, B, signs):
    """`reference_sweep` of the sublink B on its box, r two more than the
    largest support radius of its tables, each H value summed from support
    scans of the tables."""
    terms = []
    for size in range(1, len(B) + 1):
        for idx in combinations(range(len(B)), size):
            C = tuple(B[i] for i in idx)
            if C in tables:
                terms.append((1 if size % 2 else -1, C, idx))
    scans, memo = {}, {}

    def scan(C, v):
        if (C, v) not in scans:
            scans[C, v] = scan_sum(tables[C], v)
        return scans[C, v]

    def H(s):
        if s not in memo:
            v = tuple(x + 1 for x in s)
            memo[s] = sum(p * signs[C] * scan(C, tuple(v[i] for i in idx))
                          for p, C, idx in terms)
        return memo[s]

    r = max(coeff_radius(tables[C]) for _, C, _ in terms) + 2
    return reference_sweep(H, [r] * len(B))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(1,), (3,), (1, 1), (2, 2), (1, 3), (3, 1), (2, 1, 1), (1, 1, 2)]),
       st.data())
def test_array_laws_match_the_reference_sweep(radii, data):
    low, high = data.draw(st.sampled_from([(0, 1), (0, 2), (-1, 1), (-1, 3)]))
    values = st.integers(low, high)
    size = prod(2 * r + 1 for r in radii)
    grid = data.draw(st.lists(values, min_size=size, max_size=size))
    box = dict(zip(product(*(range(-r, r + 1) for r in radii)), grid))
    expected = list(reference_sweep(box.__getitem__, radii))
    assert hfunction._laws_hold(grid, [2 * r + 1 for r in radii]) == (expected == [])
    assert hfunction._law_messages(grid, radii) == expected


def reference_sign_resolution(d):
    """Orthant tables and signs chosen bottom up by the point-by-point sweep:
    the stored sign unless only its negation passes the laws."""
    tables, signs = {}, {}
    for B in all_subsets(d.n):
        signs[B] = 1
        if not d.delta(B).is_zero():
            tables[B] = _chi_table(d.delta(B))
        if len(B) > 1 and B in tables:
            for sigma in (1, -1):
                signs[B] = sigma
                if next(reference_law_problems(tables, B, signs), None) is None:
                    break
            else:
                raise SignResolutionError(
                    f"{d.name}: neither sign of the polynomial for subset "
                    f"{tuple(i + 1 for i in B)} yields a valid H-function; "
                    f"not an L-space link with this data")
    return tables, signs


@pytest.mark.parametrize("name", sorted(REPORT_TABLES))
def test_validation_report_matches_a_fresh_sweep(name):
    # the array check that validated the full link gives the same report as
    # the point-by-point sweep with the same signs
    d = REPORT_TABLES[name]()
    flipped, report = law_problems(d)
    tables = {B: _chi_table(d.delta(B)) for B in all_subsets(d.n) if not d.delta(B).is_zero()}
    signs = {B: -1 if tuple(i + 1 for i in B) in flipped else 1 for B in tables}
    assert report == list(reference_law_problems(tables, tuple(range(d.n)), signs))


# Inputs whose sign resolution flips a sign or fails, besides REPORT_TABLES.
RESOLUTION_LINKS = {
    "two_bridge:15, stored sign flipped": lambda: descriptor_from_dict(
        WORKLOADS.flipped_two_bridge(15)),
    **{f"two_bridge:10, corrupted at {exp}": lambda exp=exp: descriptor_from_dict(
        WORKLOADS.corrupted_two_bridge(10, exp)) for exp in WORKLOADS.CORRUPT_AT},
    "two_bridge:3 cabled by (3,7),(2,5)": lambda: cable_alexander(
        catalog("two_bridge", 3), CableSpec(((3, 7), (2, 5)))),
}


@pytest.mark.parametrize("name", sorted(REPORT_TABLES) + sorted(RESOLUTION_LINKS))
def test_sign_resolution_matches_the_reference_sweep(name):
    d = REPORT_TABLES[name]() if name in REPORT_TABLES else RESOLUTION_LINKS[name]()
    try:
        tables, signs = reference_sign_resolution(d)
    except SignResolutionError as exc:
        with pytest.raises(SignResolutionError) as info:
            HTable(d, force=True)
        assert str(info.value) == str(exc)
        return
    flipped, report = law_problems(d)
    assert flipped == [tuple(i + 1 for i in B) for B, s in sorted(signs.items()) if s == -1]
    assert report == list(reference_law_problems(tables, tuple(range(d.n)), signs))


def test_sign_resolution_messages():
    flipped = HTable(RESOLUTION_LINKS["two_bridge:15, stored sign flipped"]())
    assert flipped.flipped_signs() == [(1, 2)]
    with pytest.raises(SignResolutionError) as info:
        HTable(RESOLUTION_LINKS["two_bridge:3 cabled by (3,7),(2,5)"]())
    assert str(info.value) == (
        "two_bridge(3)_cable(3:7,2:5): neither sign of the polynomial for "
        "subset (1, 2) yields a valid H-function; not an L-space link with this data")


@pytest.mark.parametrize("name", sorted(REPORT_TABLES))
def test_a_swept_full_link_is_not_swept_again(name, monkeypatch):
    # one law check per sign tried, and one more only for a knot or a
    # disjoint union, which has no sign trial of its full link; the last
    # check is of the full link's list, which the table keeps
    d = REPORT_TABLES[name]()
    tables, signs = reference_sign_resolution(d)
    trials = sum(2 if signs[B] == -1 else 1 for B in tables if len(B) > 1)
    swept = d.n > 1 and tuple(range(d.n)) in tables
    calls = []
    real = hfunction._laws_hold
    monkeypatch.setattr(hfunction, "_laws_hold", lambda *a: calls.append(a) or real(*a))
    try:
        t = HTable(d, force=True)
    except StabilizationError:
        assert name in INVALID_TABLES
    else:
        assert calls[-1][0] is t._grid
    assert len(calls) == trials + (not swept)


@pytest.mark.parametrize("name", sorted(REPORT_TABLES))
def test_memo_holds_only_full_link_points(name, monkeypatch):
    if name in INVALID_TABLES:
        bypass_law_checks(monkeypatch)
    d = REPORT_TABLES[name]()
    t = HTable(d, force=True)
    for _ in range(2):
        assert len(t._grid) == prod(2 * m + 1 for m in axis_radii(d)), name
        t.H((t.M + 3,) * t.n)  # outside the box: read by clamping, not cached


def test_sign_resolution_of_a_union():
    d = disjoint_union(flipped_whitehead(), catalog("trefoil_rh"))
    t = HTable(d)
    # the sublinks' sign trials keep nothing
    assert len(t._grid) == prod(2 * m + 1 for m in axis_radii(d)) == 7 ** 3
    assert t.sign_resolution == {(1,): 1, (2,): 1, (3,): 1, (1, 2): -1,
                                 (1, 3): 1, (2, 3): 1, (1, 2, 3): 1}
    assert t.flipped_signs() == [(1, 2)]


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_grid_matches_lookups(name):
    t = HTable(ORACLE_LINKS[name]())
    for B, table in t._tables.items():
        least = [max(map(abs, axis)) + 1 for axis in zip(*table)]
        for extra in product(range(3), repeat=len(B)):
            radii = list(map(add, least, extra))
            box = product(*(range(-r, r + 1) for r in radii))
            assert _grid(table, radii) == [scan_sum(table, tuple(x + 1 for x in s))
                                           for s in box], (B, radii)
        with pytest.raises(AssertionError):
            _grid(table, [coeff_radius(table)] * len(B))


def test_broadcast_repeats_along_the_missing_axes():
    for sides in ([3], [3, 3], [3, 5], [5, 3, 7], [3, 3, 3]):
        k = len(sides)
        for present in product((True, False), repeat=k):
            axes = [j for j in range(k) if present[j]]
            own = [sides[j] for j in axes]
            grid = list(range(prod(own)))  # distinct values, row-major
            expected = [sum(s[j] * prod(own[i + 1:]) for i, j in enumerate(axes))
                        for s in product(*map(range, sides))]
            assert _broadcast(grid, sides, present) == expected, (sides, present)


@pytest.mark.parametrize("name", sorted(ORACLE_LINKS))
def test_full_link_list_is_brute_force(name):
    d = ORACLE_LINKS[name]()
    t = HTable(d)
    assert t._grid == [brute_H(d, s) for s in axis_box(d)]


def test_box_reads_make_no_orthant_lookups(monkeypatch):
    # after construction every H, inside the box or out, reads the full
    # link's list, and chi reads the stored coefficients
    tables = {name: HTable(make(), force=True) for name, make in REPORT_TABLES.items()
              if name not in INVALID_TABLES}
    calls = []
    monkeypatch.setattr(hfunction, "_grid", lambda *a: calls.append(a))
    for name, t in tables.items():
        far = t.M + 5
        for s in product((-far, 0, far), repeat=t.n):
            t.H(s)
        for B in t._tables:
            t.chi(B, (0,) * len(B))
        t.corners()
        region_from_h(t)
        maximal_lattice_points(t)
        genus_admissible(t, (0,) * t.n)
        admissible_region(t)
        assert calls == [], name


def test_lspace_assertion_gate():
    from hfgenus.errors import LSpaceAssertionError
    wh = catalog("whitehead")
    unasserted = LinkDescriptor("wh-unasserted", wh.components,
                                alexander=wh.alexander, lspace_asserted=False)
    with pytest.raises(LSpaceAssertionError):
        HTable(unasserted)
    assert HTable(unasserted, force=True).H((0, 0)) == 1
