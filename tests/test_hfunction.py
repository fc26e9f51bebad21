"""H-function engine: brute-force oracle, frozen worked values, validation."""

import random
from itertools import permutations, product
from math import prod
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hfgenus import hfunction, violations
from hfgenus.bounds import admissible_region, genus_admissible
from hfgenus.errors import (LSpaceAssertionError, SignResolutionError, StabilizationError,
                            ValidationError)
from hfgenus.hfunction import HTable, _chi_table
from hfgenus.laurent import LaurentPoly
from hfgenus.linkcat import (CATALOG, Component, LinkDescriptor, all_subsets,
                             catalog, knot_genus)
from hfgenus.linkops import disjoint_union, sublink
from hfgenus.region import maximal_lattice_points, projection_check, region_from_h
from oracles import (ADMISSIBLE, ATOMIC, CATALOG_PARAMS, INVALID, ORACLE, PARTS, REPORT,
                     RESOLUTION, SLOW_RESOLUTION, P, assert_refused, axis_radii, bad_knot,
                     benchmark_cables, box, brute_H, brute_h, cube, face, flipped,
                     flipped_whitehead, formula_H, inclusion_exclusion, link,
                     linked_pairs_borromean, oracle_chi, oracle_h, oracle_table,
                     reference_corners, reference_law_problems, reference_maximal_points,
                     reference_region, reference_report, reference_shell_holds,
                     reference_sign_resolution, reference_signs, reference_sweep, raw_draw,
                     raw_triple_draw, torres_breaking, torres_holds, two_bridge_h, unlink_H)


@pytest.mark.parametrize("name", ORACLE)
def test_H_matches_brute_force(name):
    d = link(name)
    table = HTable(d)
    for s in cube(table.M, d.n):
        assert table.H(s) == brute_H(d, s), f"{name} at {s}"


@pytest.mark.parametrize("name", ORACLE)
def test_H_outside_the_box(name):
    d = link(name)
    t = HTable(d)
    far = t.M + 9
    for s in product((-far, -t.M, 0, t.M, far), repeat=d.n):
        assert t.H(s) == formula_H(d, s), f"{name} at {s}"
    # above the support top every orthant sum is empty
    assert t.H((t.M - 2,) * d.n) == 0
    # far below, only the knot sublinks contribute, each with slope Delta(1) = 1
    low = (-far,) * d.n
    for i in range(d.n):
        assert t.H(low[:i] + (-far - 1,) + low[i + 1:]) == t.H(low) + 1


@pytest.mark.parametrize("name", ORACLE)
def test_h_is_symmetric(name):
    # h(-s) = h(s) for zero-linking L-space links (Gorsky-Nemethi), a theorem
    # of the shell law (see the hfunction docstring)
    t = HTable(link(name))
    for s in cube(t.M, t.n):
        assert t.h(tuple(-x for x in s)) == t.h(s), f"{name} at {s}"


def test_h_is_symmetric_on_raw_draws():
    # seeded draws of raw two-component data: the laws reject about nine in
    # ten, and every table that builds has h(-s) = h(s) on its cube
    rng, built = random.Random(8), 0
    for k in range(3000):
        d = raw_draw(rng, k)
        try:
            t = HTable(d)
        except ValidationError:
            continue
        built += 1
        for s in cube(t.M, 2):
            assert t.h((-s[0], -s[1])) == t.h(s), f"{d.name} at {s}"
    assert built >= 300


def test_corners_read_both_signs_of_every_coordinate_on_raw_draws():
    # h(-s) = h(s) is a theorem, but h(v) <= h(|v|) is not: some draws
    # passing the laws have h(v) > h(|v|), so the fold must read the rows
    # at s_i = a and at s_i = -a, and the corners match the per-point
    # reference on every draw that builds
    rng, asymmetric = random.Random(8), 0
    for k in range(600):
        d = raw_draw(rng, k)
        try:
            t = HTable(d)
        except ValidationError:
            continue
        h = brute_h(d, reference_sign_resolution(d))
        asymmetric += any(h(s) > h((abs(s[0]), abs(s[1]))) for s in cube(t.M, 2))
        assert t.corners() == reference_corners(h, axis_radii(d)), d.name
    assert asymmetric >= 5


def test_raw_draws_read_h_and_the_staircases_off_the_list():
    # on seeded raw draws of two components, some with h(v) > h(|v|), and
    # of three, every table that builds reads h off its list through the
    # clamp, past the box too, and its staircases, as h summed point by
    # point with the reference signs gives them
    built = {}
    for seed, draw, count in ((8, raw_draw, 600), (12, raw_triple_draw, 400)):
        rng, built[seed] = random.Random(seed), 0
        for k in range(count):
            d = draw(rng, k)
            try:
                t = HTable(d)
            except ValidationError:
                continue
            built[seed] += 1
            h, radii = brute_h(d, reference_sign_resolution(d)), axis_radii(d)
            assert t.staircases() == (reference_region(h, radii),
                                      reference_maximal_points(h, radii)), d.name
            assert all(t.h(s) == h(s) for s in cube(t.M + 1, t.n)), d.name
    assert built[8] >= 50 and built[12] >= 20, built


def genus_on_the_face(t, i):
    """min{s >= 0 : h(s) = 0} on component i's face of t's list, s_j = M_j
    for j != i (read at t.M, the same point through the clamp)."""
    return next(s for s in range(t.M + 1)
                if t.h(tuple(s if j == i else t.M for j in range(t.n))) == 0)


def test_each_component_genus_is_where_h_vanishes_on_its_face():
    # a theorem: the face is the component's own h, and an L-space knot's h
    # vanishes exactly from its genus, deg Delta, on; checked on every
    # catalog key, every cable the benchmark builds but the one it rejects,
    # and every raw draw that builds
    assert set(CATALOG_PARAMS) == set(CATALOG)
    cables = benchmark_cables()
    assert len(cables) == 7
    tables = [HTable(catalog(key, *p)) for key, params in CATALOG_PARAMS.items() for p in params]
    tables += [HTable(d) for d in cables if d.name != "two_bridge(3)_cable(3:7,2:5)"]
    built = {}
    for seed, draw, count in ((8, raw_draw, 600), (12, raw_triple_draw, 400)):
        rng, built[seed] = random.Random(seed), 0
        for k in range(count):
            try:
                tables.append(HTable(draw(rng, k)))
            except ValidationError:
                continue
            built[seed] += 1
    assert built[8] >= 50 and built[12] >= 20, built
    for t in tables:
        for i in range(t.n):
            assert knot_genus(t.link.delta((i,))) == genus_on_the_face(t, i), (t.link.name, i)


@pytest.mark.parametrize("name", ORACLE)
def test_orthant_tables_match_support_scan(name):
    # chi of every sublink, by inclusion-exclusion of the table's H on the
    # sublink's face, is its coefficient signed as the table resolved it
    d = link(name)
    t = HTable(d)
    for B in all_subsets(d.n):
        delta, H_B = d.delta(B), face(t.H, d.n, B, t.M)
        if delta.is_zero():
            assert all(inclusion_exclusion(H_B, u) == 0 == oracle_chi(d, B, u)
                       for u in product(range(-2, 3), repeat=len(B)))
            continue
        if len(B) == 1:
            coeffs = {(e // 2,): c for (e,), c in delta.terms.items()}
            coeff = lambda v: sum(c for (w,), c in coeffs.items() if w >= v[0])
        else:
            coeffs = {tuple((e + 1) // 2 for e in exp): c
                      for exp, c in delta.terms.items()}
            coeff = lambda v: coeffs.get(v, 0)
        sides = []
        for i in range(len(B)):
            lo, hi = min(e[i] for e in coeffs), max(e[i] for e in coeffs)
            sides.append(list(range(lo - 3, hi + 4)) + [lo - 40, hi + 40])
        sign = t.sign_resolution[tuple(i + 1 for i in B)]
        for v in product(*sides):
            assert inclusion_exclusion(H_B, v) == oracle_chi(d, B, v) == sign * coeff(v), (B, v)


@pytest.mark.parametrize("name", ORACLE)
def test_h_stabilizes_beyond_the_box(name):
    # h(v) = h(clamp(v)) on the formula, clamp taking each coordinate into
    # [-M_i, M_i]: the laws validated on the box hold everywhere, and H
    # outside the box may be read by clamping, as brute_H and HTable.H do
    d = link(name)
    M, n = max(axis_radii(d)), d.n
    h = brute_h(d)
    sides = (-5 * M - 3, -M - 1, -M, 0, 1, M, M + 1, 5 * M + 3)
    for s in product(sides, repeat=n):
        assert formula_H(d, s) - unlink_H(s) == h(s), f"{name} at {s}"
    for i in range(n):
        for x in (-7 * M, 7 * M):
            for rest in product(range(-2, 3), repeat=n - 1):
                s = rest[:i] + (x,) + rest[i:]
                assert formula_H(d, s) - unlink_H(s) == h(s), f"{name} at {s}"


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE), st.data())
def test_H_matches_brute_force_anywhere(name, data):
    d = link(name)
    t = HTable(d)
    far = 4 * t.M
    s = data.draw(st.tuples(*[st.integers(-far, far)] * t.n))
    assert t.H(s) == formula_H(d, s), f"{name} at {s}"


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
    """Let every HTable built from here on skip the laws, finding no failing
    step and no Torres breaker and keeping every stored sign, so the lists of
    data failing validation can be read."""
    monkeypatch.setattr(hfunction, "_failing_steps", lambda *a: [])
    monkeypatch.setattr(hfunction, "_breaks_torres", lambda *a: False)


@pytest.mark.parametrize("name", ORACLE + INVALID)
def test_h_stabilizes_at_the_box_boundary(name, monkeypatch):
    # Holds by construction for any data, so validation never checks it: H = 0
    # on the top corner block, H is constant across the top shells and equals
    # the component-deleted sublink's H there, and h is constant across the
    # bottom shells.  Data failing validation are read with the check bypassed.
    if name in INVALID:
        bypass_law_checks(monkeypatch)
    t = HTable(link(name), force=True)
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
    if name in INVALID:
        monkeypatch.undo()
        _, report = law_problems(t.link)
        assert report and all("negative" in p or "step law" in p for p in report)


def test_chi_whitehead():
    t = HTable(catalog("whitehead"))
    chi = lambda u: inclusion_exclusion(t.H, u)
    assert [chi(u) for u in ((1, 1), (1, 0), (0, 1), (0, 0))] == [-1, 1, 1, -1]
    assert all(chi(u) == 0 for u in product(range(-3, 4), repeat=2)
               if not all(x in (0, 1) for x in u))


def test_chi_borromean():
    t = HTable(catalog("borromean"))
    t1m1 = P(3, (1, (1, 0, 0)), (-1, (0, 0, 0)))
    t2m1 = P(3, (1, (0, 1, 0)), (-1, (0, 0, 0)))
    t3m1 = P(3, (1, (0, 0, 1)), (-1, (0, 0, 0)))
    expected = t1m1 * t2m1 * t3m1
    for u in product(range(-2, 3), repeat=3):
        assert inclusion_exclusion(t.H, u) == expected.coeff(u), u


def test_chi_rejects_bad_parity():
    # the descriptor's constructor refuses the parity, so no table, and no
    # chi conversion, ever sees it
    with pytest.raises(ValidationError) as info:
        LinkDescriptor("bad-parity", [Component("a"), Component("b")],
                       alexander={(0,): LaurentPoly.one(1),
                                  (1,): LaurentPoly.one(1),
                                  (0, 1): P(2, (1, (1, 1)), (1, (-1, -1)))},
                       lspace_asserted=True)
    assert str(info.value) == ("bad-parity: subset 1,2: exponents must be half-odd "
                               "(zero linking parity)")


def test_chi_examples():
    tref = HTable(catalog("trefoil_rh"))
    assert [inclusion_exclusion(tref.H, (u,)) for u in (1, 0, -1)] == [1, 0, 1]
    bor = HTable(catalog("borromean"))
    assert inclusion_exclusion(face(bor.H, 3, (0, 1), bor.M), (0, 0)) == 0


def test_whitehead_frozen_values():
    t = HTable(catalog("whitehead"))
    assert t.H((0, 0)) == 1
    assert t.H((1, 0)) == 0
    assert t.H((-1, 0)) == 1 and t.h((-1, 0)) == 0
    assert t.H((-1, -1)) == 2 and t.h((-1, -1)) == 0
    assert {s for s in cube(t.M, 2) if t.h(s) != 0} == {(0, 0)}


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
    # inclusion-exclusion of the table's H gives back the polynomial's chi
    for key in ATOMIC:
        d = link(key)
        t = HTable(d)
        full = tuple(range(d.n))
        for s in product(range(-t.M + 1, t.M), repeat=d.n):
            assert inclusion_exclusion(t.H, s) == oracle_chi(d, full, s), (key, s)
    assert inclusion_exclusion(HTable(catalog("whitehead")).H, (1, 1)) == -1


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(ORACLE), st.data())
def test_chi_from_H_roundtrip_inside_and_outside_the_box(name, data):
    d = link(name)
    t = HTable(d)
    reach = t.M + 5
    s = data.draw(st.tuples(*[st.integers(-reach, reach)] * d.n), label="s")
    assert inclusion_exclusion(t.H, s) == oracle_chi(d, tuple(range(d.n)), s)


def test_chi_from_H_vanishes_on_split_links():
    d = catalog("unlink", 2)
    t = HTable(d)
    for s in product(range(-2, 3), repeat=2):
        assert inclusion_exclusion(t.H, s) == 0 == oracle_chi(d, (0, 1), s)
    dm = disjoint_union(catalog("trefoil_rh"), catalog("unknot"))
    tm = HTable(dm)
    for s in product(range(-3, 4), repeat=2):
        assert inclusion_exclusion(tm.H, s) == 0 == oracle_chi(dm, (0, 1), s)


def test_trefoil_chi_from_H():
    d = catalog("trefoil_rh")
    t = HTable(d)
    assert inclusion_exclusion(t.H, (0,)) == t.H((-1,)) - t.H((0,)) == 0
    for s in range(-3, 4):
        assert inclusion_exclusion(t.H, (s,)) == oracle_chi(d, (0,), (s,))


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
    for name in ORACLE:
        t = HTable(link(name))
        for s in cube(t.M, t.n):
            assert t.h(s) >= 0, f"{name} at {s}"
            if all(x >= 0 for x in s):
                assert t.h(s) == t.H(s), f"{name} at {s}"


def away_from_zero(t, s):
    """The box neighbours of s one step farther from 0 in one coordinate."""
    for i, x in enumerate(s):
        for step in ((-1, 1) if x == 0 else (1 if x > 0 else -1,)):
            if abs(x + step) <= t.M:
                yield s[:i] + (x + step,) + s[i + 1:]


@pytest.mark.parametrize("name", ORACLE)
def test_h_nonincreasing_away_from_zero(name):
    t = HTable(link(name))
    for s in cube(t.M, t.n):
        for u in away_from_zero(t, s):
            assert t.h(u) <= t.h(s), f"{name}: h{u} > h{s}"


@pytest.mark.parametrize("name", ORACLE)
def test_max_h_is_h_at_the_origin(name):
    t = HTable(link(name))
    assert max(map(t.h, cube(t.M, t.n))) == t.h((0,) * t.n)


VALID = sorted(set(ORACLE + ADMISSIBLE + REPORT) - set(INVALID))


def assert_nonnegative_with_zero_corners(d, h):
    """h >= 0 on the per-axis box and h = 0 at every corner of {-M, M}^n,
    M the largest radius: (C) and (D) of the hfunction docstring."""
    radii = axis_radii(d)
    M = max(radii)
    assert min(map(h, box(radii))) >= 0, d.name
    assert all(h(v) == 0 for v in product((-M, M), repeat=d.n)), d.name


@pytest.mark.parametrize("name", VALID)
def test_h_is_nonnegative_with_zero_cube_corners(name):
    # theorems of the step law, checked on the data alone, with the
    # reference signs: the stored sign of one input is flipped
    d = link(name)
    assert_nonnegative_with_zero_corners(d, brute_h(d, reference_sign_resolution(d)))


def test_the_corner_theorem_needs_no_torres():
    # the triple breaks Torres's condition, so the shell law rejects it, but
    # with its sign flipped it passes the step law, and h is still >= 0 with
    # zero corners, though not symmetric
    d = torres_breaking()
    signs = {(0, 1, 2): -1}
    radii = axis_radii(d)
    H = lambda s: brute_H(d, s, signs)
    assert next(reference_sweep(H, radii), None) is None
    assert not reference_shell_holds(H, radii)
    h = brute_h(d, signs)
    assert_nonnegative_with_zero_corners(d, h)
    assert (h((-4, -4, 0)), h((4, 4, 0))) == (2, 1)
    assert sum(h(s) != h(tuple(-x for x in s)) for s in cube(max(radii), 3)) == 168


def test_the_laws_do_not_check_H_nonnegative():
    # a valid table's class list, lowered by a constant: every step is kept,
    # so no step fails, though every h is negative, and so is H at 0
    t = HTable(catalog("borromean"))
    [grid] = t._grids
    low = [x - max(grid) - 1 for x in grid]
    assert hfunction._failing_steps(low, t._box, [0] * t.n) == []
    assert hfunction._failing_steps(grid, t._box, [0] * t.n) == []


@pytest.mark.parametrize("name", ORACLE)
def test_h_at_most_h_of_absolute_value(name):
    # Observed on every oracle link, but not validated by HTable: no code
    # relies on it yet (a sweep of [0, M]^n alone would need it).
    t = HTable(link(name))
    for s in cube(t.M, t.n):
        assert t.h(s) <= t.h(tuple(map(abs, s))), f"{name} at {s}"


def test_disjoint_union_additivity():
    a, b = catalog("whitehead"), catalog("trefoil_rh")
    u = HTable(disjoint_union(a, b))
    ta, tb = HTable(a), HTable(b)
    for sa in product(range(-2, 3), repeat=2):
        for sb in range(-2, 3):
            assert u.H(sa + (sb,)) == ta.H(sa) + tb.H((sb,))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.sampled_from(PARTS), min_size=2, max_size=3), st.data())
def test_union_H_is_brute_force_and_additive(keys, data):
    parts = [link(key) for key in keys]
    u = disjoint_union(*parts)
    t = HTable(u)
    reach = t.M + 4  # inside the box and beyond it on every side
    s = data.draw(st.tuples(*[st.integers(-reach, reach)] * u.n), label="s")
    assert t.H(s) == formula_H(u, s)
    total, start = 0, 0
    for d in parts:
        total += HTable(d).H(s[start:start + d.n])
        start += d.n
    assert t.H(s) == total


def test_trefoil_union_unknot_value():
    u = disjoint_union(catalog("trefoil_rh"), catalog("unknot"))
    assert HTable(u).H((0, 0)) == 1


def test_validation_report_passes_on_catalog():
    for key in ATOMIC:
        assert law_problems(link(key)) == ([], [])
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
        HTable(link("-t + 3 - 1/t + two_bridge:3, forced"), force=True)
    report = info.value.problems
    assert len(report) > 5
    assert str(info.value).endswith(": " + "; ".join(report[:5]))


def failure_message(d, problems):
    """The StabilizationError message of d: its box prod [-M_i, M_i], one
    interval per axis, and its first five problems."""
    return (f"{d.name}: H-function fails validation on box "
            + " x ".join(f"[-{m}, {m}]" for m in axis_radii(d)) + ": "
            + "; ".join(problems[:5]))


@pytest.mark.parametrize("name", INVALID)
def test_invalid_data_raise_at_construction(name):
    # with every problem of the point-by-point sweep of the box and the
    # message that names it, M_i two more than axis i's largest support radius
    d = link(name)
    with pytest.raises(StabilizationError) as info:
        HTable(d, force=True)
    problems = reference_report(d, reference_sign_resolution(d))
    assert info.value.problems == problems and info.value.flipped == []
    assert str(info.value) == failure_message(d, problems)


def test_the_report_names_the_box_and_each_problem_once():
    # t^2 - 2t + 3 - 2/t + 1/t^2, asserted an L-space knot, with an unknot:
    # the box [-4, 4] x [-2, 2] is narrower than the cube [-4, 4]^2, whose
    # problems off the box are clamp copies of the box's, with the same law,
    # axis and jump; so the report lists the box's alone, the knot's two
    # failing steps along e_1 at each s_2 of [-2, 2]
    knot = LinkDescriptor("wide", [Component("k")], lspace_asserted=True, alexander={
        (0,): P(1, (1, (2,)), (-2, (1,)), (3, (0,)), (-2, (-1,)), (1, (-2,)))})
    d = disjoint_union(knot, catalog("unknot"))
    with pytest.raises(StabilizationError) as info:
        HTable(d)
    steps = [f"step law fails: H at ({x}, {y}) minus e_1 jumps by {jump}"
             for x, jump in ((0, 2), (1, -1)) for y in range(-2, 3)]
    assert info.value.problems == steps == reference_report(d, reference_sign_resolution(d))
    assert str(info.value) == failure_message(d, steps)
    assert str(info.value).startswith("wide + unknot: H-function fails validation on box "
                                      "[-4, 4] x [-2, 2]: ")


def test_the_report_reads_no_point(monkeypatch):
    # the report walks the box list itself: the only points read through
    # `HTable.h` are the two of the sign rule for the pair (2, 3)
    d = link("-t + 3 - 1/t + two_bridge:3, forced")
    a = max(_chi_table(d.delta((1, 2))))
    reads = []
    real_h = HTable.h
    monkeypatch.setattr(HTable, "h", lambda t, s: reads.append(tuple(s)) or real_h(t, s))
    with pytest.raises(StabilizationError):
        HTable(d, force=True)
    assert reads == [(3, a[0] - 1, a[1] - 1), (3, a[0], a[1] - 1)]


def test_sign_resolution_recovers_flipped_input():
    t = HTable(flipped_whitehead())
    assert t.flipped_signs() == [(1, 2)]
    good = HTable(catalog("whitehead"))
    for s in product(range(-2, 3), repeat=2):
        assert t.H(s) == good.H(s)


def lawful_grid(radii, data):
    """A flat list over the box keeping the laws, H(s) = c + sum f_i(s_i),
    each f_i falling by r_i in unit steps from -r_i to r_i, c drawn, and then
    one value moved by -1, 0 or 1."""
    axes = []
    for r in radii:
        steps = data.draw(st.permutations([0] * r + [1] * r))
        axes.append([sum(steps[k:]) for k in range(2 * r + 1)])
    grid = [sum(f) for f in product(*axes)]
    c, at, move = data.draw(st.tuples(st.integers(-2, 1), st.integers(0, len(grid) - 1),
                                      st.integers(-1, 1)))
    grid = [x + c for x in grid]
    grid[at] += move
    return grid


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([(1,), (3,), (1, 1), (2, 2), (1, 3), (3, 1), (2, 1, 1), (1, 1, 2)]),
       st.data())
def test_array_laws_match_the_reference_sweep(radii, data):
    # on arbitrary lists H >= 0 is no theorem, and `_failing_steps` checks
    # the steps only: the reference is the sweep's step problems, read on the
    # list lifted to be nonnegative; the list is H, `_failing_steps` reads
    # h = H - H_O, and the report that `violations.refuse` makes of its
    # failures, for a table with no sublink to blame, is the sweep's
    if data.draw(st.booleans()):
        grid = lawful_grid(radii, data)
    else:
        low, high = data.draw(st.sampled_from([(0, 1), (0, 2), (-1, 1), (-1, 3)]))
        size = prod(2 * r + 1 for r in radii)
        grid = data.draw(st.lists(st.integers(low, high), min_size=size, max_size=size))
    at = dict(zip(box(radii), grid))
    expected = list(reference_sweep(at.__getitem__, radii))
    lifted = lambda s: at[s] - min(grid)
    h = [x - unlink_H(s) for s, x in zip(box(radii), grid)]
    steps = hfunction._failing_steps(h, radii, radii)
    assert (steps == []) == (next(reference_sweep(lifted, radii), None) is None)
    t = SimpleNamespace(_box=list(radii), _tables={}, link=SimpleNamespace(name="list"),
                        flipped_signs=list)
    with pytest.raises(StabilizationError) as info:
        violations.refuse(t, h, steps, [])
    assert info.value.problems == expected
    # the same kernel on the list's part at s >= 0, as a class list holds it,
    # where every step leads away from 0: it lists each step of that part
    # whose drop h(w) - h(w + e_i) is not 0 or 1
    half = list(product(*(range(r + 1) for r in radii)))
    drops = [at[w] - at[w[:i] + (x + 1,) + w[i + 1:]]
             for w in half for i, x in enumerate(w) if x < radii[i]]
    part = hfunction._failing_steps([at[w] for w in half], radii, [0] * len(radii))
    assert len(part) == sum(d not in (0, 1) for d in drops)
    # the kernels on the same lists, against their definitions point by
    # point, on the list lifted to be nonnegative, as every list they read
    # is (D in the hfunction docstring): `_drops` of the largest h over each
    # |s|, the elementwise largest of the orthants' lists that `corners`
    # reads
    top = {}
    for s in box(radii):
        w = tuple(map(abs, s))
        top[w] = max(top.get(w, 0), lifted(s))
    assert hfunction._drops([top[w] for w in half], [r + 1 for r in radii]) == [
        top[w] > 0 and all(top[w[:i] + (x + 1,) + w[i + 1:]] < top[w]
                           for i, x in enumerate(w) if x < radii[i]) for w in half]


@pytest.mark.parametrize("name", sorted(REPORT))
def test_validation_report_matches_a_fresh_sweep(name):
    # the array check that validated the full link gives the same report as
    # the point-by-point sweep with the same signs
    d = link(name)
    flipped, report = law_problems(d)
    signs = {B: -1 if tuple(i + 1 for i in B) in flipped else 1 for B in all_subsets(d.n)}
    assert report == reference_report(d, signs)


@pytest.mark.parametrize("name", sorted(REPORT) + sorted(RESOLUTION))
def test_sign_resolution_matches_the_reference_sweep(name):
    d = link(name)
    try:
        signs = reference_sign_resolution(d)
    except SignResolutionError as exc:
        with pytest.raises(SignResolutionError) as info:
            HTable(d, force=True)
        assert str(info.value) == str(exc)
        return
    flipped, report = law_problems(d)
    assert flipped == [tuple(i + 1 for i in B) for B, s in sorted(signs.items()) if s == -1]
    assert report == reference_report(d, signs)


def permuted(d, perm):
    """d with its components reordered: component k of the result is
    component perm[k] of d, and each polynomial's variables follow."""
    new = {old: k for k, old in enumerate(perm)}
    alex = {}
    for B, poly in d.alexander.items():
        key = tuple(sorted(new[b] for b in B))
        order = [B.index(perm[k]) for k in key]
        alex[key] = LaurentPoly(len(B), {tuple(e[i] for i in order): c
                                         for e, c in poly.terms.items()})
    return LinkDescriptor(f"{d.name}@{''.join(str(i + 1) for i in perm)}",
                          [d.components[i] for i in perm], alexander=alex,
                          lspace_asserted=d.lspace_asserted)


def variants(d):
    """d under every order of its components (up to three of them), each
    as stored and with the stored sign of one multi-component polynomial
    flipped."""
    for perm in permutations(range(d.n)) if d.n <= 3 else [tuple(range(d.n))]:
        e = permuted(d, perm)
        yield e
        yield from (flipped(e, B) for B, poly in e.alexander.items()
                    if len(B) > 1 and not poly.is_zero())


def test_variants_cover_the_trefoil_first_mirror_L7a3():
    names = [e.name for e in variants(catalog("mirror_L7a3"))]
    assert names == ["mirror_L7a3@12", "mirror_L7a3@12~1,2",
                     "mirror_L7a3@21", "mirror_L7a3@21~1,2"]
    trefoil_first = permuted(catalog("mirror_L7a3"), (1, 0))
    assert trefoil_first.delta((0,)) == catalog("trefoil_rh").delta((0,))


def test_sign_resolution_matches_the_reference_on_flipped_raw_draws():
    # seeded raw draws of two and three components, their stored signs
    # negated at random: the table's signs, or its error, are those of the
    # point-by-point sign trials, and both kinds of draw flip signs
    rng, flips = random.Random(30), {2: 0, 3: 0}
    draws = [flipped(d, (0, 1)) if rng.random() < 0.5 else d
             for d in (raw_draw(rng, k) for k in range(100))]
    for d in draws + [raw_triple_draw(rng, k) for k in range(200)]:
        try:
            signs = reference_sign_resolution(d)
        except SignResolutionError as exc:
            with pytest.raises(SignResolutionError) as info:
                HTable(d)
            assert str(info.value) == str(exc)
            continue
        expected = [tuple(i + 1 for i in B) for B, s in sorted(signs.items()) if s == -1]
        try:
            t = HTable(d)
        except StabilizationError as exc:
            assert (exc.flipped, exc.problems) == (expected, reference_report(d, signs))
            continue
        assert t.sign_resolution == {tuple(i + 1 for i in B): s for B, s in signs.items()}
        flips[d.n] += bool(expected)
    assert flips[2] >= 4 and flips[3] >= 3, flips


def test_the_pair_scope_matches_the_reference_sign_resolution(pair_scope_outcomes):
    # the whole scope: a refused descriptor blames its pair, the only
    # sublink with a face to fail; a built one takes the signs of the
    # point-by-point sign trials, whose sweep of the box finds no problem,
    # and so does it with its pair sign negated, reading the same lists
    built = refused = 0
    for d, t in pair_scope_outcomes:
        if isinstance(t, SignResolutionError):
            assert str(t) == (f"{d.name}: neither sign of the polynomial for subset (1, 2) "
                              f"yields a valid H-function; not an L-space link with this data")
            refused += 1
            continue
        built += 1
        signs = reference_signs(d)
        assert reference_report(d, signs) == [], d.name
        e = flipped(d, (0, 1))
        for table, reference in ((t, signs), (HTable(e), reference_sign_resolution(e))):
            assert table.sign_resolution == {tuple(i + 1 for i in B): s
                                             for B, s in reference.items()}, table.link.name
            assert table._grids == t._grids, table.link.name
    assert (built, refused) == (195, 2856)


@pytest.mark.parametrize("name", sorted(REPORT + RESOLUTION))
def test_the_shell_law_is_torres_on_every_axis(name):
    # the theorem of the shell law (hfunction docstring): with the stored
    # signs, the full link's H keeps it on the box exactly when every
    # sublink polynomial vanishes at t_i = 1 on each of its axes
    d = link(name)
    assert reference_shell_holds(lambda s: brute_H(d, s), axis_radii(d)) == torres_holds(d)


def test_the_shell_law_is_torres_on_every_axis_on_raw_draws():
    # the same on seeded three-component draws, whether they build or not:
    # both answers occur, from pairs and from triples breaking Torres
    rng, seen = random.Random(12), {True: 0, False: 0}
    for k in range(150):
        d = raw_triple_draw(rng, k)
        holds = torres_holds(d)
        assert reference_shell_holds(lambda s: brute_H(d, s), axis_radii(d)) == holds, d.name
        seen[holds] += 1
    assert min(seen.values()) >= 30, seen


def test_the_torres_check_is_the_shell_law_on_raw_draws():
    # `_breaks_torres` on the tables: a draw has a table of two or more
    # components that breaks Torres exactly when its polynomials do and when
    # its H breaks the shell law, point by point; `HTable` lists only the
    # breakers of three or more components, since a pair that breaks it
    # fails a step (B in the hfunction docstring), and both kinds occur
    rng, seen = random.Random(12), {"none": 0, "pair": 0, "triple": 0}
    for k in range(400):
        d = raw_triple_draw(rng, k)
        breakers = [B for B in all_subsets(3) if len(B) > 1 and not d.delta(B).is_zero()
                    and hfunction._breaks_torres(_chi_table(d.delta(B)))]
        holds = torres_holds(d)
        assert (breakers == []) == holds, d.name
        if k < 40:
            assert reference_shell_holds(lambda s: brute_H(d, s), axis_radii(d)) == holds, d.name
        seen["triple" if (0, 1, 2) in breakers else "pair" if breakers else "none"] += 1
    assert min(seen.values()) >= 30, seen


@pytest.mark.parametrize("name", sorted(set(REPORT + RESOLUTION) - set(SLOW_RESOLUTION)))
def test_one_sign_at_most_is_valid_and_the_table_takes_it(name):
    # over every component order and single sign flip: the sign trials, run
    # point by point (the stored sign unless only its negation passes), give
    # the table's signs, list and box, or its error with the same message,
    # problems and flipped subsets; and, as the closed-form sign rule's
    # proof says, the sign a trial did not pick fails, so the stored sign's
    # preference decides nothing
    for d in variants(link(name)):
        try:
            signs = reference_sign_resolution(d)
        except SignResolutionError as exc:
            with pytest.raises(SignResolutionError) as info:
                HTable(d, force=True)
            assert str(info.value) == str(exc)
            continue
        multi = [B for B in all_subsets(d.n) if len(B) > 1 and not d.delta(B).is_zero()]
        for B in multi:
            other = {**signs, B: -signs[B]}
            assert next(reference_law_problems(d, B, other, axis_radii(d, B)), None), \
                (d.name, B)
        full = tuple(range(d.n))
        # a full link with a polynomial passed its sign trial, on a box that
        # decides the laws on the cube too
        problems = [] if full in multi else reference_report(d, signs)
        flips = [tuple(i + 1 for i in B) for B, s in sorted(signs.items()) if s == -1]
        if problems:
            with pytest.raises(StabilizationError) as info:
                HTable(d, force=True)
            assert (info.value.problems, info.value.flipped) == (problems, flips)
            assert str(info.value) == failure_message(d, problems)
            continue
        t = HTable(d, force=True)
        assert t.sign_resolution == {tuple(i + 1 for i in B): s for B, s in signs.items()}
        assert t.flipped_signs() == flips
        assert t._box == axis_radii(d)
        assert list(map(t.h, box(t._box))) == list(map(brute_h(d, signs), box(t._box))), d.name


def test_the_sign_rule_counts_the_sublinks_below():
    # at the largest exponent a = (1, 1, 1) of the full table, c(a) = 1, and
    # the two whitehead pairs' terms add rho = 2 to the step along e_1, so
    # only the flipped sign gives a step of 0 or 1: a rule reading c(a)
    # alone would keep the stored sign, which breaks the laws
    d = linked_pairs_borromean()
    assert _chi_table(d.delta((0, 1, 2)))[1, 1, 1] == 1
    assert HTable(d, force=True).flipped_signs() == [(1, 2, 3)]
    signs = reference_sign_resolution(d)
    assert signs[0, 1, 2] == -1
    stored = {**signs, (0, 1, 2): 1}
    assert next(reference_law_problems(d, (0, 1, 2), stored, axis_radii(d)), None)


def test_sign_resolution_messages():
    flipped = HTable(link("two_bridge:15, stored sign flipped"))
    assert flipped.flipped_signs() == [(1, 2)]
    with pytest.raises(SignResolutionError) as info:
        HTable(link("two_bridge:3 cabled by (3,7),(2,5)"))
    assert str(info.value) == (
        "two_bridge(3)_cable(3:7,2:5): neither sign of the polynomial for "
        "subset (1, 2) yields a valid H-function; not an L-space link with this data")
    # only the shell law rejects this one: see test_the_corner_theorem_needs_no_torres
    with pytest.raises(SignResolutionError) as info:
        HTable(torres_breaking())
    assert str(info.value) == (
        "torres-breaking: neither sign of the polynomial for subset (1, 2, 3) yields a "
        "valid H-function; not an L-space link with this data")


@pytest.mark.parametrize("name", sorted(REPORT))
def test_a_swept_full_link_is_not_swept_again(name, monkeypatch):
    # every table checks the steps of each class list once, which a valid
    # table keeps; a failing one checks its box list once more and rechecks
    # no face: its error is read off the failures of that check
    d = link(name)
    calls = []
    real = hfunction._failing_steps
    monkeypatch.setattr(hfunction, "_failing_steps", lambda *a: calls.append(a) or real(*a))
    radii = axis_radii(d)
    try:
        t = HTable(d, force=True)
    except StabilizationError:
        assert name in INVALID
        assert len(calls) == 2 and calls[0][1:] == (radii, [0] * d.n)
        assert calls[1][1:] == (radii, radii)
    else:
        assert len(calls) == 1 and calls[0][0] is t._grids[0]
        assert calls[0][1:] == (radii, [0] * d.n)


@pytest.mark.parametrize("name", sorted(REPORT))
def test_memo_holds_only_full_link_points(name, monkeypatch):
    # every catalog link, cable and union, and the data failing validation
    # read with the check bypassed, hold one list, over prod [0, M_i]: every
    # orthant reads it
    if name in INVALID:
        bypass_law_checks(monkeypatch)
    d = link(name)
    t = HTable(d, force=True)
    for _ in range(2):
        assert [len(grid) for grid in t._grids] == [prod(m + 1 for m in axis_radii(d))], name
        assert t._orthants == [0] * 2 ** t.n, name
        t.H((-t.M - 3,) * t.n)  # outside the box: read by clamping, not cached


def test_every_catalog_link_and_benchmark_cable_holds_one_list():
    # every catalog key and every cable the benchmark builds but the one it
    # rejects: one class of orthants, so one list over prod [0, M_i], and
    # no list over the box
    descriptors = [catalog(key, *p) for key, params in CATALOG_PARAMS.items() for p in params]
    descriptors += [d for d in benchmark_cables() if d.name != "two_bridge(3)_cable(3:7,2:5)"]
    for d in descriptors:
        t = HTable(d)
        assert [len(grid) for grid in t._grids] == [prod(m + 1 for m in axis_radii(d))], d.name


def test_sign_resolution_of_a_union():
    d = disjoint_union(flipped_whitehead(), catalog("trefoil_rh"))
    t = HTable(d)
    # the sublinks' sign trials keep nothing: one list, over prod [0, M_i]
    assert [len(grid) for grid in t._grids] == [prod(m + 1 for m in axis_radii(d))] == [4 ** 3]
    assert t.sign_resolution == {(1,): 1, (2,): 1, (3,): 1, (1, 2): -1,
                                 (1, 3): 1, (2, 3): 1, (1, 2, 3): 1}
    assert t.flipped_signs() == [(1, 2)]


@pytest.mark.parametrize("name", ORACLE)
def test_grid_matches_lookups(name):
    # an axis that no table holds has no table in the HTable either, and
    # M_j = 2; on the table's box, the face s_j = M_j (j off B) of the list
    # is the brute-force h of the sublink B's own descriptor
    d = link(name)
    t = HTable(d)
    held = {j for B in all_subsets(d.n) if oracle_table(d, B) for j in B}
    for j in set(range(d.n)) - held:
        assert not any(j in C for C in t._tables) and t._box[j] == 2, j
    for B in all_subsets(d.n):
        face = []
        for x in box([t._box[j] for j in B]):
            s = list(t._box)
            for j, y in zip(B, x):
                s[j] = y
            face.append(t.h(s))
        sub = sublink(d, B)
        assert face == list(map(brute_h(sub), box([t._box[j] for j in B]))), B


@pytest.mark.parametrize("name", sorted(ORACLE + ADMISSIBLE))
def test_every_table_is_its_polynomial_and_antisymmetric(name):
    # every sublink's table is read off its polynomial alone (a knot's as
    # its torsion coefficients less the unknot's), keeps
    # c(1 - u) = (-1)^|C| c(u) and sums to 0, and the unknot's is empty
    d = link(name)
    t = HTable(d)
    for B in all_subsets(d.n):
        table = oracle_table(d, B)
        assert t._tables.get(B, {}) == table, B
        if not table:
            assert d.delta(B) in (LaurentPoly.zero(len(B)), LaurentPoly.one(1)), B
            continue
        assert _chi_table(d.delta(B)) == table, B
        assert {tuple(1 - x for x in u): (-1) ** len(B) * c for u, c in table.items()} == table
        assert sum(table.values()) == 0, B
    assert _chi_table(LaurentPoly.one(1)) == {}


def test_oracle_h_reads_the_reference_signs():
    # the stored sign of the whitehead polynomial is flipped, and the
    # oracle, like the table, takes the sign that passes the laws
    name = "whitehead, stored sign flipped"
    h, t = oracle_h(name), HTable(link(name))
    assert h((0, 0)) == 1 == t.h((0, 0))
    assert all(h(s) == t.h(s) for s in cube(t.M, 2))


@pytest.mark.parametrize("name", sorted(REPORT + RESOLUTION))
def test_one_list_per_link(name, monkeypatch):
    # whatever the outcome, a table builds each class's list over
    # prod [0, M_i] once with every sign +1, and once more right after each
    # sign it flips, in `all_subsets` order, and reads every sublink's h off
    # the last; only a refused table builds one more list, over its box
    # prod [-M_i, M_i], with the signs as chosen, and its error is read off
    # that; and a projection check reads every sublink off the caller's
    # table, building no table and no list
    d = link(name)
    grids, built, tables = [], [], []  # signs and span of each list; the table
    real_grid, real_init = HTable._h_grid, HTable.__init__
    monkeypatch.setattr(HTable, "_h_grid", lambda t, *a: built.append(t) or grids.append(
        (dict(t._signs), list(a[1]))) or real_grid(t, *a))
    monkeypatch.setattr(HTable, "__init__",
                        lambda t, *a, **k: tables.append(a) or real_init(t, *a, **k))
    outcome = None
    try:
        t = HTable(d, force=True)
    except ValidationError as exc:
        outcome = exc
    classes, radii = len(built[0]._grids), axis_radii(d)
    boxes = [signs for signs, below in grids if below == radii]
    assert len(boxes) == (outcome is not None)
    signs = [signs for signs, below in grids if below == [0] * d.n]
    assert len(signs) + len(boxes) == len(grids)
    flips = [B for B, s in signs[-1].items() if s == -1]
    unflipped = dict.fromkeys(all_subsets(d.n), 1)
    assert signs == [{**unflipped, **dict.fromkeys(flips[:k], -1)}
                     for k in range(len(flips) + 1) for _ in range(classes)]
    assert boxes in ([], [signs[-1]])
    if isinstance(outcome, SignResolutionError):
        return
    assert signs[-1] == reference_signs(d)
    if outcome is not None:
        assert name in INVALID and isinstance(outcome, StabilizationError)
        assert outcome.flipped == [tuple(i + 1 for i in B) for B in flips]
        return
    assert t.flipped_signs() == [tuple(i + 1 for i in B) for B in flips]
    if d.lspace_asserted:
        grids.clear()
        tables.clear()
        assert projection_check(t, region_from_h(t)) == []
        assert tables == grids == []


@pytest.mark.parametrize("name", ORACLE)
def test_full_link_list_is_brute_force(name):
    # every input here holds one list, h over prod [0, M_i], and every
    # orthant reads it at |s|
    d = link(name)
    t = HTable(d)
    radii = axis_radii(d)
    assert t._grids == [list(map(brute_h(d), product(*(range(m + 1) for m in radii))))]
    assert list(map(t.h, box(radii))) == list(map(brute_h(d), box(radii)))


def test_two_bridge_closed_form_is_the_formula():
    # the oracle of two_bridge:k for k >= 12, where the brute sum is slow
    for k in range(1, 13):
        d = catalog("two_bridge", k)
        h, closed = brute_h(d), two_bridge_h(k)
        assert all(h(s) == closed(s) for s in cube(max(axis_radii(d)) + 1, 2)), k


def test_box_reads_make_no_orthant_lookups(monkeypatch):
    # after construction every H, inside the box or out, reads a class list
    # and builds none
    tables = {name: HTable(link(name), force=True) for name in REPORT if name not in INVALID}
    calls = []
    monkeypatch.setattr(HTable, "_h_grid", lambda *a: calls.append(a))
    for name, t in tables.items():
        far = t.M + 5
        for s in product((-far, 0, far), repeat=t.n):
            t.H(s)
        t.corners()
        region_from_h(t)
        maximal_lattice_points(t)
        genus_admissible(t, (0,) * t.n)
        admissible_region(t)
        assert calls == [], name


def test_lspace_assertion_gate():
    wh = catalog("whitehead")
    unasserted = LinkDescriptor("wh-unasserted", wh.components,
                                alexander=wh.alexander, lspace_asserted=False)
    with pytest.raises(LSpaceAssertionError):
        HTable(unasserted)
    assert HTable(unasserted, force=True).H((0, 0)) == 1


# (what is refused, the call, the exception type, its message)
REFUSALS = [
    ("a point of wrong dimension", lambda: HTable(catalog("whitehead")).h((0,)),
     ValueError, "point (0,) has wrong dimension, expected 2"),
]


@pytest.mark.parametrize("what, call, error, message", REFUSALS, ids=[r[0] for r in REFUSALS])
def test_refusals(what, call, error, message):
    assert_refused(call, error, message)
