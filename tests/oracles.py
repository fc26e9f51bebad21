"""Shared test code: the H-function oracle, the per-point references, the
named inputs, the fixtures and the loaders of the benchmark's and the tools'
scripts.  Every test module imports from here, and none imports another.

The oracles read a descriptor's Alexander polynomials and nothing else: none
of them builds or reads an `HTable`, and this module imports nothing from
`hfgenus.hfunction`, `hfgenus.region` or `hfgenus.bounds` (a guard test in
`test_imports.py` checks it), so a fast path that is wrong cannot agree with
its oracle by reading itself.  H comes from `brute_H`, the alternating sum
over sublinks of orthant sums, term by term; h of `two_bridge:k` with
k >= 12, where that sum is slow, from the closed form `two_bridge_h`.  The
per-point references take such an h (or the descriptor) and the per-axis
radii of the box, and carry their own `f_cap` and `minimalize`.  chi comes
from `oracle_chi`, a signed coefficient of the stored polynomial, and the
tests compare it with the `inclusion_exclusion` of a table's H; a sublink's
table, as `_chi_table` stores it, from `oracle_table`.  Where a table flips
a stored sign, `oracle_h` and `oracle_chi` take the signs of
`reference_sign_resolution`.

The one exception is `TABLE_READ_EXCEPTION`: a brute sweep of the borromean
(3,16)^3 cable's 68,921 box points takes about 16 s, so the test of the
corners on that input alone feeds `reference_corners` the table's own h.
"""

import functools
import importlib.util
import re
import sys
from itertools import product
from math import prod
from operator import ge
from pathlib import Path

import pytest

from hfgenus.cable import CableSpec, cable_alexander
from hfgenus.errors import SignResolutionError
from hfgenus.laurent import LaurentPoly
from hfgenus.linkcat import Component, LinkDescriptor, all_subsets, catalog
from hfgenus.linkjson import descriptor_from_dict
from hfgenus.linkops import disjoint_union, sublink

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(path, name):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def perfbench(name):
    """perfbench/<name>.py, loaded as a module: the benchmark is not a package."""
    return _load(PERFBENCH / f"{name}.py", f"perfbench_{name}")


def tool(name):
    """tools/<name>.py, loaded as a module: the tools are scripts."""
    return _load(ROOT / "tools" / f"{name}.py", name)


WORKLOADS = perfbench("workloads")  # the benchmark's generated inputs


# -- fixtures -------------------------------------------------------------------


def P(nvars, *terms):
    return LaurentPoly.from_terms(nvars, terms)


def assert_refused(call, error, message):
    """call() raises exactly `error`, not a subclass, with this message: one
    row of a test module's table of refusals."""
    with pytest.raises(error) as info:
        call()
    assert type(info.value) is error and str(info.value) == message


def bad_knot():
    # Delta(1) = 1 and symmetric, so the descriptor is valid, but h goes negative
    return LinkDescriptor("bad-knot", [Component("k")],
                          alexander={(0,): P(1, (-1, (1,)), (3, (0,)), (-1, (-1,)))},
                          lspace_asserted=False)


def flipped_whitehead():
    wh = catalog("whitehead")
    return LinkDescriptor("whitehead-flipped", wh.components,
                          alexander={(0,): wh.delta((0,)),
                                     (1,): wh.delta((1,)),
                                     (0, 1): -wh.delta((0, 1))},
                          lspace_asserted=True)


def linked_pairs_borromean():
    """Data passing the laws (not a known link) with nonzero polynomials on
    proper sublinks: whitehead's on the pairs (1,2) and (1,3), the
    borromean rings' on (1,2,3)."""
    wh, bo = catalog("whitehead").delta((0, 1)), catalog("borromean").delta((0, 1, 2))
    return LinkDescriptor("linked pairs", [Component("unknot")] * 3,
                          alexander={(0,): LaurentPoly.one(1), (1,): LaurentPoly.one(1),
                                     (2,): LaurentPoly.one(1), (0, 1): wh, (0, 2): wh,
                                     (1, 2): LaurentPoly.zero(2), (0, 1, 2): bo})


def borromean_over_a_two_bridge_pair():
    """Data passing the laws (not a known link): two_bridge:2's pair
    polynomial on (1,2), whose table reaches u_1 = 2, past the largest
    exponent (1, 1, 1) of the borromean rings' polynomial on (1,2,3), and
    zero polynomials on (1,3) and (2,3)."""
    zero = LaurentPoly.zero(2)
    return LinkDescriptor("borromean over a two_bridge:2 pair", [Component("unknot")] * 3,
                          alexander={(0,): LaurentPoly.one(1), (1,): LaurentPoly.one(1),
                                     (2,): LaurentPoly.one(1),
                                     (0, 1): catalog("two_bridge", 2).delta((0, 1)),
                                     (0, 2): zero, (1, 2): zero,
                                     (0, 1, 2): catalog("borromean").delta((0, 1, 2))})


# Knot polynomials at doubled exponents, for drawn data.
KNOTS = {"unknot": {(0,): 1}, "trefoil": {(2,): 1, (0,): -1, (-2,): 1},
         "T(2,5)": {(4,): 1, (2,): -1, (0,): 1, (-2,): -1, (-4,): 1}}


def raw_draw(rng, k):
    """A seeded two-component draw of raw data: two knots from KNOTS and
    (t_1^(1/2) - t_1^(-1/2)) (t_2^(1/2) - t_2^(-1/2)) f, f a sum of one to
    three random terms, each with its image under inverting both variables,
    so the pair polynomial keeps Torres's condition and its symmetry."""
    f = {}
    for _ in range(rng.randint(1, 3)):
        u, c = (rng.randint(-2, 2), rng.randint(-2, 2)), rng.choice((-1, 1))
        for e in {u, (-u[0], -u[1])}:
            f[e] = f.get(e, 0) + c
    factor = LaurentPoly(2, {(1, 1): 1, (1, -1): -1, (-1, 1): -1, (-1, -1): 1})
    pair = factor * LaurentPoly(2, {(2 * a, 2 * b): c for (a, b), c in f.items()})
    knots = [LaurentPoly(1, KNOTS[rng.choice(sorted(KNOTS))]) for _ in range(2)]
    return LinkDescriptor(f"draw {k}", [Component("a"), Component("b")],
                          alexander={(0,): knots[0], (1,): knots[1], (0, 1): pair},
                          lspace_asserted=True)


def raw_triple_draw(rng, k):
    """A seeded three-component draw of raw data: three knots from KNOTS;
    each pair polynomial zero, or prod (t_i^(1/2) - t_i^(-1/2)) f as in
    `raw_draw`, keeping Torres's condition, or symmetric terms at half-odd
    exponents, which mostly break it, at odds 3 : 1 : 1; a triple
    polynomial likewise zero, prod (t_i^(1/2) - t_i^(-1/2)) f, or
    antisymmetric terms at half-odd exponents, at odds 1 : 2 : 1; and every
    stored multi-component sign negated at random.  f is a sum of one to
    three random terms, each with its image under inverting every
    variable."""

    def terms(n, odd, sign):
        f = {}
        for _ in range(rng.randint(1, 3)):
            u, c = tuple(2 * rng.randint(-1, 1) + odd for _ in range(n)), rng.choice((-1, 1))
            for e, x in ((u, c), (tuple(-y for y in u), sign * c)):
                f[e] = f.get(e, 0) + x
        return LaurentPoly(n, f)

    def poly(n, kinds):
        kind = rng.choice(kinds)
        torres = LaurentPoly(n, {e: prod(e) for e in product((1, -1), repeat=n)})
        return rng.choice((-1, 1)) * (LaurentPoly.zero(n) if kind == 0 else
                                      torres * terms(n, 0, 1) if kind == 1 else
                                      terms(n, 1, (-1) ** n))

    alexander = {(j,): LaurentPoly(1, KNOTS[rng.choice(sorted(KNOTS))]) for j in range(3)}
    alexander.update({B: poly(2, (0, 0, 0, 1, 2)) for B in ((0, 1), (0, 2), (1, 2))})
    alexander[0, 1, 2] = poly(3, (0, 1, 1, 2))
    return LinkDescriptor(f"triple draw {k}", [Component(c) for c in "abc"],
                          alexander=alexander, lspace_asserted=True)


def torres_breaking():
    """Data passing the step law (with the triple's sign flipped) that no
    link has: knots T(2,5), the trefoil and T(2,5), zero pair polynomials,
    and the symmetric triple t_1^(3/2) t_2^(1/2) t_3^(-1/2) -
    t_1^(-3/2) t_2^(-1/2) t_3^(1/2), which does not vanish at t_3 = 1, so
    it breaks Torres's condition and h(-s) = h(s)."""
    t25, tref = LaurentPoly(1, KNOTS["T(2,5)"]), LaurentPoly(1, KNOTS["trefoil"])
    pair = LaurentPoly.zero(2)
    return LinkDescriptor("torres-breaking", [Component("T(2,5)"), Component("trefoil"),
                                              Component("T(2,5)")],
                          alexander={(0,): t25, (1,): tref, (2,): t25,
                                     (0, 1): pair, (0, 2): pair, (1, 2): pair,
                                     (0, 1, 2): LaurentPoly(3, {(3, 1, -1): 1,
                                                                (-3, -1, 1): -1})},
                          lspace_asserted=True)


def pair_low_on_its_last_axis():
    """Data passing the laws (not a known link): two T(2,5) knots and the
    pair polynomial (t_1^(1/2) - t_1^(-1/2)) (t_2^(1/2) - t_2^(-1/2))
    (t_1 t_2^(-1) + t_1^(-1) t_2), whose largest exponent in lexicographic
    order, u = (2, 0) after the half shift, is 0 on the last axis: there a
    unit step from u_2 - 1 to u_2 leads toward 0, so the step law reads it
    in {-1, 0}, and only the first axis reads the sign."""
    t25 = LaurentPoly(1, KNOTS["T(2,5)"])
    factor = LaurentPoly(2, {(1, 1): 1, (1, -1): -1, (-1, 1): -1, (-1, -1): 1})
    pair = factor * LaurentPoly(2, {(2, -2): 1, (-2, 2): 1})
    return LinkDescriptor("pair low on its last axis", [Component("T(2,5)")] * 2,
                          alexander={(0,): t25, (1,): t25, (0, 1): pair},
                          lspace_asserted=True)


def reference_genera(d):
    """deg Delta of each component's knot polynomial, read off the stored
    terms as half the polynomial's span: a quarter of the doubled exponents'
    range, as the polynomial is symmetric."""
    return tuple((max(e) - min(e)) // 4 for e in (
        [x for (x,) in d.delta((i,)).terms] for i in range(d.n)))


def count_reads(t):
    """Make the table t record every point its h is asked for, in the list
    returned."""
    reads, h = [], t.h
    t.h = lambda s: reads.append(s) or h(s)
    return reads


# -- the named inputs -------------------------------------------------------------

LINKS = {}  # every named input of the tests: name -> a function that builds it


def _group(makers):
    LINKS.update(makers)
    return tuple(sorted(makers))


@functools.cache
def link(name):
    """The named input, built once, so the memo of `brute_H` serves every
    test that reads it."""
    return LINKS[name]()


# The catalog links that take no parameter.
ATOMIC = _group({key: lambda key=key: catalog(key)
                 for key in ("unknot", "trefoil_rh", "whitehead", "borromean", "mirror_L7a3")})
# Those, a two-bridge link, a sparse cable with a wide box and unions: every
# oracle test.
ORACLE = tuple(sorted(ATOMIC + _group({
    "two_bridge": lambda: catalog("two_bridge", 2),
    "whitehead_cable:5,16": lambda: catalog("whitehead_cable", 5, 16),
    "borromean_cable:2,7,2,7,1,1": lambda: cable_alexander(
        catalog("borromean"), CableSpec(((2, 7), (2, 7), (1, 1)))),
    "whitehead+trefoil_rh": lambda: disjoint_union(catalog("whitehead"), catalog("trefoil_rh")),
    "mirror_L7a3+unknot+trefoil_rh": lambda: disjoint_union(
        catalog("mirror_L7a3"), catalog("unknot"), catalog("trefoil_rh")),
    "unlink:4": lambda: catalog("unlink", 4),
})))
# More unlinks, for the unlink test.
SPLIT = _group({
    "unlink:3": lambda: catalog("unlink", 3),
    "unknot+unknot": lambda: disjoint_union(catalog("unknot"), catalog("unknot")),
})
# More cables and unions, for the admissible region, corners and staircases.
ADMISSIBLE = _group({
    "whitehead_cable:2,7": lambda: catalog("whitehead_cable", 2, 7),
    "two_bridge:2_cable:2,9,3,13": lambda: cable_alexander(
        catalog("two_bridge", 2), CableSpec(((2, 9), (3, 13)))),
    "trefoil_rh_cable:2,7": lambda: cable_alexander(catalog("trefoil_rh"), CableSpec(((2, 7),))),
    "whitehead+unknot": lambda: disjoint_union(catalog("whitehead"), catalog("unknot")),
    "trefoil_rh+trefoil_rh": lambda: disjoint_union(catalog("trefoil_rh"), catalog("trefoil_rh")),
})
# Wide boxes, for the staircases.
STAIRCASE = _group({
    "two_bridge:20": lambda: catalog("two_bridge", 20),
    "whitehead_cable:7,22": lambda: catalog("whitehead_cable", 7, 22),
    # M_i = 37, 3, 2: a thin box in the cube, where h is constant beyond each M_i
    "whitehead_cable:5,16+unknot": lambda: disjoint_union(
        catalog("whitehead_cable", 5, 16), catalog("unknot")),
})
# ORACLE holds four of the five inputs of the admissible_region benchmark
# workload; these are the fifth and two larger ones, for the fold and the walk.
WALK = _group({
    "two_bridge:12": lambda: catalog("two_bridge", 12),
    "two_bridge:40": lambda: catalog("two_bridge", 40),
    "borromean_cable:3,16,3,16,3,16": lambda: cable_alexander(
        catalog("borromean"), CableSpec(((3, 16),) * 3)),
})
# Descriptors whose Alexander data fail validation, to be built with force=True.
INVALID = _group({
    "-t + 3 - 1/t, forced": bad_knot,
    "-t + 3 - 1/t + whitehead, forced": lambda: disjoint_union(bad_knot(), catalog("whitehead")),
    "-t + 3 - 1/t + two_bridge:3, forced": lambda: disjoint_union(
        bad_knot(), catalog("two_bridge", 3)),
})
# Descriptors, to be built with force=True: the ones failing validation last.
REPORT = ORACLE + INVALID + _group({"whitehead, stored sign flipped": flipped_whitehead})
# Inputs whose sign resolution flips a sign or fails, besides REPORT; the
# first takes seconds a variant of its components' order and signs.
SLOW_RESOLUTION = _group({
    "two_bridge:15, stored sign flipped": lambda: descriptor_from_dict(
        WORKLOADS.flipped_two_bridge(15)),
})
RESOLUTION = SLOW_RESOLUTION + _group({
    **{f"two_bridge:10, corrupted at {exp}": lambda exp=exp: descriptor_from_dict(
        WORKLOADS.corrupted_two_bridge(10, exp)) for exp in WORKLOADS.CORRUPT_AT},
    "two_bridge:3 cabled by (3,7),(2,5)": lambda: cable_alexander(
        catalog("two_bridge", 3), CableSpec(((3, 7), (2, 5)))),
    "borromean polynomial over two whitehead pairs": linked_pairs_borromean,
    # the pair's table holds (2, 1) >= a = (1, 1), off the slice u_1 = 1 that
    # the sign rule reads at the triple's largest exponent a = (1, 1, 1)
    "borromean polynomial over a two_bridge:2 pair": borromean_over_a_two_bridge_pair,
    # passes the step law, but its triple breaks Torres's condition
    "T(2,5), trefoil, T(2,5) with a triple breaking Torres": torres_breaking,
    # the largest exponent's last coordinate is 0: the sign is read along e_1
    "T(2,5), T(2,5) with a pair low on its last axis": pair_low_on_its_last_axis,
    # the union's own list fails, and only the face of the pair (1, 2) does
    f"two_bridge:10, corrupted at {WORKLOADS.CORRUPT_AT[0]}, + unknot": lambda: disjoint_union(
        descriptor_from_dict(WORKLOADS.corrupted_two_bridge(10, WORKLOADS.CORRUPT_AT[0])),
        catalog("unknot")),
})
# The parts that unions are drawn from.
PARTS = ("mirror_L7a3", "trefoil_rh", "two_bridge", "unknot", "whitehead")

# The one input whose oracle reads the table under test (see the module docstring).
TABLE_READ_EXCEPTION = "borromean_cable:3,16,3,16,3,16"


# -- H and h from the polynomials ------------------------------------------------------


def unlink_H(s):
    """H_O(s), the H-function of the unlink: the sum of max(-s_i, 0)."""
    return sum(max(-x, 0) for x in s)


def axis_radii(d, B=None):
    """M_j for each component j of the sublink B (all of d by default): two
    more than the largest |u_j| over the half-shifted exponents of the
    sublinks of B that contain j, read straight off the stored polynomials."""
    B = tuple(range(d.n)) if B is None else B
    radii = dict.fromkeys(B, 0)
    for C in all_subsets(d.n):
        if set(C) <= set(B):
            shift = 0 if len(C) == 1 else 1
            for exp in d.delta(C).terms:
                for j, e in zip(C, exp):
                    radii[j] = max(radii[j], abs((e + shift) // 2))
    return [radii[j] + 2 for j in B]


def box(radii):
    """The points of prod [-r_i, r_i], in the order of `itertools.product`."""
    return product(*(range(-r, r + 1) for r in radii))


def cube(M, n):
    """The points of [-M, M]^n, in the order of `itertools.product`."""
    return product(range(-M, M + 1), repeat=n)


def _sum_of_orthant_sums(d, signs):
    """The function s -> H(s) of `formula_H`, the sublinks' coefficients
    half-shifted once."""
    terms = []  # (sign, sublink, its coefficients at integer exponents)
    for B in all_subsets(d.n):
        delta = d.delta(B)
        if not delta.is_zero():
            shift = 0 if len(B) == 1 else 1
            terms.append(((-1) ** (len(B) - 1) * signs.get(B, 1), B,
                          [(tuple((e + shift) // 2 for e in exp), c)
                           for exp, c in delta.terms.items()]))

    def H(s):
        total = 0
        for sign, B, coeffs in terms:
            if len(B) == 1:
                v = s[B[0]] + 1
                total += sign * sum(c * (u - v + 1) for (u,), c in coeffs if u >= v)
            else:
                v = [s[i] + 1 for i in B]
                total += sign * sum(c for u, c in coeffs if all(map(ge, u, v)))
        return total

    return H


def formula_H(d, s, signs=None):
    """H of d at any lattice point s, term by term from the stored
    polynomials: the alternating sum over the sublinks B of the orthant sums
    at v = s + 1 (on B's axes) of the coefficients of
    Delta_B (t_1 ... t_k)^{1/2}, or for a knot of its torsion series
    Delta(t)/(1 - t^{-1}), whose coefficient at degree u is the sum of
    Delta's coefficients at the degrees >= u.  `signs` maps a sublink to -1
    to negate its stored polynomial.  No memo and no clamp: `brute_H` reads
    it on the box."""
    return _sum_of_orthant_sums(d, signs or {})(s)


_MEMOS = {}  # (id of a descriptor, its flipped sublinks) -> (the descriptor, its h)


def brute_h(d, signs=None):
    """The function s -> h(s) = brute_H(d, s, signs) - H_O(s): h at clamp(s),
    the nearest point of the per-axis box prod [-M_i, M_i] (`axis_radii`),
    from `formula_H` there, memoised per descriptor and signs.
    h(s) = h(clamp(s)) holds for any data, by the argument of the
    `hfunction` docstring, and `test_h_stabilizes_beyond_the_box` checks it
    against `formula_H`."""
    flips = frozenset(B for B, x in (signs or {}).items() if x == -1)
    key = (id(d), flips)
    if key not in _MEMOS:
        radii, values = axis_radii(d), {}
        at_box = _sum_of_orthant_sums(d, dict.fromkeys(flips, -1))

        def h(s):
            at = []
            for x, m in zip(s, radii):
                at.append(-m if x < -m else m if x > m else x)
            at = tuple(at)
            if at not in values:
                values[at] = at_box(at) - unlink_H(at)
            return values[at]

        _MEMOS[key] = d, h  # keeps d alive, so its id is not reused
    return _MEMOS[key][1]


def brute_H(d, s, signs=None):
    """H of d at s, from the polynomials alone: `brute_h` plus H_O."""
    return brute_h(d, signs)(s) + unlink_H(s)


def two_bridge_h(k):
    """h of two_bridge:k in closed form: max(0, ceil((k - |s_1| - |s_2|)/2))."""
    return lambda s: max(0, -((abs(s[0]) + abs(s[1]) - k) // 2))


def oracle_h(name):
    """h of the named input: `two_bridge_h` for two_bridge:k with k >= 12,
    where the brute sum is slow, else `brute_h` with the signs of
    `reference_signs`."""
    k = re.fullmatch(r"two_bridge:(\d+)", name)
    if k and int(k[1]) >= 12:
        return two_bridge_h(int(k[1]))
    d = link(name)
    return brute_h(d, reference_signs(d))


# -- chi and the tables from the polynomials ---------------------------------------------


_SIGNS = {}  # id of a descriptor -> (the descriptor, its reference_sign_resolution)


def reference_signs(d):
    """`reference_sign_resolution` of d, memoised per descriptor as `brute_h`
    is."""
    if id(d) not in _SIGNS:
        _SIGNS[id(d)] = d, reference_sign_resolution(d)  # keeps d alive, as _MEMOS does
    return _SIGNS[id(d)][1]


def torsion(d, B, w):
    """The sum of the knot B's coefficients at the degrees >= w: its torsion
    coefficient at w."""
    return sum(c for (e,), c in d.delta(B).terms.items() if e >= 2 * w)


def oracle_chi(d, B, u):
    """chi(HFL^-) of the sublink B (0-based, increasing) of d at u, read off
    the stored polynomial: for a link the coefficient at the half-shifted
    exponent u - 1/2, times B's sign from `reference_signs`; for a knot its
    torsion coefficient at u."""
    if len(B) == 1:
        return torsion(d, B, u[0])
    return reference_signs(d)[B] * d.delta(B).terms.get(tuple(2 * x - 1 for x in u), 0)


def oracle_table(d, B):
    """The nonzero values of the sublink B's table, as stored, read off its
    polynomial alone: for a link the coefficients at the half-shifted
    exponents u - 1/2, for a knot tau(w) - [w <= 0] at each degree w, tau
    its torsion coefficients, over degrees past the support on both
    sides."""
    terms = d.delta(B).terms  # at doubled exponents
    if len(B) > 1:
        return {tuple((e + 1) // 2 for e in exp): c for exp, c in terms.items()}
    reach = max(abs(e) for (e,) in terms) // 2 + 2
    values = {(w,): torsion(d, B, w) - (w <= 0) for w in range(-reach, reach + 1)}
    return {w: x for w, x in values.items() if x}


def inclusion_exclusion(H, s):
    """The sum over the sets S of axes of (-1)^(|S| + 1) H(s - e_S), for a
    function H of points: applied to an H-function, chi at s (each orthant
    sum at v = s + 1 differenced once along every axis)."""
    return sum((-1) ** (sum(S) + 1) * H(tuple(x - y for x, y in zip(s, S)))
               for S in product((0, 1), repeat=len(s)))


def face(H, n, B, top):
    """The function of the coordinates of the sublink B that reads an
    n-component H at s_j = top for every j off B: B's own H-function when
    top >= M_j - 1 for each such j (see the `hfunction` docstring)."""
    def H_B(x):
        at = [top] * n
        for j, y in zip(B, x):
            at[j] = y
        return H(tuple(at))
    return H_B


# -- per-point references ---------------------------------------------------------------


def f_cap(g, v):
    """ceil((g - |v|)/2) when |v| <= g, else 0."""
    return -((abs(v) - g) // 2) if abs(v) <= g else 0


def minimalize(points):
    """The minimal points of a set of points, sorted: those dominating no
    other point of the set.  A point comes after every point it dominates in
    lexicographic order, and dominates a kept one if it dominates any."""
    keep = []
    for p in sorted(set(map(tuple, points))):
        if not any(all(map(ge, p, q)) for q in keep):
            keep.append(p)
    return tuple(keep)


def reference_region(h, radii):
    """The generators of {h = 0}: the w in [0, M]^n, M the largest radius,
    with h(w) = 0 and h(w - e_i) > 0 wherever w_i > 0, sorted."""
    return tuple(w for w in product(range(max(radii) + 1), repeat=len(radii)) if h(w) == 0
                 and all(h(w[:i] + (x - 1,) + w[i + 1:]) > 0 for i, x in enumerate(w) if x > 0))


def reference_maximal_points(h, radii):
    """The z in [0, M - 1]^n, M the largest radius, with h(z) > 0 and
    h(z + e_i) = 0 for every i, sorted."""
    return tuple(z for z in product(range(max(radii)), repeat=len(radii)) if h(z) > 0
                 and all(h(z[:i] + (x + 1,) + z[i + 1:]) == 0 for i, x in enumerate(z)))


def reference_corners(h, radii):
    """`HTable.corners` point by point: top[w], the largest h(v) over |v| = w,
    from h over the cube [-M, M]^n, M the largest radius, and the w with
    top[w] > 0 and top[w + e_i] < top[w] for every i with w_i < M."""
    M, top = max(radii), {}
    for v in cube(M, len(radii)):
        w = tuple(map(abs, v))
        top[w] = max(top.get(w, 0), h(v))
    return sorted((w, k) for w, k in top.items()
                  if k > 0 and all(top[w[:i] + (x + 1,) + w[i + 1:]] < k
                                   for i, x in enumerate(w) if x < M))


def oracle_admissible_region(h, radii):
    """The grown-box algorithm: every positive point of the per-axis box
    prod [-r_i, r_i], and a sum-ordered sweep of the capped genus box, cap =
    2 max h + M with M the largest radius, with domination pruning.  h(v) =
    h(clamp(v)), and f_cap(g_i, v_i) is 0 once |v_i| > g_i, so the point of
    each clamp class that binds hardest lies beyond every capped g_i on the
    clamped axes: a shell coordinate |v_i| = r_i is read as lying there, with
    f-term 0.  Returns (generators, admissibility predicate, cap)."""
    M, n = max(radii), len(radii)
    cap = 2 * max(map(h, box(radii))) + M
    # f_cap reads |v_i| only: keep the largest h per vector of absolute
    # values, None for a shell coordinate
    worst: dict = {}
    for v in box(radii):
        if (hv := h(v)) > 0:
            key = tuple(None if abs(x) == r else abs(x) for x, r in zip(v, radii))
            worst[key] = max(worst.get(key, 0), hv)

    def admissible(g):
        return all(hv <= sum(f_cap(gi, vi) for gi, vi in zip(g, v) if vi is not None)
                   for v, hv in worst.items())

    gens = []
    for g in sorted(product(range(cap + 1), repeat=n), key=lambda g: (sum(g), g)):
        if not any(all(map(ge, g, q)) for q in gens) and admissible(g):
            gens.append(g)
    return tuple(sorted(gens)), admissible, cap


def reference_projection_check(d, r):
    """`projection_check` by its definition: each generator of the region r,
    with coordinate i dropped, against the generators of the region of the
    sublink with component i deleted, from `brute_h` of that sublink's own
    descriptor."""
    problems = []
    if d.n == 1:
        return problems  # deleting the only component leaves the empty link
    for i in range(d.n):
        rest = tuple(j for j in range(d.n) if j != i)
        sub = sublink(d, rest)
        gens = reference_region(brute_h(sub), axis_radii(sub))
        for g in r.generators:
            proj = tuple(g[j] for j in rest)
            if not any(all(map(ge, proj, q)) for q in gens):
                problems.append(f"generator {g} projects outside the region of the sublink "
                                f"with component {i + 1} deleted")
    return problems


def reference_bound_weighted(h, genera):
    """2 h(s) - n + sum |s_i| at every s with |s_i| <= g_i, maximized."""
    return max(2 * h(s) - len(genera) + sum(map(abs, s)) for s in box(genera))


def reference_unlink_test(h, radii):
    """h = 0 at every point of the box prod [-r_i, r_i]."""
    return all(h(s) == 0 for s in box(radii))


def reference_sweep(H, radii):
    """The laws H >= 0 and unit steps checked point by point on
    prod [-r_i, r_i]: at each point the negative value first, else the
    failing steps e_1..e_k."""
    k = len(radii)
    for s in box(radii):
        v = H(s)
        if v < 0:
            yield f"H{s} = {v} is negative"
            continue
        for i in range(k):
            if s[i] > -radii[i]:
                down = H(s[:i] + (s[i] - 1,) + s[i + 1:])
                if down - v not in (0, 1):
                    yield f"step law fails: H at {s} minus e_{i + 1} jumps by {down - v}"


def reference_shell_holds(H, radii):
    """The shell law point by point on prod [-r_i, r_i]: for every axis i and
    every s with s_i = r_i, H at s_i = -r_i is H(s) + r_i."""
    return all(H(s[:i] + (-r,) + s[i + 1:]) == H(s) + r
               for i, r in enumerate(radii) for s in box(radii) if s[i] == r)


def torres_holds(d):
    """Whether every sublink polynomial of two or more variables vanishes at
    t_i = 1 for each of its axes i, Torres's condition at zero linking, read
    off the stored terms: the coefficients summed over each line of
    exponents along axis i are all 0."""
    for B in all_subsets(d.n):
        for i in range(len(B) if len(B) > 1 else 0):
            lines = {}
            for e, c in d.delta(B).terms.items():
                lines[e[:i] + e[i + 1:]] = lines.get(e[:i] + e[i + 1:], 0) + c
            if any(lines.values()):
                return False
    return True


def sublink_H(d, B, signs):
    """H of the sublink B, from `brute_H` of d at s_j = M_j for every j off
    B, where each sublink containing j contributes 0."""
    top, h = axis_radii(d), brute_h(d, signs)

    def H_B(s):
        at = list(top)
        for j, x in zip(B, s):
            at[j] = x
        return h(at) + unlink_H(at)

    return H_B


def reference_law_problems(d, B, signs, radii):
    """`reference_sweep` of the sublink B over prod [-r_j, r_j] (j in B)."""
    return reference_sweep(sublink_H(d, B, signs), radii)


def reference_report(d, signs):
    """The law problems of d's full link over its box prod [-M_i, M_i], on
    which `StabilizationError` renders them."""
    return list(reference_law_problems(d, tuple(range(d.n)), signs, axis_radii(d)))


def reference_sign_resolution(d):
    """The sign of every sublink's stored polynomial, chosen bottom up by
    point-by-point sweeps of the sublink's box: the stored sign unless only
    its negation passes the laws, unit steps (`reference_sweep`) and the
    shell law (`reference_shell_holds`); `SignResolutionError` if neither
    does."""
    signs = dict.fromkeys(all_subsets(d.n), 1)
    for B in signs:
        if len(B) > 1 and not d.delta(B).is_zero():
            radii = axis_radii(d, B)
            for sigma in (1, -1):
                signs[B] = sigma
                H_B = sublink_H(d, B, signs)
                if next(reference_sweep(H_B, radii), None) is None \
                        and reference_shell_holds(H_B, radii):
                    break
            else:
                raise SignResolutionError(
                    f"{d.name}: neither sign of the polynomial for subset "
                    f"{tuple(i + 1 for i in B)} yields a valid H-function; "
                    f"not an L-space link with this data")
    return signs
