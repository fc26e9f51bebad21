"""The catalog's other links: the unknot, the right-handed trefoil, unlinks,
the Borromean rings and mirror L7a3."""

from __future__ import annotations

from .laurent import LaurentPoly
from .linkcat import Component, LinkDescriptor


def _trefoil_poly() -> LaurentPoly:
    return LaurentPoly.from_terms(1, [(1, (1,)), (-1, (0,)), (1, (-1,))])


def make_unknot() -> LinkDescriptor:
    return LinkDescriptor("unknot", [Component("unknot")],
                          alexander={(0,): LaurentPoly.one(1)}, lspace_asserted=True)


def make_trefoil_rh() -> LinkDescriptor:
    return LinkDescriptor("trefoil_rh", [Component("right-handed trefoil")],
                          alexander={(0,): _trefoil_poly()}, lspace_asserted=True)


def make_borromean() -> LinkDescriptor:
    # prod_i (t_i^(1/2) - t_i^(-1/2)): coefficient a*b*c at doubled (a, b, c)
    signs = (1, -1)
    triple = LaurentPoly(3, {(a, b, c): a * b * c
                             for a in signs for b in signs for c in signs})
    alex = {(i,): LaurentPoly.one(1) for i in range(3)}
    alex.update({B: LaurentPoly.zero(2) for B in [(0, 1), (0, 2), (1, 2)]})
    alex[(0, 1, 2)] = triple
    return LinkDescriptor(
        "borromean", [Component("unknot")] * 3,
        alexander=alex, lspace_asserted=True)


def make_mirror_l7a3() -> LinkDescriptor:
    # The polynomial carries the trefoil factor (t2 + t2^-1) on the second
    # variable, so component 2 must be the trefoil, even though link tables
    # usually list the trefoil component of L7a3 first.
    # Doubled exponents: f1 = t1^(1/2) - t1^(-1/2), f2 likewise in t2.
    f1 = LaurentPoly(2, {(1, 0): 1, (-1, 0): -1})
    f2 = LaurentPoly(2, {(0, 1): 1, (0, -1): -1})
    f3 = LaurentPoly(2, {(0, 2): 1, (0, -2): 1})
    delta = -(f1 * f2 * f3)
    return LinkDescriptor(
        "mirror_L7a3",
        [Component("unknot"), Component("right-handed trefoil")],
        alexander={(0,): LaurentPoly.one(1), (1,): _trefoil_poly(), (0, 1): delta},
        lspace_asserted=True)


def make_unlink(n: int) -> LinkDescriptor:
    if n < 1:
        raise ValueError("unlink needs at least one component")
    if n == 1:
        return make_unknot()
    from .linkops import disjoint_union
    return disjoint_union(*(make_unknot() for _ in range(n)))._renamed(f"unlink({n})", True)
