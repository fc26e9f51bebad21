"""Cabling: the Alexander-polynomial transform and the region transform.

Replacing each component L_i of a link by its (p_i, q_i)-cable multiplies the
Alexander polynomial, after the substitution t_i -> t_i^{p_i}, by the closed
factor (t^{p q/2} - t^{-p q/2}) / (t^{q/2} - t^{-q/2}) per component.  A knot
follows the classical cabling formula Delta_K(t^p) * Delta_{T(p,q)}(t), with
the torus knot polynomial read off the semigroup generated by p and q.  On
genus regions the same operation acts by the coordinate map

    T(s)_i = p_i s_i + (p_i - 1)(q_i - 1) / 2,

and the region of the cable is the upward closure of the T-image.  Both routes
are implemented and can be cross-checked.  The polynomial side, the power
substitution t_i -> t_i^{p_i} and the closed factor, lives here rather than in
`laurent`, which every job loads.  Only the region functions import
`hfunction` and `region`, so building a cable descriptor loads neither.
"""

from __future__ import annotations

from math import gcd
from typing import Sequence

from .errors import UsageError, ValidationError
from .laurent import LaurentPoly, normalize_symmetric
from .linkcat import (Component, LinkDescriptor, Record, all_subsets,
                      require_valid)


class CableSpec(Record):
    """One coprime (p_i, q_i) pair per component; (1, q) pairs leave a
    component untouched."""

    __slots__ = ("pairs",)

    def __init__(self, pairs: tuple):
        pairs = tuple((int(p), int(q)) for p, q in pairs)
        for p, q in pairs:
            if p < 1 or q < 1:
                raise ValueError(f"cable parameters must be positive, got ({p}, {q})")
            if gcd(p, q) != 1:
                raise ValueError(f"cable parameters must be coprime, got ({p}, {q})")
        self._init(pairs)

    @property
    def n(self) -> int:
        return len(self.pairs)

    def genus_shift(self, i: int) -> int:
        p, q = self.pairs[i]
        return (p - 1) * (q - 1) // 2

    def largeness_warnings(self) -> list:
        """One warning per cabled component with q < 3p.  This is a heuristic,
        not a proven threshold: on two_bridge:3 a (2, 7) or (2, 9) cable of one
        component fails sign resolution unwarned (see test_cable_routes_agree)."""
        out = []
        for i, (p, q) in enumerate(self.pairs):
            if p > 1 and q < 3 * p:
                out.append(f"component {i + 1}: q/p = {q}/{p} < 3; the cable may "
                           f"fail to be an L-space link")
        return out


def parse_cable_spec(text: str) -> CableSpec:
    """Parse "p1:q1,p2:q2,..." into a CableSpec."""
    pairs = []
    for chunk in text.split(","):
        p, sep, q = chunk.partition(":")
        if not sep:
            raise UsageError(f"bad cable pair {chunk!r}; expected p:q")
        try:
            pairs.append((int(p), int(q)))
        except ValueError:
            raise UsageError(f"bad cable pair {chunk!r}; expected integers p:q")
    try:
        return CableSpec(tuple(pairs))
    except ValueError as exc:
        raise UsageError(str(exc))


def substitute_powers(f: LaurentPoly, powers: Sequence[int]) -> LaurentPoly:
    """Substitute t_i -> t_i^{p_i}; exponent vectors scale componentwise."""
    if len(powers) != f.nvars:
        raise ValueError("power vector has wrong arity")
    if any(p < 1 for p in powers):
        raise ValueError("powers must be positive")
    return LaurentPoly(
        f.nvars,
        {tuple(p * e for p, e in zip(powers, exp)): coef
         for exp, coef in f.terms.items()})


def geometric_cable_factor(p: int, q: int) -> LaurentPoly:
    """The one-variable factor (t^{pq/2} - t^{-pq/2}) / (t^{q/2} - t^{-q/2}).

    Returned in closed form as sum_{j=0}^{p-1} t^{q(p-1-2j)/2}, which multiplies
    back exactly against the denominator.
    """
    if p < 1 or q < 1:
        raise ValueError("cable parameters must be positive")
    if gcd(p, q) != 1:
        raise ValueError(f"cable parameters must be coprime, got ({p}, {q})")
    return LaurentPoly(1, {(q * (p - 1 - 2 * j),): 1 for j in range(p)})


def _cable_knot_poly(delta: LaurentPoly, p: int, q: int) -> LaurentPoly:
    """Alexander polynomial of the (p, q)-cable of a knot with polynomial delta.

    The cabling formula gives delta(t^p) * Delta_{T(p,q)}(t).  With S the
    semigroup generated by p and q and c = (p - 1)(q - 1), S contains every
    s >= c, so Delta_{T(p,q)} = (1 - t) * sum_{s in S} t^s is the polynomial
    sum_{s in S, s < c} (t^s - t^{s+1}) + t^c: the coefficient of t^e is
    [e in S] - [e - 1 in S] for 0 <= e <= c.  Every s <= c in S is a p + b q
    with a < q and b < p.
    """
    c = (p - 1) * (q - 1)
    semigroup = {a * p + b * q for a in range(q) for b in range(p)}
    torus = LaurentPoly(1, {(2 * e,): (e in semigroup) - (e - 1 in semigroup)
                            for e in range(c + 1)})
    return normalize_symmetric(substitute_powers(delta, (p,)) * torus)


def _embed(poly: LaurentPoly, nvars: int, position: int) -> LaurentPoly:
    """Place a one-variable polynomial on coordinate ``position`` of n variables."""
    terms = {}
    for (e,), c in poly.terms.items():
        key = [0] * nvars
        key[position] = e
        terms[tuple(key)] = c
    return LaurentPoly(nvars, terms)


def _cable_link_poly(delta: LaurentPoly, pairs) -> LaurentPoly:
    out = substitute_powers(delta, tuple(p for p, _ in pairs))
    for i, (p, q) in enumerate(pairs):
        out = out * _embed(geometric_cable_factor(p, q), len(pairs), i)
    return normalize_symmetric(out)


def cable_alexander(d: LinkDescriptor, spec: CableSpec) -> LinkDescriptor:
    """Descriptor of the componentwise cable of a link.

    Every sublink of the cable is the cable of the corresponding sublink, so
    the whole Alexander map transforms subset by subset.  Component 4-genera
    update along g -> p*g + (p-1)(q-1)/2 when known.
    """
    require_valid(d)
    if spec.n != d.n:
        raise ValueError(f"cable spec has {spec.n} pairs but the link has "
                         f"{d.n} components")
    alex = {}
    for B in all_subsets(d.n):
        delta = d.delta(B)
        if len(B) == 1:
            p, q = spec.pairs[B[0]]
            alex[B] = _cable_knot_poly(delta, p, q)
        elif delta.is_zero():
            alex[B] = delta
        else:
            alex[B] = _cable_link_poly(delta, [spec.pairs[i] for i in B])
    comps = []
    for i, c in enumerate(d.components):
        p, q = spec.pairs[i]
        if p == 1 and q == 1:
            comps.append(c)
            continue
        g4 = None if c.g4 is None else p * c.g4 + spec.genus_shift(i)
        comps.append(Component(f"({p},{q})-cable of {c.label}", g4))
    name = f"{d.name}_cable({','.join(f'{p}:{q}' for p, q in spec.pairs)})"
    return LinkDescriptor(name, comps, alexander=alex,
                          lspace_asserted=d.lspace_asserted)


def T_transform(spec: CableSpec, s: Sequence[int]) -> tuple:
    """Componentwise s_i -> p_i s_i + (p_i - 1)(q_i - 1)/2."""
    s = tuple(s)
    if len(s) != spec.n:
        raise ValueError("point dimension does not match the cable spec")
    return tuple(p * x + spec.genus_shift(i)
                 for i, ((p, _), x) in enumerate(zip(spec.pairs, s)))


def region_via_T(r: UpwardClosedRegion, spec: CableSpec) -> UpwardClosedRegion:
    """Image of an upward-closed region under the cable transform.

    T is strictly monotone componentwise, so the upward closure of the image
    is generated by the images of the generators (`UpwardClosedRegion`
    minimalizes them).
    """
    from .region import UpwardClosedRegion
    if r.n != spec.n:
        raise ValueError("region dimension does not match the cable spec")
    return UpwardClosedRegion(r.n, tuple(T_transform(spec, g) for g in r.generators))


def cable_consistency_check(d: LinkDescriptor, spec: CableSpec,
                            force: bool = False) -> dict:
    """Compare the two routes to the cable's region.

    Route one recomputes h from the cabled Alexander data; route two transforms
    the region of the original link.  They agree generator-for-generator for
    honest L-space cables; disagreement flags either a bug or a violated
    largeness hypothesis.  Sharpness transfers the same way: if the original
    region is realized by disjoint surfaces, so is the transformed one.  The
    report carries the cabled descriptor under "cabled".
    """
    from .hfunction import HTable
    from .region import region_from_h
    cabled = cable_alexander(d, spec)
    warnings = spec.largeness_warnings()
    transformed = region_via_T(region_from_h(HTable(d, force=force)), spec)
    try:
        direct, error = region_from_h(HTable(cabled, force=force)).generators, None
    except ValidationError as exc:
        # The cabled Alexander data does not produce a valid H-function: the
        # cable is not an L-space link (small q/p), so the direct route is out.
        direct, error = None, str(exc)
    return {
        "cabled": cabled,
        "equal": direct == transformed.generators,
        "direct_generators": direct,
        "direct_error": error,
        "transformed_generators": transformed.generators,
        "warnings": warnings,
    }
