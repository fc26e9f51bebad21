"""Link data model: components, zero linking matrix, per-sublink Alexander
polynomials, disjoint unions, JSON persistence, and the built-in catalog.

A descriptor stores one symmetrized Alexander polynomial for every nonempty
subset of its components.  A disjoint union is an ordinary descriptor: each
part's polynomials sit at its component offset, and every subset mixing parts
has zero polynomial, which makes the H-function additive over the parts.

Component subsets are 0-based index tuples in the Python API; the JSON schema
uses 1-based comma-joined keys like "1,2".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Mapping, Optional, Sequence

from .errors import ParseError, SchemaError, SymmetryError, ValidationError
from .laurent import (LaurentPoly, involution, normalize_symmetric,
                      symmetry_sign)

Subset = tuple  # sorted tuple of 0-based component indices


@dataclass(frozen=True)
class Component:
    label: str
    g4: Optional[int] = None  # smooth 4-genus of the component, when known


def subset_key(B: Iterable[int]) -> Subset:
    key = tuple(sorted(set(B)))
    if not key:
        raise ValueError("component subset must be nonempty")
    return key


def all_subsets(n: int):
    """All nonempty subsets of range(n), by size then lexicographically."""
    for size in range(1, n + 1):
        yield from combinations(range(n), size)


class LinkDescriptor:
    """An n-component link with vanishing pairwise linking numbers."""

    __slots__ = ("name", "components", "linking", "alexander",
                 "lspace_asserted")

    def __init__(self, name: str, components: Sequence[Component],
                 alexander: Mapping[Iterable[int], LaurentPoly] | None = None,
                 linking: Sequence[Sequence[int]] | None = None,
                 lspace_asserted: bool = False):
        components = tuple(components)
        n = len(components)
        if n == 0:
            raise ValueError("a link needs at least one component")
        if linking is None:
            linking = tuple((0,) * n for _ in range(n))
        else:
            linking = tuple(tuple(row) for row in linking)
        if len(linking) != n or any(len(row) != n for row in linking):
            raise ValueError("linking matrix has wrong shape")
        alex = {}
        if alexander:
            for B, poly in alexander.items():
                key = subset_key(B)
                if key[-1] >= n:
                    raise ValueError(f"subset {key} out of range for {n} components")
                if poly.nvars != len(key):
                    raise ValueError(f"polynomial for subset {key} has wrong arity")
                alex[key] = poly
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "components", components)
        object.__setattr__(self, "linking", linking)
        object.__setattr__(self, "alexander", alex)
        object.__setattr__(self, "lspace_asserted", bool(lspace_asserted))

    def __setattr__(self, name, value):
        raise AttributeError("LinkDescriptor is immutable")

    @property
    def n(self) -> int:
        return len(self.components)

    def delta(self, B: Iterable[int]) -> LaurentPoly:
        """Symmetrized Alexander polynomial of the sublink indexed by B."""
        key = subset_key(B)
        if key not in self.alexander:
            raise ValidationError(f"{self.name}: missing Alexander data for subset {key}")
        return self.alexander[key]

    def _canonical(self):
        return (self.name, self.components, self.linking,
                tuple(sorted(self.alexander.items())), self.lspace_asserted)

    def __eq__(self, other) -> bool:
        return isinstance(other, LinkDescriptor) and self._canonical() == other._canonical()

    def __repr__(self) -> str:
        return f"<LinkDescriptor {self.name!r}: {self.n} component(s)>"


# -- validation ---------------------------------------------------------------


def validate_descriptor(d: LinkDescriptor) -> list:
    """Check the standing invariants; return a list of violations (empty = valid)."""
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


def require_valid(d: LinkDescriptor):
    problems = validate_descriptor(d)
    if problems:
        raise ValidationError(f"{d.name}: " + "; ".join(problems))


# -- structural operations ------------------------------------------------------


def sublink(d: LinkDescriptor, B: Iterable[int]) -> LinkDescriptor:
    """Descriptor of the sublink with the given (0-based) component indices."""
    key = subset_key(B)
    if key[-1] >= d.n:
        raise ValueError(f"subset {key} out of range")
    if key == tuple(range(d.n)):
        return d
    comps = tuple(d.components[i] for i in key)
    name = f"{d.name}[{','.join(str(i + 1) for i in key)}]"
    alex = {}
    for C in all_subsets(len(key)):
        orig = tuple(key[c] for c in C)
        if orig in d.alexander:
            alex[C] = d.alexander[orig]
    return LinkDescriptor(name, comps, alexander=alex,
                          lspace_asserted=d.lspace_asserted)


def disjoint_union(*links: LinkDescriptor) -> LinkDescriptor:
    """Split union of the given links; H-functions add componentwise.

    Each part's polynomials and linking numbers move to its component offset,
    and every subset mixing parts gets the zero polynomial.
    """
    if not links:
        raise ValueError("a disjoint union needs at least one link")
    owner = [k for k, d in enumerate(links) for _ in d.components]
    n = len(owner)
    alex = {B: LaurentPoly.zero(len(B)) for B in all_subsets(n)
            if owner[B[0]] != owner[B[-1]]}
    linking = [[0] * n for _ in range(n)]
    offset = 0
    for d in links:
        alex.update({tuple(i + offset for i in B): poly for B, poly in d.alexander.items()})
        for i, row in enumerate(d.linking):
            linking[offset + i][offset:offset + d.n] = row
        offset += d.n
    return LinkDescriptor(" + ".join(d.name for d in links),
                          tuple(c for d in links for c in d.components),
                          alexander=alex, linking=linking,
                          lspace_asserted=all(d.lspace_asserted for d in links))


# -- catalog -------------------------------------------------------------------


def _unknot_poly() -> LaurentPoly:
    return LaurentPoly.one(1)


def _trefoil_poly() -> LaurentPoly:
    return LaurentPoly.from_terms(1, [(1, (1,)), (-1, (0,)), (1, (-1,))])


def make_unknot() -> LinkDescriptor:
    return LinkDescriptor("unknot", [Component("unknot", g4=0)],
                          alexander={(0,): _unknot_poly()}, lspace_asserted=True)


def make_trefoil_rh() -> LinkDescriptor:
    return LinkDescriptor("trefoil_rh", [Component("right-handed trefoil", g4=1)],
                          alexander={(0,): _trefoil_poly()}, lspace_asserted=True)


def two_bridge_poly(k: int) -> LaurentPoly:
    """Alexander polynomial of the two-bridge link family member with k twists:

        (-1)^k  sum over |i+1/2| + |j+1/2| <= k  of  (-1)^{i+j} t1^{i+1/2} t2^{j+1/2}.
    """
    half = Fraction(1, 2)
    terms = []
    for i in range(-k - 1, k + 1):
        for j in range(-k - 1, k + 1):
            if abs(i + half) + abs(j + half) <= k:
                sign = 1 if (k + i + j) % 2 == 0 else -1
                terms.append((sign, (i + half, j + half)))
    return LaurentPoly.from_terms(2, terms)


def make_two_bridge(k: int) -> LinkDescriptor:
    if k < 1:
        raise ValueError("two_bridge parameter must be a positive integer")
    name = "whitehead" if k == 1 else f"two_bridge({k})"
    return LinkDescriptor(
        name,
        [Component("unknot", g4=0), Component("unknot", g4=0)],
        alexander={(0,): _unknot_poly(), (1,): _unknot_poly(),
                   (0, 1): two_bridge_poly(k)},
        lspace_asserted=True)


def make_whitehead() -> LinkDescriptor:
    return make_two_bridge(1)


def make_borromean() -> LinkDescriptor:
    half = Fraction(1, 2)
    factor = LaurentPoly.from_terms(1, [(1, (half,)), (-1, (-half,))])
    terms = []
    for (e1,), c1 in factor.terms.items():
        for (e2,), c2 in factor.terms.items():
            for (e3,), c3 in factor.terms.items():
                terms.append((c1 * c2 * c3,
                              (Fraction(e1, 2), Fraction(e2, 2), Fraction(e3, 2))))
    triple = LaurentPoly.from_terms(3, terms)
    alex = {(i,): _unknot_poly() for i in range(3)}
    alex.update({B: LaurentPoly.zero(2) for B in [(0, 1), (0, 2), (1, 2)]})
    alex[(0, 1, 2)] = triple
    return LinkDescriptor(
        "borromean", [Component("unknot", g4=0)] * 3,
        alexander=alex, lspace_asserted=True)


def make_mirror_l7a3() -> LinkDescriptor:
    # The polynomial carries the trefoil factor (t2 + t2^-1) on the second
    # variable, so component 2 must be the trefoil, even though link tables
    # usually list the trefoil component of L7a3 first.
    half = Fraction(1, 2)
    f1 = LaurentPoly.from_terms(2, [(1, (half, 0)), (-1, (-half, 0))])
    f2 = LaurentPoly.from_terms(2, [(1, (0, half)), (-1, (0, -half))])
    f3 = LaurentPoly.from_terms(2, [(1, (0, 1)), (1, (0, -1))])
    delta = -(f1 * f2 * f3)
    return LinkDescriptor(
        "mirror_L7a3",
        [Component("unknot", g4=0), Component("right-handed trefoil", g4=1)],
        alexander={(0,): _unknot_poly(), (1,): _trefoil_poly(), (0, 1): delta},
        lspace_asserted=True)


def make_unlink(n: int) -> LinkDescriptor:
    if n < 1:
        raise ValueError("unlink needs at least one component")
    if n == 1:
        return make_unknot()
    out = disjoint_union(*(make_unknot() for _ in range(n)))
    return LinkDescriptor(f"unlink({n})", out.components, alexander=out.alexander,
                          lspace_asserted=True)


def make_whitehead_cable(p: int, q: int) -> LinkDescriptor:
    from .cable import CableSpec, cable_alexander
    d = cable_alexander(make_whitehead(), CableSpec(((p, q), (1, 1))))
    return LinkDescriptor(f"whitehead_cable({p},{q})", d.components,
                          alexander=d.alexander, lspace_asserted=True)


def make_two_bridge_cable(k: int, p1: int, q1: int, p2: int, q2: int) -> LinkDescriptor:
    from .cable import CableSpec, cable_alexander
    d = cable_alexander(make_two_bridge(k), CableSpec(((p1, q1), (p2, q2))))
    return LinkDescriptor(f"two_bridge_cable({k},{p1},{q1},{p2},{q2})", d.components,
                          alexander=d.alexander, lspace_asserted=True)


@dataclass(frozen=True)
class CatalogEntry:
    key: str
    params: str  # human-readable parameter signature
    generator: callable


CATALOG = {
    "unknot": CatalogEntry("unknot", "", make_unknot),
    "trefoil_rh": CatalogEntry("trefoil_rh", "", make_trefoil_rh),
    "two_bridge": CatalogEntry("two_bridge", "k", make_two_bridge),
    "whitehead": CatalogEntry("whitehead", "", make_whitehead),
    "borromean": CatalogEntry("borromean", "", make_borromean),
    "mirror_L7a3": CatalogEntry("mirror_L7a3", "", make_mirror_l7a3),
    "unlink": CatalogEntry("unlink", "n", make_unlink),
    "whitehead_cable": CatalogEntry("whitehead_cable", "p,q", make_whitehead_cable),
    "two_bridge_cable": CatalogEntry("two_bridge_cable", "k,p1,q1,p2,q2",
                                     make_two_bridge_cable),
}


def catalog(key: str, *params: int) -> LinkDescriptor:
    if key not in CATALOG:
        raise ValueError(f"unknown catalog key {key!r}; known: {', '.join(sorted(CATALOG))}")
    return CATALOG[key].generator(*params)


def catalog_list():
    return [CATALOG[k] for k in sorted(CATALOG)]


# -- JSON persistence ----------------------------------------------------------


def _key_str(B: Subset) -> str:
    return ",".join(str(i + 1) for i in B)


def _parse_key(s: str, n: int) -> Subset:
    try:
        idx = tuple(int(part) for part in s.split(","))
    except ValueError:
        raise SchemaError(f"bad subset key {s!r}")
    if any(i < 1 or i > n for i in idx) or len(set(idx)) != len(idx):
        raise SchemaError(f"subset key {s!r} out of range for {n} components")
    return tuple(sorted(i - 1 for i in idx))


def _exp_str(dexp: int) -> str:
    return str(dexp // 2) if dexp % 2 == 0 else f"{dexp}/2"


def _parse_exp(s: str) -> int:
    if not isinstance(s, str):
        raise SchemaError(f"exponent must be a string, got {s!r}")
    if "/" in s:
        num, _, den = s.partition("/")
        try:
            num, den = int(num), int(den)
        except ValueError:
            raise SchemaError(f"bad exponent {s!r}")
        if den not in (1, 2):
            raise SchemaError(f"bad exponent {s!r}: denominator must divide 2")
        return num * (2 // den)
    try:
        return 2 * int(s)
    except ValueError:
        raise SchemaError(f"bad exponent {s!r}")


def _is_int(x) -> bool:
    """A JSON integer; JSON booleans load as bool, a subclass of int."""
    return isinstance(x, int) and not isinstance(x, bool)


def _poly_to_list(poly: LaurentPoly) -> list:
    return [{"exp": [_exp_str(e) for e in exp], "coef": coef}
            for exp, coef in poly.sorted_terms()]


def _poly_from_list(items, nvars: int, where: str) -> LaurentPoly:
    if not isinstance(items, list):
        raise SchemaError(f"{where}: expected a list of terms")
    terms = {}
    for item in items:
        if not isinstance(item, dict) or set(item) != {"exp", "coef"}:
            raise SchemaError(f"{where}: each term needs exactly 'exp' and 'coef'")
        if not _is_int(item["coef"]):
            raise SchemaError(f"{where}: coefficient must be an integer")
        exp = item["exp"]
        if not isinstance(exp, list) or len(exp) != nvars:
            raise SchemaError(f"{where}: exponent vector must have {nvars} entries")
        key = tuple(_parse_exp(e) for e in exp)
        terms[key] = terms.get(key, 0) + item["coef"]
    return LaurentPoly(nvars, terms)


def descriptor_to_dict(d: LinkDescriptor) -> dict:
    return {
        "name": d.name,
        "components": [{"label": c.label, "g4": c.g4} for c in d.components],
        "linking": [list(row) for row in d.linking],
        "lspace": d.lspace_asserted,
        "alexander": {_key_str(B): _poly_to_list(poly)
                      for B, poly in sorted(d.alexander.items())},
        "structure": "atomic",
    }


def descriptor_from_dict(data: dict) -> LinkDescriptor:
    if not isinstance(data, dict):
        raise SchemaError("descriptor must be a JSON object")
    for field in ("name", "components", "linking", "alexander", "structure"):
        if field not in data:
            raise SchemaError(f"missing field {field!r}")
    if not isinstance(data["name"], str):
        raise SchemaError("'name' must be a string")
    comps = []
    if not isinstance(data["components"], list) or not data["components"]:
        raise SchemaError("'components' must be a nonempty list")
    for c in data["components"]:
        if not isinstance(c, dict) or "label" not in c:
            raise SchemaError("each component needs a 'label'")
        g4 = c.get("g4")
        if g4 is not None and (not _is_int(g4) or g4 < 0):
            raise SchemaError("component 'g4' must be a nonnegative integer or null")
        comps.append(Component(str(c["label"]), g4))
    n = len(comps)
    linking = data["linking"]
    if (not isinstance(linking, list) or len(linking) != n
            or any(not isinstance(r, list) or len(r) != n for r in linking)
            or any(not _is_int(x) for r in linking for x in r)):
        raise SchemaError(f"'linking' must be an {n}x{n} integer matrix")
    lspace = data.get("lspace", False)
    if not isinstance(lspace, bool):
        raise SchemaError("'lspace' must be a boolean")

    structure = data["structure"]
    if structure == "atomic":
        if not isinstance(data["alexander"], dict):
            raise SchemaError("'alexander' must be an object")
        alex = {}
        for key_str, items in data["alexander"].items():
            B = _parse_key(key_str, n)
            alex[B] = _poly_from_list(items, len(B), f"alexander[{key_str!r}]")
        return LinkDescriptor(data["name"], comps, alexander=alex,
                              linking=linking, lspace_asserted=lspace)
    if isinstance(structure, dict) and set(structure) == {"disjoint_union"}:
        if data["alexander"]:
            raise SchemaError("disjoint unions must not carry top-level 'alexander' data")
        parts = [descriptor_from_dict(p) for p in structure["disjoint_union"]]
        if [c for p in parts for c in p.components] != comps:
            raise SchemaError("parts of the disjoint union do not match 'components'")
        union = disjoint_union(*parts)
        if [list(row) for row in union.linking] != linking:
            raise SchemaError("parts of the disjoint union do not match 'linking'")
        return LinkDescriptor(data["name"], comps, alexander=union.alexander,
                              linking=linking,
                              lspace_asserted=lspace and union.lspace_asserted)
    raise SchemaError("'structure' must be \"atomic\" or {\"disjoint_union\": [...]}")


def save_json(d: LinkDescriptor, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(descriptor_to_dict(d), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> LinkDescriptor:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"JSON parse error: {exc}") from exc
    d = descriptor_from_dict(data)
    require_valid(d)
    return d
