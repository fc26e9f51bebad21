"""Link data model: components, per-sublink Alexander polynomials, validation,
and the built-in catalog.

A descriptor stores one symmetrized Alexander polynomial for every nonempty
subset of its components, each subset given once, and is valid once built:
its constructor checks each polynomial's symmetry term by term, and imports
`symmetry` only to describe a polynomial that fails.  The paper covers only
links with vanishing pairwise linking numbers, so a descriptor stores no
linking matrix.  Sublinks and disjoint unions are `linkops`, which only the
unlink and union files need, so a catalog job of another link never compiles
them.

The catalog's keys and parameters live here.  Its makers live in one module
per family, `catalog_two_bridge`, `catalog_cables` and `catalog_basic`, and
`catalog` imports only the module of the key it is asked for: a `--link` job
or `catalog-list` compiles no maker, and a catalog job only its own family's.

Component subsets are 0-based index tuples in the Python API; the JSON schema
uses 1-based comma-joined keys like "1,2".  The JSON reader is `linkjson`,
which only `--link` files need, and the writer is `jsonwriter`, which
`cable` output and `save_json` need; a catalog job compiles neither, and a
`--link` job only the reader.  `descriptor_to_dict`, `descriptor_from_dict`,
`load_json` and `save_json` still read from this module, importing their
module on first use.

A component is a label only: its genus is deg Delta of its knot polynomial
(`knot_genus`), which the data fix, so no descriptor stores it.

`Component`, `LinkDescriptor` and `CatalogEntry` are `Record`s, the
immutable value class in `laurent`, as every polynomial is: no field of a
descriptor or of its polynomials can be assigned or deleted.
"""

from __future__ import annotations

from itertools import combinations
from operator import neg
from typing import Iterable, Mapping, Sequence

from .errors import SymmetryError, ValidationError
from .laurent import LaurentPoly, Record, symmetry_sign

Subset = tuple  # sorted tuple of distinct 0-based component indices


class Component(Record):
    __slots__ = ("label",)

    def __init__(self, label: str):
        self._init(label)  # its genus is read off its knot polynomial: `knot_genus`


def subset_key(B: Iterable[int]) -> Subset:
    key = tuple(sorted(B))
    if not key:
        raise ValueError("component subset must be nonempty")
    if len(set(key)) != len(key):
        raise ValueError(f"component subset {key} repeats an index")
    return key


def _key_in_range(B: Iterable[int], n: int) -> Subset:
    key = subset_key(B)
    if key[0] < 0 or key[-1] >= n:
        raise ValueError(f"subset {key} out of range for {n} components")
    return key


def _key_str(B: Subset) -> str:
    """The JSON form of a subset key: 1-based indices joined by commas."""
    return ",".join(str(i + 1) for i in B)


def all_subsets(n: int):
    """All nonempty subsets of range(n), by size then lexicographically."""
    for size in range(1, n + 1):
        yield from combinations(range(n), size)


class LinkDescriptor(Record):
    """An n-component link with vanishing pairwise linking numbers.

    A descriptor is valid once built: the constructor refuses data that the
    H-function cannot be read from, raising `ValidationError` with every
    problem.  `alexander` is a plain dict from subset to polynomial; it must
    not be mutated."""

    __slots__ = ("name", "components", "alexander", "lspace_asserted")
    __hash__ = None  # the polynomials sit in a dict

    def __init__(self, name: str, components: Sequence[Component],
                 alexander: Mapping[Iterable[int], LaurentPoly] | None = None,
                 lspace_asserted: bool = False):
        components = tuple(components)
        n = len(components)
        if n == 0:
            raise ValueError("a link needs at least one component")
        alex = {}
        if alexander:
            for B, poly in alexander.items():
                key = _key_in_range(B, n)
                if poly.nvars != len(key):
                    raise ValueError(f"polynomial for subset {key} has wrong arity")
                if key in alex:
                    raise ValueError(f"subset {key} is given twice")
                alex[key] = poly
        problems = _problems(n, alex)
        if problems:
            raise ValidationError(f"{name}: " + "; ".join(problems))
        self._init(name, components, alex, bool(lspace_asserted))

    @property
    def n(self) -> int:
        return len(self.components)

    def delta(self, B: Iterable[int]) -> LaurentPoly:
        """Symmetrized Alexander polynomial of the sublink indexed by B; a
        subset out of range raises `ValueError`, as in the constructor."""
        return self.alexander[_key_in_range(B, self.n)]

    def _renamed(self, name: str, lspace_asserted: bool) -> LinkDescriptor:
        """This link under another name and L-space assertion, its components
        and polynomials shared: they were checked when it was built, so they
        are not checked again."""
        out = object.__new__(LinkDescriptor)
        out._init(name, self.components, self.alexander, lspace_asserted)
        return out

    def __repr__(self) -> str:
        return f"<LinkDescriptor {self.name!r}: {self.n} component(s)>"


def knot_genus(delta: LaurentPoly) -> int:
    """The genus of a link's component, read off its knot polynomial delta as
    its top degree: the largest doubled exponent, halved (0 for the unknot).

    Every component of an L-space link is an L-space knot, since sublinks of
    L-space links are L-space links (Liu, "L-space surgeries on links",
    Quantum Topology 2017).  An L-space knot K is fibred (Ni, "Knot Floer
    homology detects fibred knots", Invent. Math. 2007), so g(K) =
    deg Delta_K, and tau(K) = g(K) (Ozsvath-Szabo, "On knot Floer homology
    and lens space surgeries", 2005) with |tau| <= g_4 <= g (Ozsvath-Szabo,
    "Knot Floer homology and the four-ball genus", 2003), so g_4(K) =
    deg Delta_K as well.  The value presupposes the L-space property exactly
    as the H-function formula does, which `HTable(..., force=True)` already
    accepts.  A knot polynomial is symmetric, so its top degree is half its
    span, never negative."""
    return max(delta.terms)[0] // 2


# -- validation ---------------------------------------------------------------


def _problems(n: int, alexander: dict) -> list:
    """The standing invariants that the polynomials of an n-component link,
    keyed by sorted subset, break; empty when they are valid."""
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
        if not _symmetric_as_stored(poly, len(B)):  # poly is nonzero here
            from .symmetry import involution, normalize_symmetric
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


def _symmetric_as_stored(poly: LaurentPoly, k: int) -> bool:
    """terms[-e] == symmetry_sign(k) * c for every term (so the support box is
    centered too) and, for a knot, value 1 at t=1.  Then `normalize_symmetric`
    gives poly and `involution` gives the sign times poly: no message."""
    sign = symmetry_sign(k)
    terms = poly.terms
    return (all(terms.get(tuple(map(neg, e))) == sign * c for e, c in terms.items())
            and (k > 1 or poly.evaluate_at_one() == 1))


# -- catalog -------------------------------------------------------------------


class CatalogEntry(Record):
    __slots__ = ("key", "params", "generator")

    def __init__(self, key: str, params: str, generator: callable):
        self._init(key, params, generator)  # params: human-readable signature


def _maker(family: str, name: str):
    """The maker `name` of the module `hfgenus.catalog_<family>`, which it
    imports on its first call: a job compiles its own family's makers only."""
    def make(*params):
        from importlib import import_module
        return getattr(import_module(f"{__package__}.catalog_{family}"), name)(*params)
    return make


# key: (params, the family whose module holds its maker, the maker)
CATALOG = {key: CatalogEntry(key, params, _maker(family, maker))
           for key, (params, family, maker) in {
               "unknot": ("", "basic", "make_unknot"),
               "trefoil_rh": ("", "basic", "make_trefoil_rh"),
               "two_bridge": ("k", "two_bridge", "make_two_bridge"),
               "whitehead": ("", "two_bridge", "make_whitehead"),
               "borromean": ("", "basic", "make_borromean"),
               "mirror_L7a3": ("", "basic", "make_mirror_l7a3"),
               "unlink": ("n", "basic", "make_unlink"),
               "whitehead_cable": ("p,q", "cables", "make_whitehead_cable"),
               "two_bridge_cable": ("k,p1,q1,p2,q2", "cables", "make_two_bridge_cable"),
           }.items()}


def catalog(key: str, *params: int) -> LinkDescriptor:
    if key not in CATALOG:
        raise ValueError(f"unknown catalog key {key!r}; known: {', '.join(sorted(CATALOG))}")
    entry = CATALOG[key]
    arity = entry.params.count(",") + 1 if entry.params else 0
    if len(params) != arity:
        wanted = f"the parameters {entry.params}" if arity else "no parameters"
        raise ValueError(f"catalog key {key!r} takes {wanted}, got {len(params)}")
    return entry.generator(*params)


def catalog_list():
    return [CATALOG[k] for k in sorted(CATALOG)]


# -- JSON format (`linkjson`) ---------------------------------------------------


def __getattr__(name):
    """The JSON format lives in `linkjson`, and its writing half in
    `jsonwriter`; its four public names still read from here (PEP 562),
    importing the module that holds the name on its first read, because
    `perfbench/job.py` and `perfbench/workloads.py` read them here."""
    if name == "descriptor_to_dict":
        from .jsonwriter import descriptor_to_dict
        return descriptor_to_dict
    if name in ("descriptor_from_dict", "load_json", "save_json"):
        from . import linkjson
        return getattr(linkjson, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
