"""The JSON descriptor format: a link as a JSON object, read and written.

A file holds the name, the components (a label and an optional "g4" each),
the linking matrix, the L-space assertion and one polynomial per nonempty
component subset, keyed by its 1-based indices joined by commas ("1,2").  A
polynomial is a list of terms {"exp": [...], "coef": int}, each exponent a
string such as "1" or "-1/2".  The structure {"disjoint_union": [...]} reads a
list of part descriptors instead; it loads as an ordinary descriptor and is
saved in the "atomic" form.  A descriptor keeps no linking matrix: reading
refuses a nonzero entry, and writing gives the zero matrix.  The rest of what
a file must satisfy is checked by the `LinkDescriptor` it builds.

A component's "g4" is optional: it is its genus, deg Delta of its knot
polynomial (`knot_genus`), which the writer emits.  The reader stores no
genus; it accepts null or that number, and refuses any other value with a
`ValidationError` naming the component and both numbers, as a file whose
genus contradicts its own polynomial is inconsistent data.

Only `--link` files use this module, so a catalog job never imports it.
Writing, `descriptor_to_dict`, lives in `jsonwriter`, which `cable` output
imports alone and `save_json` imports when it is called, so a `--link` job
never compiles it.
"""

from __future__ import annotations

import json

from .errors import ParseError, SchemaError, ValidationError
from .laurent import LaurentPoly
from .linkcat import Component, LinkDescriptor, Subset, _key_str, knot_genus


def _parse_key(s: str, n: int) -> Subset:
    try:
        idx = tuple(int(part) for part in s.split(","))
    except ValueError:
        raise SchemaError(f"bad subset key {s!r}")
    if any(i < 1 or i > n for i in idx) or len(set(idx)) != len(idx):
        raise SchemaError(f"subset key {s!r} out of range for {n} components")
    return tuple(sorted(i - 1 for i in idx))


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
        if not isinstance(c["label"], str):
            raise SchemaError("component 'label' must be a string")
        g4 = c.get("g4")
        if g4 is not None and (not _is_int(g4) or g4 < 0):
            raise SchemaError("component 'g4' must be a nonnegative integer or null")
        comps.append(Component(c["label"]))
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
            if B in alex:
                raise SchemaError(f"subset key {key_str!r} repeats subset {_key_str(B)}")
            alex[B] = _poly_from_list(items, len(B), f"alexander[{key_str!r}]")
    elif isinstance(structure, dict) and set(structure) == {"disjoint_union"}:
        if data["alexander"]:
            raise SchemaError("disjoint unions must not carry top-level 'alexander' data")
        if not isinstance(structure["disjoint_union"], list):
            raise SchemaError("'disjoint_union' must be a list of descriptors")
        from .linkops import disjoint_union
        parts = [descriptor_from_dict(p) for p in structure["disjoint_union"]]
        if [c for p in parts for c in p.components] != comps:
            raise SchemaError("parts of the disjoint union do not match 'components'")
        union = disjoint_union(*parts)
    else:
        raise SchemaError("'structure' must be \"atomic\" or {\"disjoint_union\": [...]}")
    nonzero = [f"nonzero linking number at ({i + 1},{j + 1})"
               for i, row in enumerate(linking) for j, x in enumerate(row) if x]
    if nonzero:
        raise SchemaError(f"{data['name']}: " + "; ".join(nonzero))
    if structure == "atomic":
        d = LinkDescriptor(data["name"], comps, alexander=alex, lspace_asserted=lspace)
    else:
        d = union._renamed(data["name"], lspace and union.lspace_asserted)
    for i, c in enumerate(data["components"]):
        g4, genus = c.get("g4"), knot_genus(d.alexander[(i,)])
        if g4 is not None and g4 != genus:
            raise ValidationError(f"{d.name}: component {i + 1} has 'g4' {g4}, but its "
                                  f"knot polynomial has genus {genus}")
    return d


def save_json(d: LinkDescriptor, path) -> None:
    from .jsonwriter import descriptor_to_dict
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(descriptor_to_dict(d), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_json(path) -> LinkDescriptor:
    with open(path, encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"JSON parse error: {exc}") from exc
    return descriptor_from_dict(data)
