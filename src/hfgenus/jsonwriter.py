"""The writing half of the JSON descriptor format (see `linkjson`): a
descriptor as the JSON object that `linkjson` reads back.

`cable` output needs only this half, so a `cable` job never compiles the
reader and its schema checks.  Each component's "g4" is written as its
genus, deg Delta of its knot polynomial (`linkcat.knot_genus`).
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .linkcat import LinkDescriptor, _key_str, knot_genus


def _exp_str(dexp: int) -> str:
    return str(dexp // 2) if dexp % 2 == 0 else f"{dexp}/2"


def _poly_to_list(poly: LaurentPoly) -> list:
    return [{"exp": [_exp_str(e) for e in exp], "coef": coef}
            for exp, coef in sorted(poly.terms.items())]


def descriptor_to_dict(d: LinkDescriptor) -> dict:
    return {
        "name": d.name,
        "components": [{"label": c.label, "g4": knot_genus(d.alexander[(i,)])}
                       for i, c in enumerate(d.components)],
        "linking": [[0] * d.n for _ in range(d.n)],
        "lspace": d.lspace_asserted,
        "alexander": {_key_str(B): _poly_to_list(poly)
                      for B, poly in sorted(d.alexander.items())},
        "structure": "atomic",
    }
