"""Print the verdict of `HTable` on a fixed list of inputs, one line each, so
that two source trees can be compared with `diff`.

    PYTHONPATH=TREE/src python tools/verdicts.py

The hfgenus package is the one on PYTHONPATH, so the same list runs on any
tree; the inputs come from this checkout's tests/oracles.py.  Each input is
built with force=True, and its line is its name and then, tab-separated:
- for a table that builds: "valid", `sign_resolution`, `flipped_signs()`, a
  digest of h over the box prod [-M_i - 1, M_i + 1], one point past each
  side of the box, read point by point through `HTable.h`, then
  `corners()`, `staircases()`, the generators of `admissible_region` and
  `best_lower_bound`;
- for a refused one: the exception's class and message, and for a
  `StabilizationError` the count and a digest of its `problems`, and its
  `flipped` subsets.
The last line counts the inputs per verdict.  The inputs, in order: every
named input of tests/oracles.py, every catalog key with the parameters of
`CATALOG_PARAMS`, the cables the benchmark builds, 600 `raw_draw`s of
random.Random(8) and 400 `raw_triple_draw`s of random.Random(12), each
member of `pair_scope()` as stored and with its pair sign negated, and the
knots -t + 3 - 1/t and 2t - 3 + 2/t, neither of them an L-space knot, put in
place of each component of five catalog links.
"""

from __future__ import annotations

import hashlib
import random
import sys
from collections import Counter
from itertools import product
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from oracles import (CATALOG_PARAMS, LINKS, axis_radii, benchmark_cables,  # noqa: E402
                     flipped, pair_scope, raw_draw, raw_triple_draw)

from hfgenus.bounds import admissible_region, best_lower_bound  # noqa: E402
from hfgenus.errors import StabilizationError, ValidationError  # noqa: E402
from hfgenus.hfunction import HTable  # noqa: E402
from hfgenus.laurent import LaurentPoly  # noqa: E402
from hfgenus.linkcat import LinkDescriptor, catalog  # noqa: E402

# Knot polynomials at doubled exponents, symmetric with Delta(1) = 1, whose
# coefficients do not alternate in sign from +1: no L-space knot has them.
SUBSTITUTES = {"-t + 3 - 1/t": {(2,): -1, (0,): 3, (-2,): -1},
               "2t - 3 + 2/t": {(2,): 2, (0,): -3, (-2,): 2}}
SUBSTITUTED = {"whitehead": (), "two_bridge:2": (2,), "two_bridge:3": (3,),
               "borromean": (), "mirror_L7a3": ()}


def substituted(d: LinkDescriptor, name: str, i: int, knot: str) -> LinkDescriptor:
    """d, named `name`, with component i's knot polynomial replaced by the
    substitute `knot`."""
    return LinkDescriptor(name, d.components,
                          alexander={**d.alexander, (i,): LaurentPoly(1, SUBSTITUTES[knot])},
                          lspace_asserted=d.lspace_asserted)


def inputs():
    """(name, maker) for every input, in the order of the module docstring."""
    yield from sorted(LINKS.items())
    for key, params in CATALOG_PARAMS.items():
        for p in params:
            yield f"catalog {':'.join([key, *map(str, p)])}", lambda key=key, p=p: catalog(key, *p)
    for d in benchmark_cables():
        yield d.name, lambda d=d: d
    for seed, draw, count in ((8, raw_draw, 600), (12, raw_triple_draw, 400)):
        rng = random.Random(seed)
        for k in range(count):
            d = draw(rng, k)
            yield d.name, lambda d=d: d
    for d in pair_scope():
        e = flipped(d, (0, 1))
        yield from ((d.name, lambda d=d: d), (e.name, lambda e=e: e))
    for key, params in SUBSTITUTED.items():
        d = catalog(key.partition(":")[0], *params)
        for i, knot in product(range(d.n), SUBSTITUTES):
            name = f"{key}, component {i + 1} = {knot}"
            yield name, lambda d=d, name=name, i=i, knot=knot: substituted(d, name, i, knot)


def digest(values) -> str:
    """The count and the first 16 hex digits of the SHA-256 of the values' repr."""
    values = list(values)
    return f"{len(values)}:{hashlib.sha256(repr(values).encode()).hexdigest()[:16]}"


def verdict(d: LinkDescriptor) -> tuple:
    """The fields of one input's line after its name, and its verdict."""
    try:
        t = HTable(d, force=True)
    except StabilizationError as exc:
        return (type(exc).__name__, str(exc), digest(exc.problems), repr(exc.flipped)), \
            type(exc).__name__
    except ValidationError as exc:
        return (type(exc).__name__, str(exc)), type(exc).__name__
    h = digest(map(t.h, product(*(range(-m - 1, m + 2) for m in axis_radii(d)))))
    return ("valid", repr(t.sign_resolution), repr(t.flipped_signs()), h, repr(t.corners()),
            repr(t.staircases()), repr(admissible_region(t).generators),
            repr(best_lower_bound(t))), "valid"


def main() -> int:
    counts = Counter()
    for name, make in inputs():
        fields, kind = verdict(make())
        counts[kind] += 1
        print("\t".join((name, *fields)), flush=True)
    print("counts: " + ", ".join(f"{kind} {n}" for kind, n in sorted(counts.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
