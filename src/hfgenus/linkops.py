"""Structural operations on link descriptors: sublinks and disjoint unions.

A disjoint union is an ordinary descriptor: each part's polynomials sit at
its component offset, and every subset mixing parts has zero polynomial,
which makes the H-function additive over the parts.  Only the unlink of the
catalog, union files and library callers use these, so a catalog job of
another link never imports this module.  No table needs a sublink's
descriptor: a sublink's h is a face of the link's own h list (see
`hfunction`), which is how `region.projection_check` reads it.
"""

from __future__ import annotations

from typing import Iterable

from .laurent import LaurentPoly
from .linkcat import LinkDescriptor, _key_in_range, all_subsets


def sublink(d: LinkDescriptor, B: Iterable[int]) -> LinkDescriptor:
    """Descriptor of the sublink with the given (0-based) component indices."""
    key = _key_in_range(B, d.n)
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

    Each part's polynomials move to its component offset, and every subset
    mixing parts gets the zero polynomial.
    """
    if not links:
        raise ValueError("a disjoint union needs at least one link")
    owner = [k for k, d in enumerate(links) for _ in d.components]
    alex = {B: LaurentPoly.zero(len(B)) for B in all_subsets(len(owner))
            if owner[B[0]] != owner[B[-1]]}
    offset = 0
    for d in links:
        alex.update({tuple(i + offset for i in B): poly for B, poly in d.alexander.items()})
        offset += d.n
    return LinkDescriptor(" + ".join(d.name for d in links),
                          tuple(c for d in links for c in d.components),
                          alexander=alex,
                          lspace_asserted=all(d.lspace_asserted for d in links))
