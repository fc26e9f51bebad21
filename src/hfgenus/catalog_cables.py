"""The catalog's cable family: cables of the two-bridge links, built by
`cable_alexander` and renamed by their catalog key."""

from __future__ import annotations

from .cable import CableSpec, cable_alexander
from .catalog_two_bridge import make_two_bridge, make_whitehead
from .linkcat import LinkDescriptor


def make_whitehead_cable(p: int, q: int) -> LinkDescriptor:
    d = cable_alexander(make_whitehead(), CableSpec(((p, q), (1, 1))))
    return d._renamed(f"whitehead_cable({p},{q})", True)


def make_two_bridge_cable(k: int, p1: int, q1: int, p2: int, q2: int) -> LinkDescriptor:
    d = cable_alexander(make_two_bridge(k), CableSpec(((p1, q1), (p2, q2))))
    return d._renamed(f"two_bridge_cable({k},{p1},{q1},{p2},{q2})", True)
