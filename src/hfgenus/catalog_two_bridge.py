"""The catalog's two-bridge family: `two_bridge:k` and the Whitehead link,
its k = 1 member."""

from __future__ import annotations

from .laurent import LaurentPoly
from .linkcat import Component, LinkDescriptor


def two_bridge_poly(k: int) -> LaurentPoly:
    """Alexander polynomial of the two-bridge link family member with k twists:

        (-1)^k  sum over |i+1/2| + |j+1/2| <= k  of  (-1)^{i+j} t1^{i+1/2} t2^{j+1/2}.

    In doubled exponents a = 2i + 1, b = 2j + 1 (both odd): |a| + |b| <= 2k,
    with sign +1 iff 2k + a + b - 2 is divisible by 4.
    """
    odd = range(-2 * k + 1, 2 * k, 2)
    return LaurentPoly(2, {(a, b): 1 if (2 * k + a + b - 2) % 4 == 0 else -1
                           for a in odd for b in odd if abs(a) + abs(b) <= 2 * k})


def make_two_bridge(k: int) -> LinkDescriptor:
    if k < 1:
        raise ValueError("two_bridge parameter must be a positive integer")
    name = "whitehead" if k == 1 else f"two_bridge({k})"
    return LinkDescriptor(
        name,
        [Component("unknot")] * 2,
        alexander={(0,): LaurentPoly.one(1), (1,): LaurentPoly.one(1),
                   (0, 1): two_bridge_poly(k)},
        lspace_asserted=True)


def make_whitehead() -> LinkDescriptor:
    return make_two_bridge(1)
