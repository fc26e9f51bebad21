"""Surgery d-invariants: lens spaces, circle bundles, and large surgery on
an L-space link.

The closed forms need no table.  `large_surgery_d` reads H at one point of a
table, shifted by the degree of the reversed 2-handle cobordism.  Every value
is an exact Fraction.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import LargenessError


def lens_d(m: int, k: int) -> Fraction:
    """d-invariant of the lens space L(m,1) at the label k, |k| <= m/2.

    Closed form 1/4 - (m - 2|k|)^2 / (4m); it agrees with the degree-shift
    evaluation of large_surgery_d on the unknot (see the test suite).
    """
    if m < 1:
        raise ValueError("lens space order must be positive")
    if 2 * abs(k) > m:
        raise ValueError(f"label k={k} outside |k| <= {m}/2")
    return Fraction(1, 4) - Fraction((m - 2 * abs(k)) ** 2, 4 * m)


def circle_bundle_d(m: int, g: int, k: int) -> Fraction:
    """d-invariant of the Euler-number -m circle bundle over a genus-g surface.

    Valid for large m; a heuristic warning fires when m <= 2g + 2.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if m <= 2 * g + 2 and g > 0:
        import warnings
        warnings.warn(f"circle_bundle_d: m={m} may not be large enough for g={g}",
                      stacklevel=2)
    base = lens_d(m, k)
    if abs(k) <= g:
        return base - g + 2 * ((g - abs(k) + 1) // 2)
    return base - g


def large_surgery_d(table: HTable, q: Sequence[int], v: Sequence[int],
                    force: bool = False) -> Fraction:
    """d-invariant of the surgery with framing vector q at the structure label v.

    Computed as sum_i (2 v_i - q_i)^2 / (4 q_i) - n/4 - 2 H(v); the quadratic
    part is the degree shift of the reversed 2-handle cobordism with the
    diagonal linking matrix.  Labels live in the centered fundamental domain
    |v_i| <= q_i / 2.  Data failing validation never reach here: `HTable`
    refuses them at construction.
    """
    q = tuple(q)
    v = tuple(v)
    n = table.n
    if len(q) != n or len(v) != n:
        raise ValueError("framing and label vectors must match the component count")
    if any(x < 1 for x in q):
        raise ValueError("surgery coefficients must be positive")
    if any(2 * abs(x) > qi for x, qi in zip(v, q)):
        raise ValueError(f"label {v} outside the fundamental domain |v_i| <= q_i/2")
    threshold = 2 * (2 * table.M)
    small = [qi for qi in q if qi <= threshold]
    if small and not force:
        raise LargenessError(
            f"surgery coefficients {small} do not exceed twice the box diameter "
            f"{2 * table.M}; pass force=True if the surgery is known to be large")
    shift = sum(Fraction((2 * vi - qi) ** 2, 4 * qi) for vi, qi in zip(v, q))
    return shift - Fraction(n, 4) - 2 * table.H(v)
