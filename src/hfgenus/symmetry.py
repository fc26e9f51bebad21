"""Symmetric normalization of Laurent polynomials.

A valid descriptor stores each polynomial already centered and symmetric,
which `linkcat` checks term by term without this module; a cable builds its
polynomials centered.  Only the messages of an invalid descriptor need the
inverse-variable image and the symmetric unit multiple, so a job whose
descriptors are all valid never imports this module.
"""

from __future__ import annotations

from .errors import SymmetryError
from .laurent import LaurentPoly, symmetry_sign


def involution(f: LaurentPoly) -> LaurentPoly:
    """Invert every variable: exponent vector e -> -e."""
    return LaurentPoly(f.nvars, {tuple(-d for d in exp): c for exp, c in f.terms.items()})


def normalize_symmetric(f: LaurentPoly) -> LaurentPoly:
    """Recenter f by a unit monomial so that inverting all variables gives
    symmetry_sign(nvars) times the result.

    The overall sign is preserved for multivariable input (the valid choice is
    decided later by H-function validity); for one variable it is fixed by
    requiring the value 1 at t=1.  Raises SymmetryError when no unit multiple
    is symmetric.
    """
    if f.is_zero():
        raise SymmetryError("the zero polynomial cannot be normalized")
    lo = [min(e[i] for e in f.terms) for i in range(f.nvars)]
    hi = [max(e[i] for e in f.terms) for i in range(f.nvars)]
    if any((a + b) % 2 for a, b in zip(lo, hi)):
        raise SymmetryError(f"no symmetric unit multiple of ({f}) on the half-integer lattice")
    shift = tuple(-(a + b) // 2 for a, b in zip(lo, hi))
    g = f.shift(shift)
    if involution(g) != symmetry_sign(f.nvars) * g:
        raise SymmetryError(f"no symmetric unit multiple of ({f})")
    if f.nvars == 1:
        v = g.evaluate_at_one()
        if v == -1:
            g = -g
        elif v != 1:
            raise SymmetryError(f"knot polynomial ({f}) cannot be normalized to value 1 at t=1")
    return g
