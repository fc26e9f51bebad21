"""Exact multivariate Laurent polynomials on the half-integer exponent lattice.

Exponents live in (1/2)Z^n and are stored *doubled* (multiplied by 2), so every
exponent is a plain Python int and all arithmetic stays in Z.  Coefficients are
arbitrary-precision ints.  A polynomial is a finite map

    doubled exponent tuple  ->  nonzero int coefficient

and the zero polynomial is the empty map.  Everything here is immutable after
construction and safe to share.  Every job loads this module, so it holds only
the ring and the symmetry that every link needs; the power substitution and
the cable factor are in `cable`, their only user.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

from .errors import SymmetryError

Exp = tuple  # doubled exponent tuple, one int per variable


def double_exponent(e) -> int:
    """Convert an exponent given as int or half-integer Fraction to doubled form."""
    if isinstance(e, int):
        return 2 * e
    from fractions import Fraction
    f = Fraction(e)
    d = f * 2
    if d.denominator != 1:
        raise ValueError(f"exponent {e} is not a half-integer")
    return int(d)


def halve_exponent(d: int) -> Fraction:
    """Inverse of double_exponent."""
    from fractions import Fraction
    return Fraction(d, 2)


class LaurentPoly:
    """An integer-coefficient Laurent polynomial in ``nvars`` variables.

    ``terms`` maps doubled exponent tuples to nonzero coefficients.  Use
    :meth:`from_terms` to build one from half-integer exponents.

    >>> t = LaurentPoly.from_terms(1, [(1, (1,)), (-1, (0,)), (1, (-1,))])
    >>> t
    LaurentPoly(1, 't - 1 + t^-1')
    >>> t * t == LaurentPoly.from_terms(1, [(1, (2,)), (-2, (1,)), (3, (0,)),
    ...                                     (-2, (-1,)), (1, (-2,))])
    True
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[Exp, int]):
        clean = {}
        for exp, coef in terms.items():
            if not isinstance(coef, int):
                raise TypeError(f"coefficients must be ints, got {coef!r}")
            if coef == 0:
                continue
            exp = tuple(exp)
            if len(exp) != nvars:
                raise ValueError(f"exponent {exp} has wrong arity for nvars={nvars}")
            if not all(isinstance(e, int) for e in exp):
                raise TypeError(f"doubled exponents must be ints, got {exp!r}")
            clean[exp] = coef
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("LaurentPoly is immutable")

    def __reduce__(self):
        return LaurentPoly, (self.nvars, self.terms)

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {})

    @classmethod
    def one(cls, nvars: int) -> "LaurentPoly":
        return cls(nvars, {(0,) * nvars: 1})

    @classmethod
    def from_terms(cls, nvars: int, terms: Iterable) -> "LaurentPoly":
        """Build from (coef, exponent tuple) pairs with half-integer exponents."""
        acc: dict = {}
        for coef, exps in terms:
            key = tuple(double_exponent(e) for e in exps)
            acc[key] = acc.get(key, 0) + coef
        return cls(nvars, acc)

    # -- basic queries -------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def coeff(self, exps: Sequence) -> int:
        """Coefficient at a half-integer exponent vector (0 if absent)."""
        return self.terms.get(tuple(double_exponent(e) for e in exps), 0)

    def evaluate_at_one(self) -> int:
        return sum(self.terms.values())

    def sorted_terms(self):
        """Terms as (doubled exponent, coef), sorted for deterministic output."""
        return sorted(self.terms.items())

    # -- ring operations -----------------------------------------------------

    def _check_compatible(self, other: "LaurentPoly"):
        if not isinstance(other, LaurentPoly):
            raise TypeError(f"expected LaurentPoly, got {type(other).__name__}")
        if self.nvars != other.nvars:
            raise ValueError(f"variable-count mismatch: {self.nvars} vs {other.nvars}")

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        acc = dict(self.terms)
        for exp, coef in other.terms.items():
            acc[exp] = acc.get(exp, 0) + coef
        return LaurentPoly(self.nvars, acc)

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        self._check_compatible(other)
        acc = dict(self.terms)
        for exp, coef in other.terms.items():
            acc[exp] = acc.get(exp, 0) - coef
        return LaurentPoly(self.nvars, acc)

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return LaurentPoly(self.nvars, {e: c * other for e, c in self.terms.items()})
        self._check_compatible(other)
        acc: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return LaurentPoly(self.nvars, acc)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, LaurentPoly)
                and self.nvars == other.nvars and self.terms == other.terms)

    def shift(self, dexp: Exp) -> "LaurentPoly":
        """Multiply by the monomial with doubled exponent ``dexp``."""
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, dexp)): c for e, c in self.terms.items()})

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, '{self}')"

    def __str__(self) -> str:
        if self.is_zero():
            return "0"
        names = ["t"] if self.nvars == 1 else [f"t{i+1}" for i in range(self.nvars)]
        parts = []
        for exp, coef in sorted(self.terms.items(), reverse=True):
            factors = []
            for name, d in zip(names, exp):
                if d == 0:
                    continue
                e = halve_exponent(d)
                if e == 1:
                    factors.append(name)
                elif e.denominator == 1:
                    factors.append(f"{name}^{e.numerator}")
                else:
                    factors.append(f"{name}^({e})")
            mono = "*".join(factors)
            if not mono:
                body = str(abs(coef))
            elif abs(coef) == 1:
                body = mono
            else:
                body = f"{abs(coef)}*{mono}"
            sign = "-" if coef < 0 else "+"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        out = ("-" if first_sign == "-" else "") + first_body
        for sign, body in parts[1:]:
            out += f" {sign} {body}"
        return out


# -- free functions ----------------------------------------------------------


def involution(f: LaurentPoly) -> LaurentPoly:
    """Invert every variable: exponent vector e -> -e."""
    return LaurentPoly(f.nvars, {tuple(-d for d in exp): c for exp, c in f.terms.items()})


def symmetry_sign(nvars: int) -> int:
    """Target sign under variable inversion: +1 for knots, (-1)^n for links."""
    return 1 if nvars == 1 else (-1) ** nvars


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
