"""Exact multivariate Laurent polynomials on the half-integer exponent lattice.

Exponents live in (1/2)Z^n and are stored *doubled* (multiplied by 2), so every
exponent is a plain Python int and all arithmetic stays in Z.  Coefficients are
arbitrary-precision ints.  A polynomial is a finite map

    doubled exponent tuple  ->  nonzero int coefficient

and the zero polynomial is the empty map.  A polynomial is a `Record`, the
immutable value class that every value of the package derives from, which
lives here because every job loads this module; so everything here is
immutable after construction and safe to share.  Besides `Record` it holds
only the ring and the symmetry sign that every link needs.  The symmetric
normalization is `symmetry`, which only the messages of an invalid
descriptor need; the text form of a polynomial is `polytext`, which
only messages and printing need; the power substitution and the cable factor
are in `cable`, their only user.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

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


class Record:
    """An immutable value: equal, hashed and printed by the fields named in
    its ``__slots__``, in order.  Subclasses set the fields with ``_init``."""

    __slots__ = ()

    def _init(self, *values):
        for field, value in zip(self.__slots__, values):
            object.__setattr__(self, field, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, field) for field in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class LaurentPoly(Record):
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
    __hash__ = None  # the terms sit in a dict

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
        self._init(nvars, clean)

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

    def shift(self, dexp: Exp) -> "LaurentPoly":
        """Multiply by the monomial with doubled exponent ``dexp``."""
        return LaurentPoly(
            self.nvars,
            {tuple(a + b for a, b in zip(e, dexp)): c for e, c in self.terms.items()})

    # -- display -------------------------------------------------------------

    def __repr__(self) -> str:
        return f"LaurentPoly({self.nvars}, '{self}')"

    def __str__(self) -> str:
        from .polytext import poly_text
        return poly_text(self)


# -- free functions ----------------------------------------------------------


def symmetry_sign(nvars: int) -> int:
    """Target sign under variable inversion: +1 for knots, (-1)^n for links."""
    return 1 if nvars == 1 else (-1) ** nvars
