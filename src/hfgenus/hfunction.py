"""The H-function of an L-space link from Alexander data, and its validation.

For a link with all pairwise linking numbers zero the H-function at a lattice
point s is an alternating sum over nonempty sublinks: each sublink contributes
the sum of its HFL^- Euler characteristics over the upper orthant based at the
corresponding coordinates of s+1.  The Euler characteristics are the
coefficients of the half-shifted Alexander polynomial (multi-component
sublinks) or of the torsion-coefficient series Delta(t)/(1-t^{-1}) (knot
sublinks).

`HTable` is the only entry point to H, h, chi and their validation, and
tables share no state.  `_chi_table` alone turns a sublink's polynomial into
Euler characteristics: it checks the exponent parity and builds a suffix-sum
(summed-area) table over the polynomial's support box, so one H value costs
at most 2^n - 1 lookups, whatever the size of the supports or of the lattice
box.  A disjoint union is an ordinary descriptor: a sublink mixing parts has
zero polynomial and contributes nothing.

Each table's lattice box [-M, M]^n is fixed at construction, with
M >= support_radius + 2, and h stabilizes on it by construction.  Every
orthant table is read at v = s + 1.  At s_i >= M - 1, v_i >= M lies above the
top of every support, so each sublink containing component i contributes 0:
H is constant in s_i there, equals the H of the sublink with component i
deleted, and vanishes on the top corner block.  At s_i <= -M + 1, v_i lies at
or below the bottom of every support, where a table is constant up to the
knot slope Delta(1) = 1 (enforced on the input by `require_valid`), which h
subtracts, so h is constant in s_i there.  Hence h(v) = h(clamp(v)) for every
lattice point v, clamp taking each coordinate into [-M, M]: the laws validated
on the box hold everywhere, and a sweep of the box decides every question
about h.  This holds by construction, checked by the oracle tests; validation
checks only the laws the Alexander data can break, H >= 0 and unit steps.

The step law makes h monotone, never increasing as a coordinate moves away
from 0: for s_i >= 1, H(s - e_i) >= H(s) and H_O is unchanged; for s_i <= 0,
H(s - e_i) <= H(s) + 1 and H_O grows by 1.  So max h = h(0), {h = 0} is
up-closed on [0, M]^n and each folded level set {|v| : h(v) >= k} is a
down-set of [0, M]^n, fixed by its maximal points (`HTable.corners`).

The overall sign of a multi-component Alexander polynomial is not pinned down
by symmetry alone; it is resolved here, bottom-up over sublinks, by requiring
the resulting H-function to be valid (nonnegative, unit steps).

h(s) = H(s) - H_O(s), where H_O is the H-function of the unlink.
"""

from __future__ import annotations

from itertools import combinations, product
from typing import Optional, Sequence

from .errors import (LSpaceAssertionError, SignResolutionError,
                     StabilizationError, ValidationError)
from .laurent import LaurentPoly
from .linkcat import LinkDescriptor, all_subsets, require_valid


class _OrthantSums:
    """Upper-orthant sums of an integer coefficient map, as a lookup table.

    `sums` holds, for every v in the bounding box [lo, hi] of the support
    (flat, row-major), the sum of the coefficients at all u >= v.  Outside the
    box a lookup is 0 once some v_i > hi_i, and reads v_i < lo_i as lo_i.  A
    knot table (knot=True, coefficients of Delta) holds the sums of the torsion
    series Delta(t)/(1-t^{-1}) instead: one more suffix pass, and below lo the
    sum grows by Delta(1) per unit step.
    """

    __slots__ = ("axes", "sums", "slope", "radius")

    def __init__(self, coeffs: dict, knot: bool = False):
        k = len(next(iter(coeffs)))
        lo = [min(e[i] for e in coeffs) for i in range(k)]
        hi = [max(e[i] for e in coeffs) for i in range(k)]
        shape = [h - l + 1 for l, h in zip(lo, hi)]
        strides = [1] * k
        for i in range(k - 2, -1, -1):
            strides[i] = strides[i + 1] * shape[i + 1]
        sums = [0] * (strides[0] * shape[0])
        for e, c in coeffs.items():
            sums[sum((x - l) * st for x, l, st in zip(e, lo, strides))] += c
        for axis in ([0] if knot else []) + list(range(k)):
            step, size = strides[axis], shape[axis]
            for i in range(len(sums) - 1, -1, -1):
                if (i // step) % size < size - 1:
                    sums[i] += sums[i + step]
        self.axes = tuple(zip(lo, hi, strides))
        self.sums = sums
        self.slope = sum(coeffs.values()) if knot else 0
        self.radius = max(max(-l, h) for l, h in zip(lo, hi))

    def __call__(self, v, idx) -> int:
        """The orthant sum at the point (v[i] for i in idx)."""
        index = below = 0
        for i, (lo, hi, stride) in zip(idx, self.axes):
            x = v[i]
            if x > hi:
                return 0
            if x < lo:
                below += lo - x
                x = lo
            index += (x - lo) * stride
        return self.sums[index] + self.slope * below


def _chi_table(delta: LaurentPoly) -> _OrthantSums:
    """Orthant sums of a sublink's Euler characteristics, from its nonzero
    polynomial: the coefficients of delta * (t_1 ... t_k)^{1/2}, or for a knot
    of the torsion series Delta(t)/(1 - t^{-1}).  Either way the exponents
    must land on the integer lattice (the zero-linking parity)."""
    knot = delta.nvars == 1
    shift = 0 if knot else 1
    coeffs = {}
    for exp, c in delta.terms.items():
        if any((e + shift) % 2 for e in exp):
            raise ValidationError(
                "exponents off the integer lattice after the half shift; polynomial "
                "parity is inconsistent with zero linking numbers")
        coeffs[tuple((e + shift) // 2 for e in exp)] = c
    return _OrthantSums(coeffs, knot=knot)


class HTable:
    """Memoized H-function of a link descriptor over a lattice box [-M, M]^n.

    Construction resolves the sign of every sublink polynomial and builds one
    orthant-sum table per sublink with nonzero polynomial, sized by that
    polynomial's support and never by the box; an H value is then at most
    2^n - 1 lookups, disjoint unions included.  The box bounds only the
    validation sweeps and region extraction; H itself is a closed-form
    alternating sum and can be evaluated at any lattice point.
    M is the support-based minimum support_radius + 2, or the requested `box`
    if larger, and never changes; validation runs once, on first request.
    """

    def __init__(self, link: LinkDescriptor, box: Optional[int] = None,
                 force: bool = False, sign_overrides: Optional[dict] = None):
        require_valid(link)
        if not link.lspace_asserted and not force:
            raise LSpaceAssertionError(
                f"{link.name}: the L-space property is not asserted; the H-function "
                f"formula presupposes it (pass force=True to compute anyway)")
        self.link = link
        self.n = link.n
        self._full = tuple(range(self.n))
        self._memo: dict = {}
        self._corners: Optional[list] = None
        self._problems: Optional[list] = None
        self._tables: dict = {}  # sublink -> _OrthantSums, nonzero polynomials only
        self._terms: dict = {}   # sublink B -> (parity, C, positions of C in B, table)
        self._signs: dict = {}   # sublink -> +1 or -1, filled bottom-up
        self._resolve_signs(sign_overrides)

        self.support_radius = max(t.radius for t in self._tables.values())
        auto = self.support_radius + 2
        if box is not None and box < auto:
            raise StabilizationError(
                f"requested box {box} is below the auto-computed minimum {auto}")
        self.M = max(auto, box or 0)

    # -- construction helpers ------------------------------------------------

    def _resolve_signs(self, overrides) -> None:
        signs = self._signs
        for B in all_subsets(self.n):
            signs[B] = 1
            delta = self.link.delta(B)
            if not delta.is_zero():
                self._tables[B] = _chi_table(delta)
            terms = []
            for size in range(1, len(B) + 1):
                for idx in combinations(range(len(B)), size):
                    C = tuple(B[i] for i in idx)
                    if C in self._tables:  # a split sublink contributes nothing
                        terms.append((1 if size % 2 else -1, C, idx, self._tables[C]))
            self._terms[B] = terms
            if len(B) == 1 or delta.is_zero():
                continue
            if overrides is not None and B in overrides:
                signs[B] = overrides[B]
                continue
            radius = max(table.radius for _, _, _, table in terms) + 2
            for sigma in (1, -1):  # prefer the stored sign
                signs[B] = sigma
                memo: dict = {}
                if next(self._law_problems(B, radius, memo), None) is None:
                    self._memo.update(memo)  # B's values under its final sign
                    break
            else:
                raise SignResolutionError(
                    f"{self.link.name}: neither sign of the polynomial for subset "
                    f"{tuple(i + 1 for i in B)} yields a valid H-function; "
                    f"not an L-space link with this data")

    def _law_problems(self, B, radius, memo):
        """Yield the violations, on the box [-radius, radius]^|B|, of the laws
        H >= 0 and unit steps by the sublink indexed by B.  Stabilization at
        the box boundary holds by construction (see the module docstring),
        checked by the oracle tests."""
        for s in product(range(-radius, radius + 1), repeat=len(B)):
            v = self._eval(B, s, memo)
            if v < 0:
                yield f"H{s} = {v} is negative"
                continue
            for i in range(len(B)):
                if s[i] > -radius:
                    down = self._eval(B, s[:i] + (s[i] - 1,) + s[i + 1:], memo)
                    if down - v not in (0, 1):
                        yield f"step law fails: H at {s} minus e_{i + 1} jumps by {down - v}"

    def _eval(self, B, s, memo):
        """H of the sublink B at point s (coordinates aligned with sorted B)."""
        key = (B, s)
        total = memo.get(key)
        if total is None:
            v = tuple(x + 1 for x in s)
            total = 0
            for parity, C, idx, table in self._terms[B]:
                total += parity * self._signs[C] * table(v, idx)
            memo[key] = total
        return total

    # -- evaluation ------------------------------------------------------------

    def H(self, s: Sequence[int]) -> int:
        """H-function at any lattice point (memoized)."""
        s = tuple(s)
        if len(s) != self.n:
            raise ValueError(f"point {s} has wrong dimension, expected {self.n}")
        return self._eval(self._full, s, self._memo)

    def h(self, s: Sequence[int]) -> int:
        s = tuple(s)
        return self.H(s) - sum((abs(x) - x) // 2 for x in s)

    def chi(self, B, u) -> int:
        """chi(HFL^-(L_B, u)) with the resolved sign; u[j] belongs to component B[j]."""
        u = (u,) if isinstance(u, int) else tuple(u)
        if len(u) != len(B):
            raise ValueError(f"point {u} has wrong dimension, expected {len(B)}")
        pairs = sorted(zip(B, u))
        B = tuple(b for b, _ in pairs)
        u = tuple(x for _, x in pairs)
        table = self._tables.get(B)
        if table is None:
            return 0  # split sublink, vanishing chi
        total = 0
        for corner in product((0, 1), repeat=len(B)):
            sign = -1 if sum(corner) % 2 else 1
            total += sign * table(tuple(x + c for x, c in zip(u, corner)), range(len(B)))
        return self._signs[B] * total

    def chi_from_H(self, s: Sequence[int]) -> int:
        """Inclusion-exclusion of H over the unit cube below s.

        Reproduces chi(HFL^-) of the whole link at s; the roundtrip against the
        polynomial coefficients is a standing consistency check.
        """
        s = tuple(s)
        total = 0
        for size in range(self.n + 1):
            sign = -1 if size % 2 == 0 else 1
            for idx in combinations(range(self.n), size):
                p = tuple(x - 1 if i in idx else x for i, x in enumerate(s))
                total += sign * self.H(p)
        return total

    # -- the box and validation ------------------------------------------------

    def iter_box(self):
        return product(range(-self.M, self.M + 1), repeat=self.n)

    def validation_report(self) -> list:
        """Check H >= 0 and unit steps over the box; computed once."""
        if self._problems is None:
            self._problems = list(self._law_problems(self._full, self.M, self._memo))
        return self._problems

    def require_valid(self) -> None:
        problems = self.validation_report()
        if problems:
            raise StabilizationError(
                f"{self.link.name}: H-function fails validation on box "
                f"[-{self.M}, {self.M}]^{self.n}: " + "; ".join(problems[:5]),
                problems=problems)

    @property
    def sign_resolution(self) -> dict:
        """Chosen sign per sublink subset (1-based keys), +1 = as stored."""
        return {tuple(i + 1 for i in B): s for B, s in sorted(self._signs.items())}

    def flipped_signs(self) -> list:
        """1-based subsets whose stored polynomial sign had to be flipped."""
        return [B for B, s in sorted(self.sign_resolution.items()) if s == -1]

    # -- sweeps used by regions and bounds ---------------------------------------

    def corners(self) -> list:
        """The pairs (w, k) with k = top[w] > 0 and top[w + e_i] < k for every i
        with w_i < M, sorted, where top[w] is the largest h(v) with |v| = w.
        The maximal points of {w : top[w] >= j} are the maximal w among the
        corners with k >= j.  One sweep of the box, computed once."""
        if self._corners is None:
            self.require_valid()
            top: dict = {}
            for v in self.iter_box():
                w = tuple(map(abs, v))
                top[w] = max(top.get(w, 0), self.h(v))
            self._corners = sorted(
                (w, k) for w, k in top.items()
                if k > 0 and all(top[w[:i] + (x + 1,) + w[i + 1:]] < k
                                 for i, x in enumerate(w) if x < self.M))
        return self._corners
