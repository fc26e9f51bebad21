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
Euler characteristics: it checks the exponent parity and keeps the
coefficients, from which chi is read.  A sublink's H over a box [-r, r]^k is
one flat row-major list, in the point order of `itertools.product`: each
sublink's orthant sums over the box (`_grid`, suffix sums of its coefficients
placed in the box), repeated along the axes the sublink lacks (`_broadcast`),
and added with their signs, with no Python call per point.  After
construction the full link's list is the only source of H and h.  A disjoint
union is an ordinary descriptor: a sublink mixing parts has zero polynomial
and contributes nothing.

Each table's lattice box [-M, M]^n is fixed at construction, with
M = support_radius + 2, and h stabilizes on it by construction.  Every
orthant sum is taken at v = s + 1.  At s_i >= M - 1, v_i >= M lies above the
top of every support, so each sublink containing component i contributes 0:
H is constant in s_i there, equals the H of the sublink with component i
deleted, and vanishes on the top corner block.  At s_i <= -M + 1, v_i lies at
or below the bottom of every support, where an orthant sum is constant up to
the knot slope Delta(1) = 1 (enforced on the input by
`linkcat.require_valid`), which h subtracts, so h is constant in s_i there.
Hence h(v) = h(clamp(v)) for every lattice point v, clamp taking each
coordinate into [-M, M]: the laws validated on the box hold everywhere, a
sweep of the box decides every question about h, and `HTable.H` reads any
point off the box list.  This holds by construction, checked by the oracle
tests; validation checks only the laws
the Alexander data can break, H >= 0 and unit steps, and it runs in the
constructor: a table whose data break them raises `StabilizationError`, so
every `HTable` that exists has passed the laws.

The step law makes h monotone, never increasing as a coordinate moves away
from 0: for s_i >= 1, H(s - e_i) >= H(s) and H_O is unchanged; for s_i <= 0,
H(s - e_i) <= H(s) + 1 and H_O grows by 1.  So max h = h(0), {h = 0} is
up-closed on [0, M]^n and each folded level set {|v| : h(v) >= k} is a
down-set of [0, M]^n, fixed by its maximal points (`HTable.corners`).

The overall sign of a multi-component Alexander polynomial is not pinned down
by symmetry alone; it is resolved here, bottom-up over sublinks, by requiring
the resulting H-function to be valid (nonnegative, unit steps), checked with
whole-list operations on the sublink's list.  The full link's list is the
memo of H on its box, and the trial that accepts the full link's sign is its
validation.  A knot or a link whose full polynomial is zero (every disjoint
union) has no such trial; its list is checked once, by the same whole-list
operations, and messages are rendered only at the failing points.

h(s) = H(s) - H_O(s), where H_O is the H-function of the unlink.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, product, repeat
from operator import add, mul, sub
from typing import Optional, Sequence

from .errors import (LSpaceAssertionError, SignResolutionError,
                     StabilizationError, ValidationError)
from .laurent import LaurentPoly
from .linkcat import LinkDescriptor, all_subsets, require_valid


def _chi_table(delta: LaurentPoly) -> dict:
    """A sublink's Euler characteristics, from its nonzero polynomial: the
    coefficients of delta * (t_1 ... t_k)^{1/2}, or for a knot the coefficients
    of Delta itself, whose torsion series Delta(t)/(1 - t^{-1}) holds the
    characteristics.  Either way the exponents must land on the integer
    lattice (the zero-linking parity)."""
    shift = 0 if delta.nvars == 1 else 1
    coeffs = {}
    for exp, c in delta.terms.items():
        if any((e + shift) % 2 for e in exp):
            raise ValidationError(
                "exponents off the integer lattice after the half shift; polynomial "
                "parity is inconsistent with zero linking numbers")
        coeffs[tuple((e + shift) // 2 for e in exp)] = c
    return coeffs


def _broadcast(grid: list, side: int, present: Sequence[bool]) -> list:
    """A sublink's flat grid repeated along the axes of a larger box that it
    lacks; present[j] says whether axis j of the box is one of the grid's."""
    unit = 1  # length of the trailing block already laid out as in the box
    for here in reversed(present):
        if not here:
            blocks = zip(*[iter(grid)] * unit)
            grid = list(chain.from_iterable(map(mul, blocks, repeat(side))))
        unit *= side
    return grid


def _unlink_H(s) -> int:
    """H_O(s), the H-function of the unlink: the sum of max(-s_i, 0)."""
    return sum((abs(x) - x) // 2 for x in s)


def _strides(side: int, k: int) -> list:
    return [side ** (k - 1 - i) for i in range(k)]


def _grid(coeffs: dict, r: int) -> list:
    """A sublink's orthant sums at v = s + 1 for every s in [-r, r]^k, flat, in
    the order of `itertools.product`: the sum of the coefficients at all
    u >= v, or for a knot (k = 1) the sum of its torsion series over the
    degrees >= v.  Each coefficient sits at the mirror of s = u - 1, so that
    the suffix sums are prefix sums along every axis (a knot takes one more
    pass); below the support the sums repeat, and a knot's climb by Delta(1),
    above it they are 0.  Needs r > radius: a coefficient off the box would
    wrap to another point without any error."""
    assert max(map(abs, chain.from_iterable(coeffs))) < r, r
    k = len(next(iter(coeffs)))
    side = 2 * r + 1
    strides = _strides(side, k)
    grid = [0] * side ** k
    top = (r + 1) * sum(strides)  # where u = 0 sits, mirrored
    for u, c in coeffs.items():
        grid[top - sum(map(mul, u, strides))] = c
    for st in (strides * 2 if k == 1 else strides):
        for base in range(0, len(grid), st * side):
            for start in range(base, base + st):
                stop = start + st * side
                grid[start:stop:st] = accumulate(grid[start:stop:st])
    grid.reverse()
    return grid


def _steps(grid: list, side: int, k: int):
    """For every axis i and every slab (the points of a flat grid over
    [-r, r]^k, side = 2r + 1, that share the coordinates before i): the index
    of the slab's first point with s_i > -r, and the steps H(s - e_i) - H(s)
    from there on, in box order."""
    for st in _strides(side, k):
        for base in range(0, len(grid), st * side):
            slab = grid[base:base + st * side]
            yield base + st, map(sub, slab, slab[st:])


def _laws_hold(grid: list, side: int, k: int) -> bool:
    """Whether H >= 0 and every step is 0 or 1, by whole-list operations."""
    return min(grid) >= 0 and all(set(steps) <= {0, 1}
                                  for _, steps in _steps(grid, side, k))


def _law_messages(grid: list, r: int, k: int) -> list:
    """The violations of the laws on a flat grid over [-r, r]^k, in box order:
    at each point the negative value first, else the failing steps e_1..e_k."""
    side = 2 * r + 1
    strides = _strides(side, k)
    bad = {j for j, x in enumerate(grid) if x < 0}
    for start, steps in _steps(grid, side, k):
        bad.update(start + j for j, d in enumerate(steps) if d not in (0, 1))
    problems = []
    for j in sorted(bad):
        s = tuple((j // st) % side - r for st in strides)
        v = grid[j]
        if v < 0:
            problems.append(f"H{s} = {v} is negative")
            continue
        for i, st in enumerate(strides):
            if s[i] > -r and (jump := grid[j - st] - v) not in (0, 1):
                problems.append(f"step law fails: H at {s} minus e_{i + 1} jumps by {jump}")
    return problems


class HTable:
    """H-function of a link descriptor over a lattice box [-M, M]^n.

    Construction keeps the Euler characteristics of every sublink with
    nonzero polynomial and resolves the sign of every sublink polynomial.
    Each sign trial, and the full link's H, is a flat list over a box summed
    from the sublinks' grids; the full link's list over [-M, M]^n is the
    memo, read by index, at clamp(s) outside the box, and chi reads the
    stored coefficients.  M = support_radius + 2 and never changes.
    Construction validates once: the full link's sign trial when its
    polynomial is nonzero, otherwise one whole-list check of its list.  Data
    breaking the laws raise `StabilizationError`, carrying every problem and
    the subsets whose sign was flipped, so a table that exists is valid.
    """

    def __init__(self, link: LinkDescriptor, force: bool = False):
        require_valid(link)
        if not link.lspace_asserted and not force:
            raise LSpaceAssertionError(
                f"{link.name}: the L-space property is not asserted; the H-function "
                f"formula presupposes it (pass force=True to compute anyway)")
        self.link = link
        self.n = link.n
        self._full = tuple(range(self.n))
        self._corners: Optional[list] = None
        self._tables: dict = {}  # sublink -> its _chi_table, nonzero polynomials only
        self._radii: dict = {}   # sublink -> the largest |u_i| over its table
        self._signs: dict = {}   # sublink -> +1 or -1, filled bottom-up
        self._resolve_signs()

        self.support_radius = max(self._radii.values())
        self.M = self.support_radius + 2
        self._side = 2 * self.M + 1
        self._origin = self.M * sum(_strides(self._side, self.n))  # index of 0

    # -- construction helpers ------------------------------------------------

    def _terms_of(self, B) -> list:
        """(parity, C, positions of C in B) for each sublink C of B with a
        table; a split sublink contributes nothing."""
        terms = []
        for size in range(1, len(B) + 1):
            for idx in combinations(range(len(B)), size):
                C = tuple(B[i] for i in idx)
                if C in self._tables:
                    terms.append((1 if size % 2 else -1, C, idx))
        return terms

    def _resolve_signs(self) -> None:
        """Choose the sign of every multi-component sublink polynomial, bottom
        up, as the first (stored first) whose H passes the laws on the
        sublink's box [-r, r]^|B|, r two more than the largest support radius
        of its tables (r = M for the full link), and keep the full link's H,
        which comes last.  A full link without a sign trial has its list
        checked here."""
        tables, radii, signs = self._tables, self._radii, self._signs
        for B in all_subsets(self.n):
            signs[B] = 1
            delta = self.link.delta(B)
            if not delta.is_zero():
                tables[B] = _chi_table(delta)
                radii[B] = max(map(abs, chain.from_iterable(tables[B])))
            trial = len(B) > 1 and B in tables
            if not trial and B != self._full:
                continue
            terms = self._terms_of(B)
            r = max(radii[C] for _, C, _ in terms) + 2
            side = 2 * r + 1
            grid = [0] * side ** len(B)
            for parity, C, idx in terms:
                if C != B or not trial:
                    part = _broadcast(_grid(tables[C], r), side,
                                      [j in idx for j in range(len(B))])
                    grid = list(map(add if parity * signs[C] > 0 else sub, grid, part))
            if trial:
                rest, own = grid, _grid(tables[B], r)
                parity = 1 if len(B) % 2 else -1
                for sigma in (1, -1):  # prefer the stored sign
                    signs[B] = sigma
                    grid = list(map(add if sigma * parity > 0 else sub, rest, own))
                    if _laws_hold(grid, side, len(B)):
                        break
                else:
                    raise SignResolutionError(
                        f"{self.link.name}: neither sign of the polynomial for subset "
                        f"{tuple(i + 1 for i in B)} yields a valid H-function; "
                        f"not an L-space link with this data")
            elif not _laws_hold(grid, side, len(B)):  # B is the full link
                problems = _law_messages(grid, r, len(B))
                raise StabilizationError(
                    f"{self.link.name}: H-function fails validation on box "
                    f"[-{r}, {r}]^{len(B)}: " + "; ".join(problems[:5]),
                    problems, self.flipped_signs())
        self._grid = grid  # the full link's H over the box, flat

    # -- evaluation ------------------------------------------------------------

    def H(self, s: Sequence[int]) -> int:
        """H-function at any lattice point, read from the list at clamp(s):
        h(s) = h(clamp(s)), so H(s) - H(clamp(s)) = H_O(s) - H_O(clamp(s)),
        the sum of max(-M - s_i, 0)."""
        s = tuple(s)
        if len(s) != self.n:
            raise ValueError(f"point {s} has wrong dimension, expected {self.n}")
        M, index, below = self.M, 0, 0
        for x in s:
            if x < -M:
                below += -M - x
                x = -M
            elif x > M:
                x = M
            index = index * self._side + x
        return self._grid[index + self._origin] + below

    def h(self, s: Sequence[int]) -> int:
        s = tuple(s)
        return self.H(s) - _unlink_H(s)

    def chi(self, B, u) -> int:
        """chi(HFL^-(L_B, u)) with the resolved sign; u[j] belongs to component
        B[j].  It is the coefficient at u of the sublink's table, for a knot
        the sum of the table's coefficients at degrees >= u, and 0 for a split
        sublink."""
        B = tuple(B)
        if not B or len(set(B)) != len(B) or not all(0 <= b < self.n for b in B):
            raise ValueError(f"sublink {B} is not a nonempty set of distinct "
                             f"components in range({self.n})")
        u = (u,) if isinstance(u, int) else tuple(u)
        if len(u) != len(B):
            raise ValueError(f"point {u} has wrong dimension, expected {len(B)}")
        pairs = sorted(zip(B, u))
        B = tuple(b for b, _ in pairs)
        u = tuple(x for _, x in pairs)
        table = self._tables.get(B)
        if table is None:
            return 0
        if len(B) == 1:
            return sum(c for (w,), c in table.items() if w >= u[0])
        return self._signs[B] * table.get(u, 0)

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

    # -- the box and the signs ---------------------------------------------------

    def iter_box(self):
        return product(range(-self.M, self.M + 1), repeat=self.n)

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
        corners with k >= j.  One sweep of the box list, computed once."""
        if self._corners is None:
            top: dict = {}
            for v, H in zip(self.iter_box(), self._grid):
                w = tuple(map(abs, v))
                top[w] = max(top.get(w, 0), H - _unlink_H(v))
            self._corners = sorted(
                (w, k) for w, k in top.items()
                if k > 0 and all(top[w[:i] + (x + 1,) + w[i + 1:]] < k
                                 for i, x in enumerate(w) if x < self.M))
        return self._corners
