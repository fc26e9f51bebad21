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
Euler characteristics, from which chi is read; the input's exponent parity
holds already, since a `LinkDescriptor` is valid once built.  A sublink's H
over a box prod [-r_j, r_j] is one flat row-major list, in the point order of
`itertools.product`: each sublink's orthant sums over the box (`_grid`,
suffix sums of its coefficients placed in the box), repeated along the axes
the sublink lacks (`_broadcast`), and added with their signs, with no Python
call per point.  After construction the full link's list is the only source
of H and h.  A disjoint union is an ordinary descriptor: a sublink mixing
parts has zero polynomial and contributes nothing.

Each table's lattice box prod [-M_i, M_i] is fixed at construction, with M_i
two more than the largest |u_i| over the tables of the sublinks that contain
component i, and h stabilizes on it by construction.  The argument reads one
coordinate at a time.  Every orthant sum is taken at v = s + 1.  At
s_i >= M_i - 1, v_i >= M_i lies above the top of every support containing
component i, so each such sublink contributes 0: H is constant in s_i there,
equals the H of the sublink with component i deleted, and vanishes on the
top corner block.  At s_i <= -M_i + 1, v_i lies at or below the bottom of
those supports, where an orthant sum is constant up to the knot slope
Delta(1) = 1 (enforced by the `LinkDescriptor` constructor), which h
subtracts, so h is constant in s_i there.  Hence h(v) = h(clamp(v)) for
every lattice point v, clamp taking each coordinate into [-M_i, M_i]: the
laws validated on the box hold everywhere, a sweep of the box decides every
question about h, and `HTable.H` reads any point off the box list.  A
sublink's sign trial uses the same per-axis box of its own tables.
M = max M_i, and the cube [-M, M]^n holds the box: it is the window of the
h-table and of `HTable.iter_box`, and the box over which a failing table's
problems are rendered.  This holds by
construction, checked by the oracle tests; validation checks only the laws
the Alexander data can break, H >= 0 and unit steps, and it runs in the
constructor: a table whose data break them raises `StabilizationError`, so
every `HTable` that exists has passed the laws.

The step law makes h monotone, never increasing as a coordinate moves away
from 0: for s_i >= 1, H(s - e_i) >= H(s) and H_O is unchanged; for s_i <= 0,
H(s - e_i) <= H(s) + 1 and H_O grows by 1.  So max h = h(0), and every
level set is read off the box list by one primitive, `_drops`, which marks
the points of a flat list where it falls along every axis.  Each folded
level set {|v| : h(v) >= k} is a down-set of [0, M]^n, fixed by its maximal
points (`HTable.corners`, after `_fold`).  On the orthant h = H, so
{h = 0} is up-closed there; it is fixed by its minimal points and its
complement by its maximal points (`HTable.staircases`, after
`_nonnegative`).

The overall sign of a multi-component Alexander polynomial is not pinned down
by symmetry alone; it is resolved here, bottom-up over sublinks, by requiring
the resulting H-function to be valid (nonnegative, unit steps), checked with
whole-list operations on the sublink's list.  The full link's list is the
memo of H on its box, and the trial that accepts the full link's sign is its
validation.  A knot or a link whose full polynomial is zero (every disjoint
union) has no such trial; its list is checked once, by the same whole-list
operations, and messages are rendered only at the failing points, by
`violations`, which only a failing table imports.

h(s) = H(s) - H_O(s), where H_O is the H-function of the unlink.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, compress, product, repeat
from math import prod
from operator import add, and_, lt, mul, sub
from typing import Optional, Sequence

from .errors import LSpaceAssertionError, SignResolutionError, StabilizationError
from .laurent import LaurentPoly
from .linkcat import LinkDescriptor, all_subsets


def _chi_table(delta: LaurentPoly) -> dict:
    """A sublink's Euler characteristics, from its nonzero polynomial: the
    coefficients of delta * (t_1 ... t_k)^{1/2}, or for a knot the coefficients
    of Delta itself, whose torsion series Delta(t)/(1 - t^{-1}) holds the
    characteristics.  Either way the exponents land on the integer lattice:
    the `LinkDescriptor` constructor rejects a knot exponent that is not an
    integer and a link exponent that is not half-odd (the zero-linking
    parity), so the halving below is exact."""
    shift = 0 if delta.nvars == 1 else 1
    return {tuple((e + shift) // 2 for e in exp): c for exp, c in delta.terms.items()}


def _broadcast(grid: list, sides: Sequence[int], present: Sequence[bool]) -> list:
    """A sublink's flat grid repeated along the axes of a larger box that it
    lacks; sides[j] is the length of axis j of the box, and present[j] says
    whether it is one of the grid's axes."""
    unit = 1  # length of the trailing block already laid out as in the box
    for here, side in zip(reversed(present), reversed(sides)):
        if not here:
            blocks = zip(*[iter(grid)] * unit)
            grid = list(chain.from_iterable(map(mul, blocks, repeat(side))))
        unit *= side
    return grid


def _unlink_H(s) -> int:
    """H_O(s), the H-function of the unlink: the sum of max(-s_i, 0)."""
    return sum((abs(x) - x) // 2 for x in s)


def _strides(sides: Sequence[int]) -> list:
    """The index step of each axis in a row-major list with these sides."""
    return list(accumulate(reversed(sides[1:]), mul, initial=1))[::-1]


def _grid(coeffs: dict, radii: Sequence[int]) -> list:
    """A sublink's orthant sums at v = s + 1 for every s in the box
    prod [-r_i, r_i], flat, in the order of `itertools.product`: the sum of the
    coefficients at all u >= v, or for a knot (one axis) the sum of its
    torsion series over the degrees >= v.  Each coefficient sits at the mirror
    of s = u - 1, so that the suffix sums are prefix sums along every axis (a
    knot takes one more pass); below the support the sums repeat, and a
    knot's climb by Delta(1), above it they are 0.  Needs r_i > |u_i| for
    every exponent u: a coefficient off the box would wrap to another point
    without any error."""
    assert all(max(map(abs, axis)) < r for axis, r in zip(zip(*coeffs), radii)), radii
    sides = [2 * r + 1 for r in radii]
    strides = _strides(sides)
    grid = [0] * prod(sides)
    top = sum((r + 1) * st for r, st in zip(radii, strides))  # where u = 0 sits, mirrored
    for u, c in coeffs.items():
        grid[top - sum(map(mul, u, strides))] = c
    axes = list(zip(strides, sides))
    for st, side in (axes * 2 if len(axes) == 1 else axes):
        for base in range(0, len(grid), st * side):
            for start in range(base, base + st):
                stop = start + st * side
                grid[start:stop:st] = accumulate(grid[start:stop:st])
    grid.reverse()
    return grid


def _steps(grid: list, sides: Sequence[int]):
    """For every axis i and every slab (the points of a flat grid over the box
    prod [-r_j, r_j], sides[j] = 2 r_j + 1, that share the coordinates before
    i): the index of the slab's first point with s_i > -r_i, and the steps
    H(s - e_i) - H(s) from there on, in box order."""
    for st, side in zip(_strides(sides), sides):
        for base in range(0, len(grid), st * side):
            slab = grid[base:base + st * side]
            yield base + st, map(sub, slab, slab[st:])


def _laws_hold(grid: list, sides: Sequence[int]) -> bool:
    """Whether H >= 0 and every step is 0 or 1, by whole-list operations."""
    return min(grid) >= 0 and all(set(steps) <= {0, 1} for _, steps in _steps(grid, sides))


def _fold(grid: list, radii: Sequence[int]) -> list:
    """top[w] = the largest h(v) over |v| = w, for w in prod [0, r_i], flat in
    row-major order, from a flat H list over prod [-r_i, r_i].

    Each pass folds the leading axis: the row at |s_0| = a is the larger of
    the rows at s_0 = a and s_0 = -a, the latter less a, its part of H_O;
    H_O adds over the axes, so the other axes' parts pass through the max
    unchanged and are taken off in their own passes.  `zip` then turns the
    folded axis into the last one, so after one pass per axis the axes are
    back in order."""
    for r in radii:
        width = len(grid) // (2 * r + 1)
        rows = [grid[j:j + width] for j in range(0, len(grid), width)]
        grid = list(chain.from_iterable(zip(*(
            map(max, rows[r + a], map(sub, rows[r - a], repeat(a))) for a in range(r + 1)))))
    return grid


def _nonnegative(grid: list, radii: Sequence[int]) -> list:
    """The part at s >= 0 of a flat list over prod [-r_i, r_i], flat over
    prod [0, r_i] in row-major order: one pass per axis keeps the slice
    s_i >= 0 of every block of the points that share the coordinates before
    i, the later axes still whole."""
    for i, r in enumerate(radii):
        st = prod(2 * x + 1 for x in radii[i + 1:])
        grid = list(chain.from_iterable(
            grid[j:j + (r + 1) * st] for j in range(r * st, len(grid), (2 * r + 1) * st)))
    return grid


def _drops(top: list, sides: Sequence[int]) -> list:
    """Whether top[w] > 0 and top[w + e_i] < top[w] for every i with
    w_i < sides[i] - 1, for every w of a flat list over prod [0, sides[i]),
    by comparing consecutive rows of the leading axis and turning it into
    the last one, as `_fold` does."""
    keep = list(map(bool, top))
    for side in sides:
        width = len(top) // side
        rows = [top[j:j + width] for j in range(0, len(top), width)]
        flags = [keep[j:j + width] for j in range(0, len(keep), width)]
        flags = [map(and_, flags[w], map(lt, rows[w + 1], rows[w])) for w in range(side - 1)] \
            + flags[-1:]
        top = list(chain.from_iterable(zip(*rows)))
        keep = list(chain.from_iterable(zip(*flags)))
    return keep


class HTable:
    """H-function of a link descriptor over a lattice box prod [-M_i, M_i].

    Construction keeps the Euler characteristics of every sublink with
    nonzero polynomial and resolves the sign of every sublink polynomial.
    Each sign trial, and the full link's H, is a flat list over a box summed
    from the sublinks' grids; the full link's list over prod [-M_i, M_i] is
    the memo, read by index, at clamp(s) outside the box, and chi reads the
    stored coefficients.  M_i is two more than the largest |u_i| over the
    tables of the sublinks containing component i, M is the largest M_i,
    and neither ever changes.  Construction validates once: the full link's
    sign trial when its polynomial is nonzero, otherwise one whole-list check
    of its list.  Data breaking the laws raise `StabilizationError`, carrying
    every problem over the cube [-M, M]^n and the subsets whose sign was
    flipped, so a table that exists is valid.
    """

    def __init__(self, link: LinkDescriptor, force: bool = False):
        if not link.lspace_asserted and not force:
            raise LSpaceAssertionError(
                f"{link.name}: the L-space property is not asserted; the H-function "
                f"formula presupposes it (pass force=True to compute anyway)")
        self.link = link
        self.n = link.n
        self._full = tuple(range(self.n))
        self._corners: Optional[list] = None
        self._tables: dict = {}  # sublink -> its _chi_table, nonzero polynomials only
        self._radii: dict = {}   # sublink -> the largest |u_j| over its table, per axis
        self._signs: dict = {}   # sublink -> +1 or -1, filled bottom-up
        self._resolve_signs()

        self.M = max(self._box)
        self._sides = [2 * m + 1 for m in self._box]
        self._origin = sum(map(mul, self._box, _strides(self._sides)))  # index of 0

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

    def _sum_grids(self, terms: list, radii: list) -> list:
        """The signed sum of the grids of `terms` over the box prod [-r_j, r_j],
        each broadcast along the axes its sublink lacks."""
        sides = [2 * r + 1 for r in radii]
        grid = [0] * prod(sides)
        for parity, C, idx in terms:
            part = _broadcast(_grid(self._tables[C], [radii[j] for j in idx]), sides,
                              [j in idx for j in range(len(radii))])
            grid = list(map(add if parity * self._signs[C] > 0 else sub, grid, part))
        return grid

    def _resolve_signs(self) -> None:
        """Choose the sign of every multi-component sublink polynomial, bottom
        up, as the first (stored first) whose H passes the laws on the
        sublink's box prod [-r_j, r_j], r_j two more than the largest |u_j|
        over the tables containing axis j (the M_i for the full link), and
        keep the full link's H and its box, which come last.  A full link
        without a sign trial has its list checked here.

        Deciding the laws on this box decides them on the cube [-r, r]^|B|,
        r = max r_j, which the problems of a failing full link are rendered
        over: outside the box H(s) = H(clamp(s)) plus the sum of the
        max(-r_j - s_j, 0) (see the module docstring), so H >= 0 there, a
        step along a clamped axis is 0 or 1, and a step along another axis
        equals the step at the clamped point."""
        tables, radii, signs = self._tables, self._radii, self._signs
        for B in all_subsets(self.n):
            signs[B] = 1
            delta = self.link.delta(B)
            if not delta.is_zero():
                tables[B] = _chi_table(delta)
                radii[B] = [max(map(abs, axis)) for axis in zip(*tables[B])]
            trial = len(B) > 1 and B in tables
            if not trial and B != self._full:
                continue
            terms = self._terms_of(B)
            box = [2 + max(radii[C][idx.index(j)] for _, C, idx in terms if j in idx)
                   for j in range(len(B))]
            sides = [2 * r + 1 for r in box]
            if trial:
                rest = self._sum_grids([t for t in terms if t[1] != B], box)
                own = _grid(tables[B], box)
                parity = 1 if len(B) % 2 else -1
                for sigma in (1, -1):  # prefer the stored sign
                    signs[B] = sigma
                    grid = list(map(add if sigma * parity > 0 else sub, rest, own))
                    if _laws_hold(grid, sides):
                        break
                else:
                    raise SignResolutionError(
                        f"{self.link.name}: neither sign of the polynomial for subset "
                        f"{tuple(i + 1 for i in B)} yields a valid H-function; "
                        f"not an L-space link with this data")
            else:  # B is the full link
                grid = self._sum_grids(terms, box)
                if not _laws_hold(grid, sides):
                    from .violations import law_messages
                    cube = [max(box)] * len(B)
                    problems = law_messages(self._sum_grids(terms, cube), cube)
                    raise StabilizationError(
                        f"{self.link.name}: H-function fails validation on box "
                        f"[-{cube[0]}, {cube[0]}]^{len(B)}: " + "; ".join(problems[:5]),
                        problems, self.flipped_signs())
        self._grid = grid  # the full link's H over the box, flat
        self._box = box    # its M_i

    # -- evaluation ------------------------------------------------------------

    def H(self, s: Sequence[int]) -> int:
        """H-function at any lattice point, read from the list at clamp(s):
        h(s) = h(clamp(s)), so H(s) - H(clamp(s)) = H_O(s) - H_O(clamp(s)),
        the sum of max(-M_i - s_i, 0)."""
        s = tuple(s)
        if len(s) != self.n:
            raise ValueError(f"point {s} has wrong dimension, expected {self.n}")
        index, below = 0, 0
        for x, m, side in zip(s, self._box, self._sides):
            if x < -m:
                below += -m - x
                x = -m
            elif x > m:
                x = m
            index = index * side + x
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
        """The points of the cube [-M, M]^n, a window that holds every M_i."""
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
        corners with k >= j.  Computed once, by whole-list operations on the
        box list: `_fold` gives top over prod [0, M_i] and `_drops` the
        corners there.  h is constant in v_i from M_i - 1 on (see the module
        docstring), so on the cube [0, M]^n top[w + e_i] = top[w] whenever
        M_i - 1 <= w_i < M: a corner's w_i is below M_i - 1 or on the shell,
        and a shell coordinate w_i = M_i is reported as M."""
        if self._corners is None:
            sides = [m + 1 for m in self._box]
            top = _fold(self._grid, self._box)
            points = product(*map(range, sides))
            keep = _drops(top, sides)
            self._corners = [
                (tuple(self.M if x == m else x for x, m in zip(w, self._box)), k)
                for w, k in zip(compress(points, keep), compress(top, keep))]
        return self._corners

    def staircases(self) -> tuple:
        """The minimal points of {w >= 0 : h(w) = 0} and the maximal points w
        of its complement, those with h(w + e_i) = 0 for every i, each sorted,
        by whole-list operations on the box list.  On prod [0, M_i] h = H
        (`_nonnegative`); `_drops` on the list of h > 0 marks the points where
        it falls along every axis, and on the list of h = 0 with every axis
        reversed (the list reversed) the points where it falls along every
        axis downward, which are the minimal points.  h is constant in w_i
        from M_i - 1 on, so no minimal point has w_i = M_i, and no maximal
        point has w_i >= M_i - 1: the shell points w_i = M_i, which `_drops`
        does not compare along axis i, are dropped."""
        sides = [m + 1 for m in self._box]
        positive = [x > 0 for x in _nonnegative(self._grid, self._box)]
        minimal = reversed(_drops([not x for x in reversed(positive)], sides))
        maximal = compress(product(*map(range, sides)), _drops(positive, sides))
        return (tuple(compress(product(*map(range, sides)), minimal)),
                tuple(w for w in maximal if all(map(lt, w, self._box))))
