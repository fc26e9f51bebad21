"""The H-function of an L-space link from Alexander data, and its validation.

For a link with all pairwise linking numbers zero, h(s) = H(s) - H_O(s),
H_O the H-function of the unlink, is a signed sum over the nonempty
sublinks C with a table: each contributes the sum of its table c_C over the
upper orthant based at the corresponding coordinates of v = s + 1
(Gorsky-Nemethi, "Lattice and Heegaard Floer homologies of algebraic
links"; Borodzik-Gorsky, "Immersed concordances of links and Heegaard Floer
homology").  A multi-component sublink's table holds the coefficients of its
half-shifted Alexander polynomial, its HFL^- Euler characteristics.  A knot
K's holds t_K(w) = tau_K(w) - [w <= 0], where tau_K(w), the sum of
Delta_K's coefficients at the degrees >= w, is K's torsion coefficient and
[w <= 0] the unknot's: the unknot's part of H, H_O, is subtracted table by
table, so every table is placed the same way, and the unknot's is empty.

`HTable` is the only entry point to H and h and their validation, and
tables share no state.  `_chi_table` alone turns a sublink's polynomial into
its table, which only construction reads; the input's exponent parity holds
already, since a `LinkDescriptor` is valid once built.  A multi-component
sublink's table is signed by `sign_resolution`.  The link's h is kept on
the nonnegative orthant prod [0, M_j] only, as one flat row-major list per
class of sign patterns (the orthants, below), in the point order of
`itertools.product`, each built by `HTable._h_grid` from one placement:
every signed value of every table that reaches the orthant is set once in
the list, and one prefix-sum pass per axis sums all the orthant sums, with
no Python call per point.  Every whole-list kernel walks the axes one way:
it reads the rows of the leading axis (`_rows`), then turns that axis to
the back (`_joined`).  After construction those lists are the only source
of h, and H = h + H_O, for the link and for every sublink: a sublink's h is
the face s_j = M_j of the lists, for every j outside it (see below).  A
disjoint union is an ordinary descriptor: a sublink mixing parts has zero
polynomial and contributes nothing.

Each table's lattice box prod [-M_i, M_i] is fixed at construction, with M_i
two more than the largest |u_i| over the tables of the sublinks that contain
component i (2 on an axis that no table holds), and h stabilizes on it by
construction.  The argument reads one coordinate at a time.  Every orthant
sum is taken at v = s + 1.  At s_i >= M_i - 1, v_i >= M_i lies above the top
of every support containing component i, so each such table contributes 0:
h is constant in s_i there, equals the h of the sublink with component i
deleted, and vanishes on the top corner block; so the face s_j = M_j, for
every j outside a sublink, is that sublink's h over prod [-M_j, M_j], j in
it.  At s_i <= -M_i + 1, v_i lies at or below the bottom of those supports,
where every orthant sum is constant in v_i, so h is constant in s_i there.
Hence h(v) = h(clamp(v)) for every lattice point v, clamp taking each
coordinate into [-M_i, M_i]: the laws validated on the box hold everywhere,
a sweep of the box decides every question about h, and `HTable.h` reads any
point s off the list of its orthant at min(|s_i|, M_i).  M = max M_i, and
the cube [-M, M]^n holds the box: it is the window of the h-table and the
SVG, and the largeness threshold of `large_surgery_d`.  This holds by
construction, checked by the oracle tests; validation checks only the laws
the Alexander data can break, unit steps on the lists and Torres's
condition on the tables (the shell law below), and it runs in the
constructor: a table whose data break them raises `SignResolutionError` or
`StabilizationError`, so every `HTable` that exists has passed the laws.
h >= 0 is not checked: it is a theorem of the step law (D below).

The step law, on h: along every axis, each unit step away from 0 lowers h
by 0 or 1.  It is the law that H(s - e_i) - H(s) is 0 or 1, since H_O is
unchanged by the step at s_i >= 1 and grows by 1 at s_i <= 0.  So h never
increases as a coordinate moves away from 0, max h = h(0), and every level
set is read off the class lists by one primitive, `_drops`, which marks the
points of a flat list where it falls along every axis.  Each folded level
set {|v| : h(v) >= k} is a down-set of [0, M]^n, fixed by its maximal
points (`HTable.corners`, on the elementwise largest of the class lists).
{h = 0} is up-closed on the orthant s >= 0; it is fixed by its minimal
points and its complement by its maximal points (`HTable.staircases`, on
the list of that orthant).

The overall sign of a multi-component Alexander polynomial is not pinned down
by symmetry alone.  It is read off the lists themselves, bottom-up over
sublinks: every sign starts at +1, and at the lexicographically largest
exponent of a sublink's table one step of h along e_1, on the sublink's
face, satisfies the step law for at most one sign (`HTable._resolve_signs`
has the rule and its proof); a sign that fails it is flipped and the lists
built again.  The last lists, built with those signs, are the memo of h,
and the validation is one whole-list check of each list's steps,
`_failing_steps`, with, when there is more than one class, Torres's
condition on every table of two or more components, `_breaks_torres`.
Only when something fails is the box list over prod [-M_j, M_j] built,
with the signs as chosen, and `violations` imported: it reads the verdict
off that list's failing steps and the Torres breakers of three or more
components, checking nothing again: the sublink that no sign makes valid,
or every problem on the box.  So the lists are the only evaluator of h: a
table builds each class's list once, plus once after each flipped sign,
and the box list only to refuse.

What the laws prove.  Let c_C be a sublink's table (`_chi_table`, at the
coordinates u = (e + 1)/2 of the doubled exponents e of a link, at the
degrees of a knot), eps_C = sign_C * (-1)^(|C| - 1) its sign in `_h_grid`
(+1 for a knot), and O_C(v) its orthant sum, the sum of c_C over u >= v.
The lists are h: placing tau_K would give H, and the unknot's orthant sum at
v = s_i + 1, the sum of [w <= 0] over w >= v, is max(-s_i, 0), so t_K
takes H_O's part on axis i off, and h(s) is the sum of eps_C O_C(s + 1).
Delta_K(1) = 1 makes tau_K 1 below Delta_K's support and 0 above it, so
t_K is supported in [-top + 1, top], top the top degree of Delta_K, and
t_K(top) = a_top, Delta_K's top coefficient, is not 0: a knot's radius is
top, as Delta_K's.  At s_j = M_j the orthant sums of every table
containing j are empty, so a coordinate at +M_j deletes component j; at
s_j = -M_j they run over all of u_j.
- (A) One symmetry for every table: c_C(1 - u) = (-1)^|C| c_C(u).  The
  `LinkDescriptor` constructor enforces it for |C| >= 2, and symmetric
  knots with Delta(1) = 1.  tau_K(w) + tau_K(1 - w) is the sum of the
  coefficients at the degrees >= w and, by symmetry, at the degrees
  <= w - 1, that is Delta(1) = 1, as [w <= 0] + [1 - w <= 0] is; so
  t_K(1 - w) = -t_K(w).
- (B) Every table sums to 0.  For odd |C|, knots included, this is (A).
  For even |C|, fix i in C and take the line where s_i varies,
  s_j = -M_j for j in C - i and s_j = M_j for j off C.  The line lies in
  the box, so the step law is checked on it.  Only the tables D in C with
  i in D vary along it, each seeing every u_j, j != i, so the step
  h(s - e_i) - h(s) at s_i = x is the sum of eps_D rho_D(x), where
  rho_D(x) is the sum of c_D over u_i = x and rho_D(1 - x) =
  (-1)^|D| rho_D(x).  For x >= 1 the step is 0 or 1, at 1 - x it is 0 or
  -1, and the two add to 2 sum_{|D| even} eps_D rho_D(x), in {-1, 0, 1},
  so that even sum is 0 for every x; the same line for each even D in C gives the same, and
  by induction on |D| rho_C = 0 identically.  For a pair C, rho_C = 0 for
  both choices of i is Torres's condition itself: Delta_C vanishes at
  t_j = 1.
- (C) h = 0 at every corner of {-M_j, M_j}^n, so at every corner of the
  cube: the coordinates at +M_j delete their components, and at -M_j each
  remaining table gives the sum of its coefficients, 0 by (B).
- (D) h >= 0 everywhere.  Moving each coordinate of a box point away from
  0 out to +-M_j never raises h, and at the corner reached h = 0 by (C).
  Hence H = h + H_O >= 0, and h = 0 identically exactly when
  h(0) = max h = 0.
None of this needs Torres's condition beyond pairs, and the laws do not
imply it on three or more components: the triple t_1^(3/2) t_2^(1/2)
t_3^(-1/2) - t_1^(-3/2) t_2^(-1/2) t_3^(1/2) over the knots T(2,5), the
trefoil and T(2,5), with zero pair polynomials, passes the step law with
its sign flipped, yet does not vanish at t_3 = 1, and its h breaks
h(-s) = h(s), 2 at (-4, -4, 0) against 1 at (4, 4, 0).

The shell law, the law the data can break beyond the steps: on every axis
i, h at s_i = -M_i equals h at s_i = M_i.  At s_i = M_i every table
containing i gives 0.  At s_i = -M_i the knot's gives its sum, 0 by (B),
and every C with i in C, |C| >= 2, gives eps_C times the orthant sum, over
C - i, of P_{C,i}, c_C summed over u_i: the table of Delta_C at t_i = 1.
So h(s_i = -M_i) - h(s_i = M_i) is the sum of those terms.  On the face
s_j = M_j for j off S + i only the C in S + i remain; if every C in S + i
but S + i itself satisfies Torres in t_i, the difference there is eps times
the orthant sum of P_{S+i,i} alone, and inclusion-exclusion over that face
gives P_{S+i,i} back.  So by induction on |S| the shell law on axis i holds
exactly when every sublink containing i vanishes at t_i = 1, and where the
steps hold, by (B), it can fail only with a sublink of three or more
components.  Hence the validation compares no shells: on the box, the
laws hold exactly when the steps hold and no table of three or more
components has sums over an axis u_i that are not all 0 (`_breaks_torres`),
and it needs no row s_i = -M_i.  A table breaking Torres fails the shell
of the face of every sublink holding it, which no sign repairs, so it
raises `SignResolutionError`.  The orthants below turn the check of the
box's steps into checks of the class lists.

Symmetry, a theorem of the steps and Torres's condition: h(-s) = h(s).
Substituting u -> 1 - u, O_C(1 - s) = (-1)^|C| times the sum of c_C over
u <= s by (A).  Writing [u_j <= s_j] = 1 - [u_j >= s_j + 1] on each axis
turns that sum into (-1)^|C| O_C(s + 1) and signed sums with a free axis,
which Torres (and, for a knot, (B)) makes 0.  So every table gives the same
at -s as at s.

The orthants.  A sign pattern p flags a set of axes; its closed orthant is
the s with s_j <= 0 on the flagged axes and s_j >= 0 on the others.  For a
table c_C, let c_C^p be c_C reflected u_j -> 1 - u_j on the flagged axes of
C and negated once per reflected axis.
- (R) The reflection: if every table of two or more components keeps
  Torres's condition, h(s) on p's closed orthant is the signed sum of the
  orthant sums of the c_C^p at |s| + 1.  On a flagged axis j of C, the sum
  of c_C over u_j >= s_j + 1 is minus its sum over u_j <= s_j, since the
  sums over all u_j are 0 (Torres; for a knot, (B)); and u_j <= s_j is
  1 - u_j >= |s_j| + 1, s_j <= 0.  Both sides agree at s_j = 0, so the
  orthant is closed.  Only values of c_C^p at u >= 1 reach an orthant sum
  at |s| + 1 >= 1, so p's list over prod [0, M_j] is `_h_grid`'s placement
  of those values at u - 1 (`_orthant_table`).  A knot's table is its own
  reflection, t_K(1 - w) = -t_K(w) by (A), so knots are never reflected.
- (P) A pattern and its complement share a list: reflecting all the axes
  of C and negating |C| times gives c_C back, by (A), so C reflected on
  its flagged axes equals C reflected on the others.  Patterns whose
  tables all agree share one list, and the orthants fall into classes,
  decided from the tables before any list is built: at most 2^(n - 1).
- (S) Where (R) holds, the class lists' steps are exactly the box's
  steps.  A unit step of the box, between s and s + e_i, lies in one
  closed orthant, since s_i and s_i + 1 are both >= 0 or both <= 0 and the
  other coordinates are shared; there, by (R), h at its two ends is that
  orthant's list at their absolute values, which differ by e_i, the end
  nearer 0 the lower.  So each box step, read away from 0, is a step of a
  class list, all of which lead away from 0, and each list step is the
  box step at every orthant of its class: the step law holds on the box
  exactly when every class list keeps it, read with no middle row.
- (T) One class implies Torres's condition.  If all the patterns form one
  class, every c_C^p agrees with c_C at u >= 1, so c_C(u') =
  (-1)^|A| c_C(u) at each point u', A the axes where u'_j <= 0 and u >= 1
  the reflection of u' on A.  Reflecting u' on one more axis i adds i to A
  or takes it out, so it negates c_C: c_C is antisymmetric under
  u_i -> 1 - u_i, the pairs u_i, 1 - u_i cancel in every sum over u_i,
  and c_C keeps Torres's condition.
Hence the validation: with one class, Torres holds (T), so by (S) the list's
steps decide the step law and the shell law holds; with more than one,
`_breaks_torres` reads every table of two or more components, and with no
breaker (R) holds and (S) decides the steps.  A breaker refuses the table,
a pair by (B) and a larger one by the shell law.  So the verdict is the
box's, and a refused table's error is read off the box list.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial, reduce
from itertools import accumulate, chain, compress, product
from math import prod
from operator import add, and_, itemgetter, lt, mul, sub
from typing import Sequence

from .errors import LSpaceAssertionError
from .laurent import LaurentPoly
from .linkcat import LinkDescriptor, all_subsets, knot_genus


def _chi_table(delta: LaurentPoly) -> dict:
    """A sublink's table, its nonzero values only, from its polynomial: the
    coefficients of delta * (t_1 ... t_k)^{1/2}, its Euler characteristics,
    or for a knot t_K(w) = tau_K(w) - [w <= 0] at the degrees w from
    Delta's top degree down to 1 minus it, tau_K(w) the sum of Delta's
    coefficients at the degrees >= w (its torsion coefficients less the
    unknot's; empty for the unknot).  The exponents land on the integer
    lattice: the `LinkDescriptor` constructor rejects a knot exponent that
    is not an integer and a link exponent that is not half-odd (the
    zero-linking parity), so the halving below is exact.  Only construction
    reads the result: the box, the sign rule's largest exponent and
    `_h_grid`."""
    if delta.nvars > 1:
        return {tuple((e + 1) // 2 for e in exp): c for exp, c in delta.terms.items()}
    top = knot_genus(delta)
    degrees = range(top, -top, -1)
    tau = accumulate(delta.terms.get((2 * w,), 0) for w in degrees)
    return {(w,): t for w, x in zip(degrees, tau) if (t := x - (w <= 0))}


def _unlink_H(s) -> int:
    """H_O(s), the H-function of the unlink: the sum of max(-s_i, 0)."""
    return sum((abs(x) - x) // 2 for x in s)


def _rows(grid: list, side: int) -> list:
    """The side rows of the leading axis of a flat row-major list: row a
    holds, in order, the points whose first coordinate is the a-th."""
    width = len(grid) // side
    return [grid[j:j + width] for j in range(0, len(grid), width)]


def _joined(rows) -> list:
    """The flat row-major list of these rows of the leading axis, with that
    axis turned into the last one: after one turn per axis the axes are back
    in order."""
    return list(chain.from_iterable(zip(*rows)))


def _failing_steps(grid: list, box: Sequence[int], below: Sequence[int]) -> list:
    """The unit steps of a flat h list over prod [-below_j, box_j], as
    `HTable._h_grid` builds it, that break the step law, each as (i, a, p,
    d), by whole-list operations on the rows of each axis i in turn
    (`_rows`, turned by `_joined` between axes): each unit step away from 0
    lowers h by d, 0 or 1, from the row nearer s_i = 0 to the farther, so
    d = rows[a + 1][p] - rows[a][p] below that row, a < below_i, and d =
    rows[a][p] - rows[a + 1][p] from it on.  A class list has below_j = 0,
    so every step leads away from 0; only the box list of a refused table,
    below_j = M_j, has steps below s_i = 0.  p indexes a row over the axes after i, i + 1,
    ..., n - 1, 0, ..., i - 1, in row-major order, as the turns leave them.
    A row pair that fails is read again to list its failures.  This is the
    only check of the step law on a list: the verdict, the culprit and the
    report all read its failures, and the sign rule reads one step per
    sublink.  h >= 0 is not checked: it follows (D in the module
    docstring)."""
    failing = []
    for i, (m, b) in enumerate(zip(box, below)):
        rows = _rows(_joined(rows) if i else grid, m + 1 + b)  # no turn after the last axis
        for a in range(m + b):
            pair = rows[a:a + 2][::-1 if a < b else 1]  # the row nearer s_i = 0 first
            if not {0, 1}.issuperset(map(sub, *pair)):
                failing += [(i, a, p, d) for p, d in enumerate(map(sub, *pair)) if d not in (0, 1)]
    return failing


def _breaks_torres(table: dict) -> bool:
    """Whether a sublink's table has an axis u_i over which its sums are not
    all 0, that is, its polynomial does not vanish at t_i = 1, against
    Torres's condition: one dict of sums, keyed by the coordinates before
    the axis and after it, whose split names the axis."""
    sums = defaultdict(int)
    for u, c in table.items():
        for i in range(len(u)):
            sums[u[:i], u[i + 1:]] += c
    return any(sums.values())


def _orthant_table(table: dict, axes: Sequence[int]) -> dict:
    """The values at u >= 1 of a table reflected u_k -> 1 - u_k on these of
    its axes, each negated once per reflected axis: all that the list of an
    orthant reads of it (R in the module docstring).  Each pass maps one
    axis of the table's points, and only the points kept are reflected."""
    size = len(next(iter(table)))
    inside = [map((1).__gt__ if k in axes else (0).__lt__, map(itemgetter(k), table))
              for k in range(size)]  # u_k <= 0 on a reflected axis, u_k >= 1 on the others
    keep = list(reduce(partial(map, and_), inside))
    points = list(compress(table, keep))
    columns = [map(itemgetter(k), points) for k in range(size)]
    for k in axes:
        columns[k] = map((1).__sub__, columns[k])
    values = map(((-1) ** len(axes)).__mul__, compress(table.values(), keep))
    return dict(zip(zip(*columns), values))


def _drops(top: list, sides: Sequence[int]) -> list:
    """Whether top[w] is nonzero, which is positive on every list it reads,
    as h >= 0 (D in the module docstring), and top[w + e_i] < top[w] for
    every i with w_i < sides[i] - 1, for every w of a flat list over
    prod [0, sides[i]): each pass compares consecutive rows of the leading
    axis, and `_joined` turns it into the last one."""
    keep = list(map(bool, top))
    for side in sides:
        rows, flags = _rows(top, side), _rows(keep, side)
        keep = _joined([map(and_, flags[w], map(lt, rows[w + 1], rows[w]))
                        for w in range(side - 1)] + flags[-1:])
        top = _joined(rows)
    return keep


class HTable:
    """h- and H-function of a link descriptor over a lattice box
    prod [-M_i, M_i].

    Construction reads the table of every sublink that has one, and the box
    from them, sorts the orthants into classes that share one list
    (`_split_orthants`), then reads the sign of every sublink polynomial off
    the full link's h, one flat list over prod [0, M_i] per class
    (`_h_grid`), built again after each flipped sign.  The last lists are
    the memo, each orthant's read by index at |s|, and at min(|s_i|, M_i)
    outside the box; h and H = h + H_O are the only values read after
    construction.  M_i is two more than the largest |u_i| over the tables
    of the sublinks containing component i (2 if none does), M is the
    largest M_i, and neither ever changes.  Construction validates once, by
    one whole-list check of each list's unit steps and, with more than one
    class, Torres's condition on the tables of two or more components,
    which together give the laws on the box, of which h >= 0 and
    h(-s) = h(s) are theorems (see the module docstring).  Data for which
    no sign makes a sublink valid raise `SignResolutionError`; other data
    breaking the laws raise `StabilizationError`, carrying every problem on
    the box and the subsets whose sign was flipped, both read off the box
    list, which only a refused table builds; so a table that exists is
    valid.
    """

    def __init__(self, link: LinkDescriptor, force: bool = False):
        if not link.lspace_asserted and not force:
            raise LSpaceAssertionError(
                f"{link.name}: the L-space property is not asserted; the H-function "
                f"formula presupposes it (pass force=True to compute anyway)")
        self.link = link
        self.n = link.n
        self._tables: dict = {}  # sublink -> its _chi_table, nonempty tables only
        self._signs = dict.fromkeys(all_subsets(self.n), 1)  # +1 until the rule flips it
        self._box = [2] * self.n  # M_j, widened over the tables holding axis j
        for B in self._signs:
            if c := _chi_table(link.delta(B)):
                self._tables[B] = c
                for j, axis in zip(B, zip(*c)):
                    self._box[j] = max(self._box[j], 2 + max(map(abs, axis)))
        self.M = max(self._box)
        self._sides = [m + 1 for m in self._box]  # of each class list, over prod [0, M_j]
        self._resolve_signs(self._split_orthants())

    # -- construction helpers ------------------------------------------------

    def _split_orthants(self) -> list:
        """Sort the 2^n orthants of sign patterns into classes that share
        one list, from the tables alone, before any list is built.

        Pattern p, one flag per axis in the order of `itertools.product`
        (True for s_j < 0), reads every table reflected on the axes that p
        flags (R in the module docstring).  A table reflected on its axes A
        equals it reflected on the rest of its axes, by (A), so each table
        is reflected on the axes where p differs from p at its first axis,
        and a pattern and its complement share every table.  Two patterns
        are in one class exactly when their tables are all equal.
        Returns each class's tables, the first class that of p = 0, which
        only construction reads, and sets `_orthants`, the class of each
        pattern."""
        reflected = {}  # (C, axes) -> C's table reflected on those axes
        classes, self._orthants = [], []
        for p in product((False, True), repeat=self.n):
            tables = {}
            for C, c in self._tables.items():
                axes = tuple(k for k, j in enumerate(C) if p[j] != p[C[0]])
                if (C, axes) not in reflected:
                    reflected[C, axes] = _orthant_table(c, axes)
                tables[C] = reflected[C, axes]
            if tables not in classes:
                classes.append(tables)
            self._orthants.append(classes.index(tables))
        return classes

    def _h_grid(self, tables: dict, below: Sequence[int]) -> list:
        """h over prod [-below_j, M_j] from these tables, with the signs as
        they stand: one flat list, in the order of `itertools.product`.  A
        class's tables, at u >= 1 and below_j = 0, give its list over
        prod [0, M_j]; the stored tables and below_j = M_j give the box list
        of a refused table.

        h is the signed sum, over the sublinks C with a table, of the
        orthant sums at v = s + 1, the sum of C's table at all u >= v, each
        constant along the axes C lacks (see the module docstring: a knot's
        table takes the unknot's part off, so the sum is h, not H).  So every
        signed value is placed once, at the mirror of s = u - 1, and at the
        top index of each axis C lacks; one prefix-sum pass over the rows
        of each axis, which `_joined` turns into the last one, sums every
        orthant at once, and reversing the list undoes the mirror.  The box
        is built from the tables, M_j = 2 + the largest |u_j| over those
        holding axis j, so every value lands on the list.  This is the only
        evaluator of h: a table builds each class's list once, plus once
        after each sign the rule flips, and every sublink's h is a face of
        them."""
        sides = [m + 1 + b for m, b in zip(self._box, below)]
        strides = list(accumulate(reversed(sides[1:]), mul, initial=1))[::-1]
        grid = [0] * prod(sides)
        for C, table in tables.items():
            sign = self._signs[C] * (-1) ** (len(C) - 1)
            steps = [strides[k] for k in C]
            top = sum((self._box[k] + 1) * strides[k] for k in C)  # where u = 0 sits, mirrored
            for u, c in table.items():
                grid[top - sum(map(mul, u, steps))] = sign * c
        for side in sides:
            grid = _joined(accumulate(_rows(grid, side), lambda x, y: list(map(add, x, y))))
        grid.reverse()
        return grid

    def _build(self, classes: list) -> None:
        """The list over prod [0, M_j] of each of these classes' tables, with
        the signs as they stand."""
        self._grids = [self._h_grid(tables, [0] * self.n) for tables in classes]

    def _resolve_signs(self, classes: list) -> None:
        """Choose the sign of every multi-component sublink polynomial by the
        rule below, bottom up, reading each off the full link's lists of
        these classes, then check the laws on those lists once.

        The rule.  Every sign starts at +1 and the lists are built with them.
        For each multi-component sublink B with a table c, in `all_subsets`
        order, let a = max(c) be its lexicographically largest exponent, and
        read the step h(s) - h(s + e_1), e_1 the unit vector of B[0], at
        s_j = a_j - 1 for j in B and s_j = M_j off B, a point of B's face.
        Keep sign_B = +1 if the step is 0 or 1; else take sign_B = -1 and
        build the lists again, so that the supersets of B read them.

        What the step is.  On the face, every table holding an axis j off B
        gives 0 (its orthant sums at v_j = M_j + 1 are empty), so only the
        tables C of sublinks of B count, and the step is that of h_B between
        v = a and v = a + e_1 (v = s + 1).  B's own orthant sum is c(a) at
        a, since every other u >= a is lexicographically larger, and 0 at
        a + e_1.  A table C without B[0] is constant along e_1.  A table C
        with B[0] changes by step_C, the sum of c_C(u) over u_1 = a_1 and
        u >= a on C's other axes; for a knot that is t_K(a_1) = tau_K(a_1),
        its torsion coefficient, as a_1 >= 1 (below).  So with parity =
        (-1)^(|B| - 1) and rho the sum of parity_C * sign_C * step_C over
        the proper sublinks C of B holding B[0], knots included, whose signs
        are final (they come first in `all_subsets` order), the step read is
        rho + parity * sign_B * c(a) at sign_B = +1.

        Proof that no other sign can be valid.  c's support is symmetric
        under u -> 1 - u (A in the module docstring), so a_1 >= 1 - a_1, that
        is a_1 >= 1: the step leads away from 0 along e_1, and the step law
        reads it in {0, 1}.  The two signs give values 2|c(a)| >= 2 apart,
        so at most one sign is valid, and the rule picks it whenever one is.
        H determines chi by inclusion-exclusion, so this pins the sign of
        chi that the laws allow (Liu, "L-space surgeries on links";
        Gorsky-Nemethi).

        What the lists give.  The step is read off the list of its orthant,
        which is h there by (R) in the module docstring when every table of
        a sublink of B keeps Torres's condition; those are the only tables
        the step reads.  Let C be the first sublink, in `all_subsets` order,
        whose table breaks it.  Every sublink before C, and so every sublink
        of one, reads only tables that keep it, so the signs chosen before C
        are those that h itself gives; and C's face fails whatever the signs
        (below), so the table is refused at C or at an earlier face, which
        those signs alone decide, and no sign after C is ever read.

        The verdict, read once, on the last lists.  Their failing unit steps
        (`_failing_steps`) and, with more than one class, the Torres
        breakers of two or more components (`_breaks_torres`) decide it:
        with neither, the table is valid, and with either, the box's laws
        fail ((S) and (T) in the module docstring).  Then the box list is
        built with the signs as chosen, and its failing steps and the
        breakers of three or more components, the box's failures, reach
        `violations`, which names the culprit or the problems from those
        failures, and no face is checked again.  B's face s_j = M_j (j not
        in B) is h_B on prod [-M_j, M_j] (j in B), and on a box that wide
        the laws decide h_B everywhere (see below).  Two equivalences make
        the failures name the faces that fail:
        - A face fails exactly when its steps fail or it contains a breaker.
          Its steps are those of the list along the axes i in B at the points
          with s_j = M_j off B, so one fails exactly when B holds the failing
          step's minimal face {j : s_j != M_j} + {i}.  Its shell on axis i
          holds exactly when every C in B holding i vanishes at t_i = 1 (the
          shell law in the module docstring), and a pair C that does not has
          a failing step of minimal face C, on the line of (B) there.
        - With the steps holding, the first failing face is the first
          breaker: a breaker has a table, and `all_subsets` lists it before
          every superset.
        So the first multi-component sublink with a table, in `all_subsets`
        order, whose face fails is one that no sign makes valid, since every
        earlier one had its only valid sign, or one breaking Torres's
        condition, which no sign repairs, and it raises
        `SignResolutionError`; if there is none, the data break the step law
        elsewhere, and `StabilizationError` carries every problem on the
        box, read off the same failing steps: no other list is built.

        Deciding the laws on a box prod [-r_j, r_j], r_j two more than the
        largest |u_j| over the tables containing axis j, decides them on
        every larger box, such as the cube [-r, r]^|B|, r = max r_j: outside
        the box h(s) = h(clamp(s)) (see the module docstring), so a step
        along a clamped axis is 0, a step along another axis equals the step
        at the clamped point, and h on a shell of the larger box is h on the
        box's shell.  So every problem on a larger box is a clamp copy of
        one on the box, with the same law, axis and jump, and the box's
        problems are all the report names."""
        self._build(classes)
        for B, c in self._tables.items():
            if len(B) > 1:
                s = list(self._box)
                for j, x in zip(B, max(c)):
                    s[j] = x - 1
                step = self.h(s)
                s[B[0]] += 1
                if step - self.h(s) not in (0, 1):
                    self._signs[B] = -1
                    self._build(classes)
        below = [0] * self.n
        steps = any(_failing_steps(grid, self._box, below) for grid in self._grids)
        breakers = [C for C, c in self._tables.items()
                    if len(self._grids) > 1 and len(C) > 1 and _breaks_torres(c)]
        if steps or breakers:
            from .violations import refuse
            grid = self._h_grid(self._tables, self._box)
            refuse(self, grid, _failing_steps(grid, self._box, self._box),
                   [C for C in breakers if len(C) > 2])

    # -- evaluation ------------------------------------------------------------

    def h(self, s: Sequence[int]) -> int:
        """h at any lattice point s, read from the list of its orthant's
        class at |s|, clamped to min(|s_i|, M_i): h on the orthant is that
        list ((R) in the module docstring), and h(s) = h(clamp(s))."""
        s = tuple(s)
        if len(s) != self.n:
            raise ValueError(f"point {s} has wrong dimension, expected {self.n}")
        index = pattern = 0
        for x, m in zip(s, self._box):
            index = index * (m + 1) + min(abs(x), m)
            pattern = 2 * pattern + (x < 0)
        return self._grids[self._orthants[pattern]][index]

    def H(self, s: Sequence[int]) -> int:
        """H-function at any lattice point: h(s) + H_O(s)."""
        s = tuple(s)
        return self.h(s) + _unlink_H(s)

    # -- the box and the signs ---------------------------------------------------

    @property
    def sign_resolution(self) -> dict:
        """Chosen sign per sublink subset (1-based keys, sorted), +1 = as
        stored."""
        return {tuple(i + 1 for i in B): s for B, s in sorted(self._signs.items())}

    def flipped_signs(self) -> list:
        """1-based subsets whose stored polynomial sign had to be flipped, in
        the sorted order of `sign_resolution`."""
        return [B for B, s in self.sign_resolution.items() if s == -1]

    # -- sweeps used by regions and bounds ---------------------------------------

    def corners(self) -> list:
        """The pairs (w, k) with k = top[w] > 0 and top[w + e_i] < k for every i
        with w_i < M, sorted, where top[w] is the largest h(v) with |v| = w.
        The maximal points of {w : top[w] >= j} are the maximal w among the
        corners with k >= j.  Read afresh from the class lists on each call,
        by whole-list operations, into a new list, so no caller can change a
        later answer: top over prod [0, M_i] is their elementwise largest,
        as every v with |v| = w lies in some class's orthant, and `_drops`
        gives the corners there.  h is constant in v_i from M_i - 1 on (see the module
        docstring), so on the cube [0, M]^n top[w + e_i] = top[w] whenever
        M_i - 1 <= w_i < M: a corner's w_i is below M_i - 1 or on the shell,
        and a shell coordinate w_i = M_i is reported as M."""
        top = list(map(max, zip(*self._grids)))
        points = product(*map(range, self._sides))
        keep = _drops(top, self._sides)
        return [(tuple(self.M if x == m else x for x, m in zip(w, self._box)), k)
                for w, k in zip(compress(points, keep), compress(top, keep))]

    def staircases(self) -> tuple:
        """The minimal points of {w >= 0 : h(w) = 0} and the maximal points w
        of its complement, those with h(w + e_i) = 0 for every i, each sorted,
        by whole-list operations on the list of the orthant s >= 0, the first
        class's: `_drops` on the list of h > 0 marks the points where it
        falls along every axis, and on the list of h = 0 with every axis
        reversed (the list reversed) the points where it falls along every
        axis downward, which are the minimal points.  h is constant in w_i
        from M_i - 1 on, so no minimal point has w_i = M_i, and no maximal
        point has w_i >= M_i - 1: the shell points w_i = M_i, which `_drops`
        does not compare along axis i, are dropped."""
        sides = self._sides
        positive = [x > 0 for x in self._grids[0]]
        minimal = reversed(_drops([not x for x in reversed(positive)], sides))
        maximal = compress(product(*map(range, sides)), _drops(positive, sides))
        return (tuple(compress(product(*map(range, sides)), minimal)),
                tuple(w for w in maximal if all(map(lt, w, self._box))))
