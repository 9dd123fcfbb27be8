"""Integer-lattice geometry: hyperplanes, half-spaces, polyhedral regions,
measure-zero covers, boxes, erosion, arrangements, and path connectivity.

Conventions:

  * A hyperplane is {z : v . z = n}; a half-space is {z : v . z > n}.
    Only strict inequalities are stored; ``>= n`` is encoded as ``> n - 1``.
  * A region keeps one half-space per normal, the tightest: {v . z > n}
    with the largest n among those it was given.
  * A set of measure zero is a set covered by finitely many hyperplanes;
    a measure-zero set holds only planes with lattice points.
  * A box of size n at corner c is {z : c_i <= z_i <= c_i + n}.

All decisions (feasibility, emptiness of interiors, bounds) are made
exactly over the rationals by one Fourier-Motzkin elimination loop,
``_fm_project_all``; ``fm_feasible``, ``fm_sample`` and ``fm_sup`` read its
projections, and no floating point is involved.  Its rows are integer: a
primitive int coefficient vector and a right-hand side that is an int,
or a Fraction where dividing by the gcd leaves one, so the elimination
multiplies and divides small ints and builds a Fraction only for such a
right-hand side and for the bounds the readers return.  The measure-zero
dichotomy (a region either holds arbitrarily large boxes or is covered by
finitely many hyperplanes) is decided by ``is_measure_zero`` on a system
in (z, t) where t is the box size; eroding by d substitutes t -> t + d in
that system, so erosion never turns a region that holds large boxes into
one that does not.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Optional, Sequence

from ._frozen import Frozen, Ordered, set_field
from .errors import DimensionError, IntegrityError, PreconditionError
from .poly import Coeff, MultiPoly, Point, _coeff, _integer, expand


# ---------------------------------------------------------------------------
# basic value types
# ---------------------------------------------------------------------------


class Hyperplane(Ordered):
    """{z : v . z = n} in canonical form: v primitive with positive first
    nonzero entry.  If canonicalization shows the plane carries no integer
    points (gcd of v does not divide n), it is stored with ``empty`` set."""

    v: Point
    n: int
    empty: bool = False

    def __init__(self, v, n, empty=False):
        set_field(self, "v", v)
        set_field(self, "n", n)
        set_field(self, "empty", empty)

    @staticmethod
    def make(v: Sequence[int], n: int) -> "Hyperplane":
        v = tuple(_integer(x, "hyperplane normal") for x in v)
        n = _integer(n, "hyperplane level")
        if all(x == 0 for x in v):
            raise PreconditionError("hyperplane normal must be nonzero")
        g = math.gcd(*v)
        sign = 1 if next(x for x in v if x) > 0 else -1
        v = tuple(sign * x // g for x in v)
        n = sign * n
        if n % g != 0:
            return Hyperplane(v, n, empty=True)
        return Hyperplane(v, n // g)

    @property
    def arity(self) -> int:
        return len(self.v)

    def contains(self, z: Sequence[int]) -> bool:
        return not self.empty and sum(a * b for a, b in zip(self.v, z)) == self.n


class HalfSpace(Ordered):
    """{z : v . z > n} with v primitive (integer points are unchanged by
    dividing v by its gcd and flooring n)."""

    v: Point
    n: int

    def __init__(self, v, n):
        set_field(self, "v", v)
        set_field(self, "n", n)

    @staticmethod
    def make(v: Sequence[int], n: int) -> "HalfSpace":
        v = tuple(_integer(x, "half-space normal") for x in v)
        n = _integer(n, "half-space level")
        if all(x == 0 for x in v):
            raise PreconditionError("half-space normal must be nonzero")
        g = math.gcd(*v)
        return HalfSpace(tuple(x // g for x in v), n // g)

    @property
    def arity(self) -> int:
        return len(self.v)

    def contains(self, z: Sequence[int]) -> bool:
        return sum(a * b for a, b in zip(self.v, z)) > self.n


class PolyhedralRegion(Frozen):
    """Intersection of finitely many half-spaces; no constraints means all
    of Z^k.  ``make`` keeps one half-space per normal: of {v . z > n} and
    {v . z > m} with m <= n the second holds wherever the first does, so
    only the largest n stays and the lattice points are unchanged."""

    arity: int
    halfspaces: tuple[HalfSpace, ...]

    def __init__(self, arity, halfspaces):
        set_field(self, "arity", arity)
        set_field(self, "halfspaces", halfspaces)

    @staticmethod
    def make(arity: int, halfspaces: Iterable[HalfSpace]) -> "PolyhedralRegion":
        tightest: dict[Point, HalfSpace] = {}
        for h in halfspaces:
            if h.arity != arity:
                raise DimensionError("half-space arity mismatch")
            kept = tightest.get(h.v)
            if kept is None or h.n > kept.n:
                tightest[h.v] = h
        return PolyhedralRegion(arity, tuple(sorted(tightest.values())))

    @staticmethod
    def whole(arity: int) -> "PolyhedralRegion":
        return PolyhedralRegion(arity, ())

    def contains(self, z: Sequence[int]) -> bool:
        if len(z) != self.arity:
            raise DimensionError("point arity mismatch")
        return all(h.contains(z) for h in self.halfspaces)

    def intersect(self, *halfspaces: HalfSpace) -> "PolyhedralRegion":
        return PolyhedralRegion.make(self.arity, self.halfspaces + tuple(halfspaces))


class MeasureZeroSet(Frozen):
    """A finite sorted list of hyperplanes, deduplicated under canonical
    form; ``make`` drops the planes without lattice points."""

    hyperplanes: tuple[Hyperplane, ...]

    def __init__(self, hyperplanes):
        set_field(self, "hyperplanes", hyperplanes)

    @staticmethod
    def make(planes: Iterable[Hyperplane]) -> "MeasureZeroSet":
        return MeasureZeroSet(tuple(sorted({p for p in planes if not p.empty})))

    @staticmethod
    def empty() -> "MeasureZeroSet":
        return MeasureZeroSet(())

    def union(self, other: "MeasureZeroSet") -> "MeasureZeroSet":
        return MeasureZeroSet.make(self.hyperplanes + other.hyperplanes)

    def covers(self, z: Sequence[int]) -> bool:
        return any(h.contains(z) for h in self.hyperplanes)

    @functools.cached_property
    def _normals(self) -> tuple[tuple[Point, int, frozenset[int]], ...]:
        """(v[:-1], v[-1], the levels n of the planes v . z = n) per normal
        v."""
        levels: dict[Point, list[int]] = {}
        for h in self.hyperplanes:
            levels.setdefault(h.v, []).append(h.n)
        return tuple((v[:-1], v[-1], frozenset(ns)) for v, ns in levels.items())

    def row_lines(self, rest: Sequence[int]) -> Optional[list[tuple[int, int, frozenset[int]]]]:
        """The planes on the row {rest + (t,)}: None when one holds the
        whole row, else (d, c, levels) per normal v with c = v[-1] != 0 and
        d = v[:-1] . rest, so that rest + (t,) lies on a plane exactly when
        d + c t is in the levels of one of them.  A normal with v[-1] = 0
        holds the whole row at level d or misses it."""
        lines = []
        for head, c, levels in self._normals:
            d = sum(map(operator.mul, head, rest))
            if c:
                lines.append((d, c, levels))
            elif d in levels:
                return None
        return lines

    def __len__(self) -> int:
        return len(self.hyperplanes)


class LatticeBox(Frozen):
    """{z : corner_i <= z_i <= corner_i + size}."""

    corner: Point
    size: int

    def __init__(self, corner, size):
        set_field(self, "corner", corner)
        set_field(self, "size", size)
        if size < 0:
            raise PreconditionError("box size must be nonnegative")

    @property
    def arity(self) -> int:
        return len(self.corner)

    def contains(self, z: Sequence[int]) -> bool:
        return all(c <= x <= c + self.size for c, x in zip(self.corner, z))

    def points(self) -> Iterator[Point]:
        ranges = [range(c, c + self.size + 1) for c in self.corner]
        return (tuple(p) for p in itertools.product(*ranges))


# ---------------------------------------------------------------------------
# exact linear feasibility (Fourier-Motzkin)
# ---------------------------------------------------------------------------

# A row is (coeffs, rhs) meaning coeffs . x >= rhs, with coeffs integers
# and rhs an int when integral, a Fraction otherwise (``poly._coeff``).
# Integer constraints are tightened before they become rows (v . z > n is
# v . z >= n + 1), so no row is strict.  Elimination keeps every row it
# makes primitive: a row scaled by a positive number is the same
# half-space, so dividing by the gcd of the coefficients changes nothing
# but the size of the numbers, and rows whose primitive vectors are equal
# are parallel, of which only the tightest is kept.
Row = tuple[tuple[int, ...], Coeff]


def _eliminate(rows: list[Row], var: int) -> Optional[list[Row]]:
    """Project away variable ``var``; returns None when a constant row is
    already infeasible.  Each row of the result is primitive."""
    zero, pos, neg = [], [], []
    for row in rows:
        c = row[0][var]
        if c == 0:
            zero.append(row)
        elif c > 0:
            pos.append(row)
        else:
            neg.append(row)
    out: dict[tuple[int, ...], Coeff] = {}

    def add(coeffs: tuple[int, ...], rhs: Coeff) -> bool:
        g = math.gcd(*coeffs)
        if g == 0:
            return rhs <= 0  # 0 >= positive is infeasible; else drop
        if g != 1:
            coeffs = tuple(c // g for c in coeffs)
            rhs = rhs // g if type(rhs) is int and rhs % g == 0 else Fraction(rhs, g)
        if type(rhs) is not int and rhs.denominator == 1:
            rhs = rhs.numerator
        prev = out.get(coeffs)
        if prev is None or rhs > prev:
            out[coeffs] = rhs
        return True

    for coeffs, rhs in zero:
        if not add(coeffs, rhs):
            return None
    for (pc, pr) in pos:
        for (nc, nr) in neg:
            a, b = pc[var], -nc[var]
            coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
            if not add(coeffs, b * pr + a * nr):
                return None
    return list(out.items())


def _int_row(row: Sequence) -> Row:
    """A row with integer coefficients as it is; a row with rational ones
    scaled by the lcm of their denominators."""
    coeffs, rhs = row
    if all(type(c) is int for c in coeffs):
        return tuple(coeffs), rhs
    coeffs = [Fraction(c) for c in coeffs]
    scale = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * scale) for c in coeffs), _coeff(rhs * scale)


def _fm_project_all(rows: list[Row], n_vars: int) -> Optional[list[list[Row]]]:
    """Eliminate variables n_vars-1 .. 0; returns the stack of systems
    (systems[j] has variables 0..j-1), or None when infeasible.  Rational
    input rows are first scaled to integer coefficients (``_int_row``)."""
    rows = [_int_row(row) for row in rows]
    systems = [None] * (n_vars + 1)
    systems[n_vars] = rows
    current = rows
    for j in range(n_vars - 1, -1, -1):
        current = _eliminate(current, j)
        if current is None:
            return None
        systems[j] = current
    if any(rhs > 0 for _, rhs in systems[0]):
        return None
    return systems  # type: ignore[return-value]


def fm_feasible(rows: list[Row], n_vars: int) -> bool:
    return _fm_project_all(rows, n_vars) is not None


def fm_sample(rows: list[Row], n_vars: int) -> Optional[tuple[Fraction, ...]]:
    """A rational solution of the system, preferring interior values."""
    systems = _fm_project_all(rows, n_vars)
    if systems is None:
        return None
    values: list[Fraction] = []
    for j in range(n_vars):
        lo: Optional[Fraction] = None
        hi: Optional[Fraction] = None
        for coeffs, rhs in systems[j + 1]:
            c = coeffs[j]
            if c == 0:
                continue
            rest = rhs - sum(a * v for a, v in zip(coeffs[:j], values))
            bound = Fraction(rest, c)
            if c > 0:
                if lo is None or bound > lo:
                    lo = bound
            else:
                if hi is None or bound < hi:
                    hi = bound
        if lo is None and hi is None:
            values.append(Fraction(0))
        elif lo is None:
            values.append(hi - 1)
        elif hi is None:
            values.append(lo + 1)
        else:
            values.append((lo + hi) / 2)
    return tuple(values)


def fm_sup(
    rows: list[Row], n_vars: int, objective: Sequence[Coeff]
) -> Optional[Fraction]:
    """Supremum of objective . x over the solution set, None when unbounded;
    requires a feasible system.

    The objective becomes variable 0, tied to x by two opposite rows, and
    ``_fm_project_all`` projects x away; the supremum is the least upper
    bound the projected system puts on variable 0."""
    obj = tuple(objective)
    ext_rows: list[Row] = [((0,) + tuple(c), rhs) for c, rhs in rows]
    ext_rows.append(((1,) + tuple(-c for c in obj), 0))
    ext_rows.append(((-1,) + obj, 0))
    systems = _fm_project_all(ext_rows, n_vars + 1)
    if systems is None:
        raise PreconditionError("fm_sup called on infeasible system")
    return min((Fraction(rhs, c[0]) for c, rhs in systems[1] if c[0] < 0), default=None)


def region_rows(r: PolyhedralRegion) -> list[Row]:
    """The region as integer rows in the exact form v . z >= n + 1."""
    return [(h.v, h.n + 1) for h in r.halfspaces]


# ---------------------------------------------------------------------------
# integer sampling
# ---------------------------------------------------------------------------

_LOCAL_SEARCH_RADII = (1, 2, 4, 8)


def region_sample(r: PolyhedralRegion) -> Optional[Point]:
    """An integer point of the region, or None when none is found.

    Rationally infeasible regions definitely have no integer points.  A
    rationally feasible region is searched around a rational sample, within
    a bounded radius; no integer point there is reported as None.
    """
    x = fm_sample(region_rows(r), r.arity)
    if x is None:
        return None
    center = tuple(int(math.floor(v)) for v in x)
    for radius in _LOCAL_SEARCH_RADII:
        best = None
        for offset in itertools.product(range(-radius, radius + 2), repeat=r.arity):
            z = tuple(c + o for c, o in zip(center, offset))
            if r.contains(z):
                dist = sum((Fraction(a) - b) ** 2 for a, b in zip(z, x))
                if best is None or dist < best[0]:
                    best = (dist, z)
        if best is not None:
            return best[1]
    return None


# ---------------------------------------------------------------------------
# erosion
# ---------------------------------------------------------------------------


def _slack(v: Point) -> int:
    """s = sum(max(0, -v_i)), the most v . o falls below 0 for o in [0, 1]^k:
    the one slack of ``erode``, ``is_measure_zero`` and ``find_box``."""
    return sum(max(0, -x) for x in v)


def erode(r: PolyhedralRegion, n: int) -> tuple[PolyhedralRegion, MeasureZeroSet]:
    """Shrink r so every remaining point carries a box of size n inside r.

    The eroded region is the intersection of r - b over corners b of the
    size-n box at the origin; for a constraint {v . z > m} that tightens m
    by n * s with s = sum(max(0, -v_i)).  The removed set r \\ r' is covered
    by the returned hyperplanes {v . z = c}, m < c <= m + n * s.

    In the system v . z - s * t >= m + 1 that ``is_measure_zero`` solves,
    the eroded constraint v . z - s * t >= m + n * s + 1 is the substitution
    t -> t + n; so t is unbounded above for r' exactly when it is for r, and
    a region that is not measure zero erodes into one that is not either.
    """
    if n < 0:
        raise PreconditionError("erosion size must be nonnegative")
    new_hs = []
    cover: list[Hyperplane] = []
    for h in r.halfspaces:
        shift = n * _slack(h.v)
        new_hs.append(HalfSpace.make(h.v, h.n + shift))
        for c in range(h.n + 1, h.n + shift + 1):
            cover.append(Hyperplane.make(h.v, c))
    return PolyhedralRegion.make(r.arity, new_hs), MeasureZeroSet.make(cover)


# ---------------------------------------------------------------------------
# measure-zero decision
# ---------------------------------------------------------------------------


def is_measure_zero(r: PolyhedralRegion) -> tuple[bool, Optional[MeasureZeroSet]]:
    """Decide whether the region can be covered by finitely many hyperplanes.

    A polyhedral region either contains arbitrarily large boxes or is a set
    of measure zero.  Eroding by a parameter t tightens each constraint by
    t * s_h with s_h >= 0; the region contains arbitrarily large boxes
    exactly when the joint system over (z, t) allows t to grow without
    bound, which ``fm_sup`` decides exactly.  When the region is measure
    zero a witness cover is produced from a constraint whose value is
    bounded above over the region.  Erosion shifts t (see ``erode``), so
    the answer for an eroded region is the answer for the region itself.
    """
    base = region_rows(r)
    if not fm_feasible(base, r.arity):
        return True, MeasureZeroSet.empty()
    rows: list[Row] = []
    for h in r.halfspaces:
        rows.append((h.v + (-_slack(h.v),), h.n + 1))
    sup_t = fm_sup(rows, r.arity + 1, (0,) * r.arity + (1,))
    if sup_t is None:
        return False, None
    # some constraint value is bounded above; cover its integer levels
    best: Optional[tuple[int, HalfSpace, int]] = None
    for h in r.halfspaces:
        hi = fm_sup(base, r.arity, h.v)
        if hi is None:
            continue
        count = math.floor(hi) - h.n
        if best is None or count < best[0]:
            best = (count, h, math.floor(hi))
    if best is None:
        raise IntegrityError("bounded erosion parameter but no bounded constraint")
    _, h, hi = best
    planes = [Hyperplane.make(h.v, c) for c in range(h.n + 1, hi + 1)]
    return True, MeasureZeroSet.make(planes)


def find_box(r: PolyhedralRegion, size: int) -> Optional[LatticeBox]:
    """A box of the requested size inside the region, found whenever the
    region is not measure zero; None when the rows below are infeasible.

    A half-space {v . z > n} becomes the row v . x >= n + 1 + (size + 1) s
    with s = sum(max(0, -v_i)), and the corner is c = ceil(x) = x + delta
    with delta in [0, 1)^k.  A box point p = c + o, o in [0, size]^k, has
    0 <= delta_i + o_i < size + 1, so v . p >= v . x - (size + 1) s >= n + 1:
    every point of the box lies in the region."""
    rows: list[Row] = []
    for h in r.halfspaces:
        rows.append((h.v, h.n + 1 + (size + 1) * _slack(h.v)))
    x = fm_sample(rows, r.arity)
    if x is None:
        return None
    return LatticeBox(tuple(math.ceil(v) for v in x), size)


# ---------------------------------------------------------------------------
# arrangements
# ---------------------------------------------------------------------------


def arrangement(planes: Iterable[Hyperplane], arity: int) -> list[PolyhedralRegion]:
    """The nonempty open cells cut out by the hyperplanes with lattice
    points.

    Each cell is the intersection of one strict side of every such
    hyperplane, stored as a region keeps it: one half-space per normal, so
    a cell beside parallel planes keeps only its tightest side.  Cells are
    pairwise disjoint, disjoint from every hyperplane, and together with
    the hyperplanes cover Z^k.  A cell feasible in integer-tightened
    rational rows is returned even with no integer point; it holds no box,
    so ``is_measure_zero`` covers it by hyperplanes.
    """
    unique = MeasureZeroSet.make(planes).hyperplanes
    for p in unique:
        if p.arity != arity:
            raise DimensionError("hyperplane arity mismatch")
    cells: list[PolyhedralRegion] = []

    def recurse(index: int, region: PolyhedralRegion) -> None:
        if not fm_feasible(region_rows(region), arity):
            return
        if index == len(unique):
            cells.append(region)
            return
        h = unique[index]
        recurse(index + 1, region.intersect(HalfSpace.make(h.v, h.n)))
        recurse(index + 1, region.intersect(HalfSpace.make(tuple(-x for x in h.v), -h.n)))

    recurse(0, PolyhedralRegion.whole(arity))
    return cells


# ---------------------------------------------------------------------------
# path connectivity
# ---------------------------------------------------------------------------


def s_path(
    z1: Sequence[int],
    z2: Sequence[int],
    ambient: PolyhedralRegion,
    steps: Iterable[Point],
    margin: Optional[int] = None,
) -> Optional[list[Point]]:
    """A path z1 -> z2 with increments drawn from ``steps`` staying inside
    the ambient region, found by breadth-first search over a bounded
    window; None when no path exists within the window."""
    z1 = tuple(z1)
    z2 = tuple(z2)
    step_list = sorted(set(tuple(s) for s in steps))
    if not ambient.contains(z1) or not ambient.contains(z2):
        raise PreconditionError("path endpoints must lie in the ambient region")
    if z1 == z2:
        return [z1]
    k = ambient.arity
    if margin is None:
        biggest = max((max(abs(x) for x in s) for s in step_list), default=1)
        margin = biggest * (k + 1)
    lo = tuple(min(a, b) - margin for a, b in zip(z1, z2))
    hi = tuple(max(a, b) + margin for a, b in zip(z1, z2))

    def in_window(z: Point) -> bool:
        return all(a <= x <= b for x, a, b in zip(z, lo, hi))

    frontier = [z1]
    parents: dict[Point, Optional[Point]] = {z1: None}
    while frontier:
        nxt: list[Point] = []
        for node in frontier:
            for s in step_list:
                neighbor = tuple(a + b for a, b in zip(node, s))
                if neighbor in parents or not in_window(neighbor):
                    continue
                if not ambient.contains(neighbor):
                    continue
                parents[neighbor] = node
                if neighbor == z2:
                    path = [neighbor]
                    while path[-1] != z1:
                        path.append(parents[path[-1]])
                    path.reverse()
                    return path
                nxt.append(neighbor)
        frontier = nxt
    return [z1] if z1 == z2 else None


def hull_points(b0: LatticeBox, b1: LatticeBox) -> Callable[[Sequence[int]], bool]:
    """Membership test for the integer points of the rational convex hull of
    two size-1 boxes.

    The hull is the Minkowski sum of the unit cube with the segment from
    b0.corner to b1.corner, so membership reduces to a one-parameter
    rational interval intersection.
    """
    if b0.size != 1 or b1.size != 1:
        raise PreconditionError("hull_points requires boxes of size 1")
    if b0.arity != b1.arity:
        raise DimensionError("box arity mismatch")
    c0 = b0.corner
    w = tuple(b - a for a, b in zip(b0.corner, b1.corner))

    def member(z: Sequence[int]) -> bool:
        if len(z) != len(c0):
            raise DimensionError("point arity mismatch")
        lo, hi = Fraction(0), Fraction(1)
        for zi, ci, wi in zip(z, c0, w):
            a = Fraction(zi - ci - 1)
            b = Fraction(zi - ci)
            if wi == 0:
                if not a <= 0 <= b:
                    return False
            elif wi > 0:
                lo = max(lo, a / wi)
                hi = min(hi, b / wi)
            else:
                lo = max(lo, b / wi)
                hi = min(hi, a / wi)
        return lo <= hi

    return member


# ---------------------------------------------------------------------------
# characteristic-function certificates
# ---------------------------------------------------------------------------


def _crossed_levels(h: HalfSpace, i: int) -> range:
    """The values of v . z from which a unit step along e_i crosses the
    boundary of {v . z > n}: n - v_i < v . z <= n for v_i > 0, and
    n < v . z <= n - v_i for v_i < 0; none for v_i = 0."""
    vi = h.v[i]
    return range(h.n + 1 - max(vi, 0), h.n + 1 + max(-vi, 0))


def characteristic_certificates(r: PolyhedralRegion) -> list[MultiPoly]:
    """For each unit direction e_i, a nonzero product p_i of integer-rooted
    linear simple polynomials with

        p_i(z) * chi(z) == p_i(z) * chi(z + e_i)   for all z,

    where chi is the characteristic function of the region.  A unit step
    across the constraint {v . z > n} can only change membership when
    v . z lands on one of the at most |v_i| crossed levels, and each such
    level contributes the vanishing factor (v . z - level)."""
    out = []
    for i in range(r.arity):
        levels = [(MultiPoly.linear(h.v, -m), 1) for h in r.halfspaces for m in _crossed_levels(h, i)]
        out.append(expand(MultiPoly.constant(r.arity, 1), levels)[0])
    return out


def certificate_cover(r: PolyhedralRegion) -> MeasureZeroSet:
    """The hyperplanes where some characteristic certificate vanishes."""
    return MeasureZeroSet.make(
        Hyperplane.make(h.v, m)
        for h in r.halfspaces
        for i in range(r.arity)
        for m in _crossed_levels(h, i)
    )
