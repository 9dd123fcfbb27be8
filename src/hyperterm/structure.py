"""Piecewise closed forms over polyhedral regions, factorial rewrites, and
Pochhammer normal forms.

``build_structure`` partitions Z^k (up to a finite union of hyperplanes)
into polyhedral pieces on which the term is given exactly by

    f(z) = f(z0) * gamma^(z-z0) * C(z)/C(z0) * D(z0)/D(z)
           * prod over v of gp(v.z0, v.z) of a_v(j)/b_v(j)

with a base point z0 in the piece where C and D are both nonzero and the
base value f(z0) obtained by recurrence propagation from the user seed.
All base values come from one flood out of the seed over the seed and
every base point (``oracle.propagate_targets``); a piece has an unknown
base value exactly when that flood does not reach z0.  A base point behind
a directional wall is not asked for: the piece keeps the wall as the proof
that no flood reaches it.  The flood runs breadth first, stops as soon as
it finds the last base point not walled off, and runs its whole box only
when one of those is not reached.
The hyperplanes are chosen so that every chain factor touched by a
generalized product inside a piece is nonzero; a zero there indicates a
construction bug and raises IntegrityError.

A piece is an arrangement cell eroded by d = deg C + deg D.  Whether a
cell is measure zero is decided once, on the cell: erosion substitutes
t -> t + d in that decision's system (``geometry.erode``), so a cell that
holds arbitrarily large boxes erodes into a piece that does too.  The cell
is convex and each point of the piece carries a size-d box inside it, so for
d >= 1 the hull lemma (``geometry.hull_points``) joins any two points of
the piece by unit steps inside the cell; nothing re-checks this.  At d = 0
a thin cell may hold lattice points that no unit step inside it reaches;
that case is not proven, and ``grid_compare`` checks it against the oracle.

``closed_form_eval`` evaluates this formula in integers, with one Fraction
per point.  Each piece keeps, per chain, a prefix table of gp(v.z0, t) over
the range of t evaluated so far, extended on demand; the tables live on the
structure, so evaluating a window costs a table read per chain and point
rather than a product rebuilt from the base point.  The piece holding a
point is found by a slab index, also kept on the structure: the distinct
half-space normals up to sign, each with its sorted thresholds, give every
point a key (per normal u, the number of thresholds <= u.z) that fixes the
truth value of every half-space, and a memo maps each key met to its piece.
So a point costs one dot product and one bisection per normal, and only
the first point of each slab cell scans the pieces.

``split_factorial`` intersects each piece with the sign conditions of
v.(z - z0) and rewrites the generalized products as plain products
prod_{j=1}^{w.z + n} with nonnegative upper limits (the value 0 denotes
the empty product).  ``to_pochhammer`` further rewrites each chain whose
polynomials split over the rationals into rising factorials.
"""

from __future__ import annotations

import functools
import itertools
import logging
import operator
import threading
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .errors import (
    DimensionError,
    IntegrityError,
    PreconditionError,
    SplittingError,
)
from .geometry import (
    HalfSpace,
    Hyperplane,
    MeasureZeroSet,
    PolyhedralRegion,
    arrangement,
    erode,
    find_box,
    fm_feasible,
    is_measure_zero,
    region_rows,
)
from .oracle import _wall_against, _walls, propagate_targets
from .oresato import Chain, OreSatoForm, decompose
from .poly import (
    Coeff,
    MultiPoly,
    Point,
    UniPoly,
    _coeff,
    find_nonzero_in_box,
    integer_roots,
    rational_roots,
)
from .termratio import TermSpec

log = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# piecewise structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Piece:
    """A region with its base point and base value.  An unknown base value
    (None) comes with the wall no flood out of the seed crosses
    (``oracle._walls``) when one is known; without a wall it means only that
    the build's flood did not reach the base point within its box."""

    region: PolyhedralRegion
    base_point: Point
    base_value: Optional[Fraction]
    wall: Optional[HalfSpace] = None


@dataclass(frozen=True)
class PiecewiseStructure:
    form: OreSatoForm
    pieces: tuple[Piece, ...]
    excluded: MeasureZeroSet  # hyperplane cover of the complement of the pieces

    @functools.cached_property
    def _tables(self) -> tuple["_PieceTable", ...]:
        """Per-piece evaluation tables for ``closed_form_eval``, built on
        first use and kept on the structure; their chain tables grow with
        the points evaluated."""
        return tuple(_PieceTable(self.form, p) for p in self.pieces)

    @functools.cached_property
    def _locator(self) -> "_PieceLocator":
        """The slab index ``closed_form_eval`` finds a point's piece with,
        built on first use and kept on the structure; its memo grows with
        the slab cells met."""
        return _PieceLocator(self._tables)


@dataclass(frozen=True)
class EvalOutcome:
    status: str  # ok | no-piece | d-zero | value-unknown
    value: Optional[Fraction] = None


def _chain_zero_hyperplanes(form: OreSatoForm, d: int) -> list[Hyperplane]:
    """Hyperplanes where some chain factor a_v(v.z + j) or b_v(v.z + j)
    with -reach <= j < reach vanishes at an integer point: exactly the
    hyperplanes v.z = r - j for integer roots r of a_v or b_v.

    reach = 2 d |v|_1 + |v|_inf is the largest |v.w| over w = x - y - s
    with x, y in [-d, d]^k and s a unit step, so off these planes no chain
    factor vanishes between a point and any point within two d-boxes and
    a unit step of it."""
    planes: list[Hyperplane] = []
    for chain in form.chains:
        v = chain.direction
        reach = 2 * d * sum(abs(x) for x in v) + max(abs(x) for x in v)
        roots = set(integer_roots(chain.num)) | set(integer_roots(chain.den))
        for r in roots:
            for j in range(-reach, reach):
                planes.append(Hyperplane.make(v, r - j))
    return planes


def build_structure(spec: TermSpec) -> PiecewiseStructure:
    """Construct the piecewise closed form of a term given by a compatible
    spec with a seed value.

    Each piece is a convex arrangement cell eroded by d = deg C + deg D.
    ``is_measure_zero`` runs once per cell, before erosion: erosion is the
    substitution t -> t + d in its system, so it cannot change the answer
    and the eroded cell is not tested again.  For d >= 1 the hull lemma
    (``geometry.hull_points``) joins any two points of a piece by unit
    steps inside the cell and no connectivity check is made.  At d = 0 a thin cell may hold lattice points that no unit
    step inside it reaches; that case is not proven here, and
    ``grid_compare`` checks it against the oracle.

    Base values come from a single flood out of the seed over the
    bounding box of the seed and all base points, inflated by 2 (k+1).
    That box contains the box ``propagate(spec, spec.seed, z0)`` searches
    for each piece, so a piece that call reaches gets the same value here,
    and a piece can only go from unknown to known.  Pieces the flood does
    not reach by nonzero-quotient propagation are kept with an unknown
    base value rather than a guessed one.  A base point outside a
    directional wall (``oracle._walls``) is never asked for, since no
    flood crosses the wall; the piece keeps the wall.  A piece with an
    unknown value and no wall was not reached within the flood's box.
    """
    k = spec.arity
    if spec.zero_divisor_witness is not None:
        return _zero_divisor_structure(spec)
    if spec.seed is None:
        raise PreconditionError("building a structure requires a seed value")
    form = decompose(spec)
    d = form.c_poly.total_degree() + form.d_poly.total_degree()
    cd = form.c_poly * form.d_poly
    h2 = MeasureZeroSet.make(_chain_zero_hyperplanes(form, d)).union(spec.exceptions)
    log.info("structure: %d hyperplanes in the arrangement", len(h2))
    cells = arrangement(h2.hyperplanes, k)
    excluded = list(h2.hyperplanes)

    found: list[tuple[PolyhedralRegion, Point]] = []
    for cell in cells:
        mz, cover = is_measure_zero(cell)
        if mz:
            excluded.extend(cover.hyperplanes)
            continue
        shrunk, lost = erode(cell, d)
        excluded.extend(lost.hyperplanes)
        inner = find_box(shrunk, d)
        if inner is None:
            raise IntegrityError(f"no base box in a cell that is not measure zero: {cell}")
        z0 = find_nonzero_in_box(cd, inner.corner, d)
        assert z0 is not None
        found.append((shrunk, z0))

    base_values = propagate_targets(spec, [z0 for _, z0 in found])
    walls = _walls(spec)
    pieces: list[Piece] = []
    for (shrunk, z0), base_value in zip(found, base_values):
        wall = None
        if base_value is None:
            wall = _wall_against(walls, z0)
            if wall is None:
                log.info("piece at %s is not reached within the flood's box", z0)
            else:
                log.info(
                    "piece at %s is unreachable from the seed: behind the wall %s >= %d",
                    z0,
                    MultiPoly.linear(wall.v),
                    wall.n + 1,
                )
        pieces.append(Piece(shrunk, z0, base_value, wall))

    pieces.sort(key=lambda p: (p.region.halfspaces, p.base_point))
    return PiecewiseStructure(form, tuple(pieces), MeasureZeroSet.make(excluded))


def _zero_divisor_structure(spec: TermSpec) -> PiecewiseStructure:
    """A term annihilated by p vanishes wherever p does not; the closed form
    C = 1, D = p, no chains, one piece covering everything, is exact off
    the zero set of p."""
    witness = spec.zero_divisor_witness
    k = spec.arity
    d_poly = witness.normalized()[1]
    form = OreSatoForm(
        k,
        MultiPoly.constant(k, 1),
        d_poly,
        (1,) * k,
        (),
    )
    z0 = find_nonzero_in_box(d_poly, (0,) * k, d_poly.total_degree())
    piece = Piece(PolyhedralRegion.whole(k), z0, Fraction(0))
    return PiecewiseStructure(form, (piece,), MeasureZeroSet.empty())


class _ChainTable:
    """gp(a, t) of one chain from a = v.z0 of one piece, kept as integer
    (numerator, denominator) prefix products over the range touched so far
    and extended on demand up or down.

    The factor at j is a(j)/b(j) = (d_b * A(j)) / (d_a * B(j)) with A, B
    the cleared chain polynomials and d_a, d_b their denominators.  Each
    factor is checked for zero when it is added, so an entry exists only
    for a range free of zero factors."""

    def __init__(self, chain: Chain, a: int):
        self.chain = chain
        self.a = a
        self.up = [(1, 1)]  # up[i]: product over j in [a, a + i)
        self.down = [(1, 1)]  # down[i]: product over j in [a - i, a)
        self._lock = threading.Lock()

    def _factors(self, lo: int, hi: int) -> list[tuple[int, int]]:
        """Factor pairs for j in [lo, hi); the lowest zero factor raises
        IntegrityError, so the j named is the first gp_eval would meet."""
        num, den = self.chain.num, self.chain.den
        d_a, d_b = num.cleared[0], den.cleared[0]
        out = []
        for j in range(lo, hi):
            n, d = num.evaluate_cleared(j), den.evaluate_cleared(j)
            if n == 0 or d == 0:
                raise IntegrityError(f"chain factor vanishes inside a piece at j = {j}")
            out.append((d_b * n, d_a * d))
        return out

    def ratio(self, t: int) -> tuple[int, int]:
        """gp(a, t) as (numerator, denominator), denominator nonzero."""
        up = t >= self.a
        table, n = (self.up, t - self.a) if up else (self.down, self.a - t)
        if n >= len(table):
            # entries are only ever appended, so reads need no lock; a
            # thread that waited here finds the range already covered
            with self._lock:
                have = len(table)
                if up:
                    factors = self._factors(self.a + have - 1, t)
                else:
                    factors = reversed(self._factors(t, self.a - have + 1))
                num, den = table[-1]
                for fn, fd in factors:
                    num, den = num * fn, den * fd
                    table.append((num, den))
        num, den = table[n]
        return (num, den) if up else (den, num)


class _PieceTable:
    """Per-piece constants of the closed form in integers and the piece's
    chain tables: value(z) = base * D(z0)/C(z0) * gamma^(z - z0) * C(z)/D(z)
    * prod of chain ratios, where C and D are taken cleared of
    denominators (their ratios are unchanged)."""

    def __init__(self, form: OreSatoForm, piece: Piece):
        z0 = piece.base_point
        self.piece = piece
        self.gamma = tuple((g.numerator, g.denominator) for g in form.gamma)
        self.chains = tuple(
            _ChainTable(c, sum(x * y for x, y in zip(c.direction, z0))) for c in form.chains
        )
        base = piece.base_value
        self.scale = None if base is None else (
            base.numerator * form.d_poly.evaluate_cleared(z0),
            base.denominator * form.c_poly.evaluate_cleared(z0),
        )


class _PieceLocator:
    """Exact point location over the pieces' half-spaces.

    Every half-space v.z > n of every piece is read along the normal
    u = +-v whose first nonzero entry is positive: as u.z >= n + 1 when
    u = v, as u.z < -n when u = -v.  Per distinct u the thresholds
    (n + 1, respectively -n) are kept sorted, and the key of a point is
    the number of thresholds <= u.z for each u.  The key fixes the truth
    value of every half-space, hence the piece, so a memo from key to
    piece table (None: no piece) answers every point of a slab cell once
    one point of it has been located by the ordered scan; the answer is
    the first piece in ``tables`` order that contains z, as the scan
    gives.  The memo holds at most one entry per slab cell met; a racing
    duplicate insert stores the same value, so no lock is needed."""

    _MISS = object()

    def __init__(self, tables: Sequence["_PieceTable"]):
        self.tables = tables
        thresholds: dict[Point, set[int]] = {}
        for table in tables:
            for h in table.piece.region.halfspaces:
                if next(x for x in h.v if x) > 0:
                    thresholds.setdefault(h.v, set()).add(h.n + 1)
                else:
                    thresholds.setdefault(tuple(-x for x in h.v), set()).add(-h.n)
        self.slabs = tuple((u, sorted(ts)) for u, ts in sorted(thresholds.items()))
        self.memo: dict[tuple[int, ...], Optional[_PieceTable]] = {}

    def locate(self, z: Point) -> Optional["_PieceTable"]:
        key = tuple(bisect_right(ts, sum(map(operator.mul, u, z))) for u, ts in self.slabs)
        table = self.memo.get(key, self._MISS)
        if table is self._MISS:
            table = next((t for t in self.tables if t.piece.region.contains(z)), None)
            self.memo[key] = table
        return table


def closed_form_eval(ps: PiecewiseStructure, z: Sequence[int]) -> EvalOutcome:
    """Value of the closed form at a lattice point, or the reason it is
    undefined there.

    The piece is the first of ``ps.pieces`` that contains z, found through
    the structure's slab index: z's key (per distinct half-space normal u,
    the number of the normal's thresholds <= u.z) is looked up in a memo
    kept on ``ps``, and only a key not met before scans the pieces in order
    and records the answer.  A point of another arity than the structure
    raises DimensionError.

    Arithmetic is in integers with one Fraction per point: C and D are
    evaluated cleared of denominators, and each chain product
    gp(v.z0, v.z) is read from the piece's prefix table, kept on ``ps``
    and extended to v.z if it does not reach it yet, so each chain factor
    is evaluated once per structure.  A zero chain factor inside the
    touched product range violates the construction guarantees and raises
    IntegrityError naming j, at the same points as a fresh product would."""
    z = tuple(int(x) for x in z)
    form = ps.form
    if len(z) != form.arity:
        raise DimensionError("point arity mismatch")
    table = ps._locator.locate(z)
    if table is None:
        return EvalOutcome("no-piece")
    d_z = form.d_poly.evaluate_cleared(z)
    if d_z == 0:
        return EvalOutcome("d-zero")
    if table.scale is None:
        return EvalOutcome("value-unknown")
    num, den = table.scale
    num *= form.c_poly.evaluate_cleared(z)
    den *= d_z
    for (gn, gd), zi, z0i in zip(table.gamma, z, table.piece.base_point):
        e = zi - z0i
        if e >= 0:
            num, den = num * gn**e, den * gd**e
        else:
            num, den = num * gd**-e, den * gn**-e
    for chain in table.chains:
        cn, cd = chain.ratio(sum(x * y for x, y in zip(chain.chain.direction, z)))
        num, den = num * cn, den * cd
    return EvalOutcome("ok", Fraction(num, den))


# ---------------------------------------------------------------------------
# factorial forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FactorialChain:
    direction: Point
    num: UniPoly
    den: UniPoly
    offset: int  # n with products running over 1 <= j <= direction.z + n


@dataclass(frozen=True)
class FactorialForm:
    region: PolyhedralRegion
    gamma: tuple[Coeff, ...]
    scalar: Coeff
    c_poly: MultiPoly
    d_poly: MultiPoly
    chains: tuple[FactorialChain, ...]


def split_factorial(ps: PiecewiseStructure) -> list[FactorialForm]:
    """Rewrite each piece as plain products with nonnegative upper limits.

    A piece is cut along the sign of v.(z - z0) for each chain direction v
    (at most 2^|V| nonempty subregions).  On the nonnegative side of v the
    product over [v.z0, v.z) becomes prod_{j=1}^{v.z - v.z0} of the
    arguments shifted by v.z0 - 1; on the negative side it becomes the
    reciprocal chain reflected through v.z0, running to v.z0 - v.z.  The
    upper limits are >= 0 on their subregions by construction, with 0
    denoting the empty product.
    """
    out: list[FactorialForm] = []
    form = ps.form
    k = form.arity
    for piece in ps.pieces:
        if piece.base_value is None:
            log.info("skipping factorial form for value-unknown piece at %s", piece.base_point)
            continue
        z0 = piece.base_point
        scalar = piece.base_value
        scalar *= form.d_poly.evaluate(z0) / form.c_poly.evaluate(z0)
        for g, z0i in zip(form.gamma, z0):
            scalar *= Fraction(g) ** (-z0i)
        # the level v.z0 of each chain
        levels = [sum(a * b for a, b in zip(c.direction, z0)) for c in form.chains]
        for signs in itertools.product((1, -1), repeat=len(levels)):
            halves = []
            for chain, level, sign in zip(form.chains, levels, signs):
                v = chain.direction
                if sign > 0:
                    halves.append(HalfSpace.make(v, level - 1))  # v.z >= v.z0
                else:
                    halves.append(
                        HalfSpace.make(tuple(-x for x in v), -level)
                    )  # v.z < v.z0
            region = piece.region.intersect(*halves)
            if not fm_feasible(region_rows(region), k):
                continue
            chains = []
            for chain, level, sign in zip(form.chains, levels, signs):
                if sign > 0:
                    chains.append(
                        FactorialChain(
                            chain.direction,
                            chain.num.shift_arg(level - 1),
                            chain.den.shift_arg(level - 1),
                            -level,
                        )
                    )
                else:
                    chains.append(
                        FactorialChain(
                            tuple(-x for x in chain.direction),
                            chain.den.reflect(level),
                            chain.num.reflect(level),
                            level,
                        )
                    )
            out.append(
                FactorialForm(
                    region,
                    form.gamma,
                    _coeff(scalar),
                    form.c_poly,
                    form.d_poly,
                    tuple(chains),
                )
            )
    return out


def _prefactor(form: FactorialForm | PochhammerForm, z: Point) -> Optional[Fraction]:
    """scalar * gamma^z * C(z)/D(z) of a factorial or Pochhammer form at a
    point of its region; None when D vanishes there.  Points outside the
    region are a caller error."""
    if not form.region.contains(z):
        raise PreconditionError(f"{z} is outside the form's region")
    d = form.d_poly.evaluate(z)
    if d == 0:
        return None
    value = form.scalar
    for g, zi in zip(form.gamma, z):
        value *= Fraction(g) ** zi
    return value * form.c_poly.evaluate(z) / d


def factorial_eval(ff: FactorialForm, z: Sequence[int]) -> Optional[Fraction]:
    """Value of a factorial form at a point of its region; None when the
    denominator polynomial vanishes.  Points outside the region are a caller
    error (PreconditionError).  Inside it, negative upper limits and zero
    chain factors violate the form's guarantees and raise IntegrityError."""
    z = tuple(int(x) for x in z)
    value = _prefactor(ff, z)
    if value is None:
        return None
    for chain in ff.chains:
        upper = sum(a * b for a, b in zip(chain.direction, z)) + chain.offset
        if upper < 0:
            raise IntegrityError(f"negative product limit {upper} in a factorial form")
        for j in range(1, upper + 1):
            num = chain.num.evaluate(j)
            den = chain.den.evaluate(j)
            if num == 0 or den == 0:
                raise IntegrityError(f"zero chain factor at j = {j} in a factorial form")
            value *= num / den
    return value


# ---------------------------------------------------------------------------
# Pochhammer forms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PochhammerEntry:
    base: Coeff  # m of the rising factorial (m)_r
    direction: Point
    offset: int  # r = direction.z + offset


@dataclass(frozen=True)
class PochhammerForm:
    region: PolyhedralRegion
    gamma: tuple[Coeff, ...]
    scalar: Coeff
    c_poly: MultiPoly
    d_poly: MultiPoly
    numerator: tuple[PochhammerEntry, ...]
    denominator: tuple[PochhammerEntry, ...]


def rising_factorial(m: Fraction, length: int) -> Fraction:
    """(m)_r = m (m+1) ... (m+r-1), with (m)_0 = 1."""
    if length < 0:
        raise IntegrityError("rising factorial length must be nonnegative")
    value = Fraction(1)
    for i in range(length):
        value *= m + i
    return value


def to_pochhammer(ff: FactorialForm) -> PochhammerForm:
    """Rewrite a factorial form as rising factorials.

    Each linear factor (j - rho) of a chain polynomial contributes the
    symbol (1 - rho) rising (w.z + n) times; the leading coefficient alpha
    contributes alpha^w to the per-axis scalars and alpha^n to the global
    one.  A chain polynomial with an irreducible nonlinear factor over the
    rationals does not rewrite and raises SplittingError.  Scalars and
    symbols follow the coefficient rule of ``poly``: an int when integral,
    else a Fraction.
    """
    gamma = list(ff.gamma)
    scalar = ff.scalar
    numerator: list[PochhammerEntry] = []
    denominator: list[PochhammerEntry] = []
    for chain in ff.chains:
        for poly, target, inverted in (
            (chain.num, numerator, False),
            (chain.den, denominator, True),
        ):
            if poly.is_constant:
                alpha = poly.coeffs[0] if poly.coeffs else 0
            else:
                roots, cofactor = rational_roots(poly)
                if cofactor.degree() >= 1:
                    raise SplittingError(
                        f"chain factor {cofactor} does not split over the rationals",
                        factor=cofactor,
                    )
                alpha = cofactor.coeffs[0]
                for rho in roots:
                    target.append(PochhammerEntry(1 - rho, chain.direction, chain.offset))
            if alpha == 0:
                raise IntegrityError("zero chain polynomial in a factorial form")
            # a Fraction, so that a negative power of an int alpha stays exact
            alpha = Fraction(alpha)
            exponent = -1 if inverted else 1
            for i, w in enumerate(chain.direction):
                gamma[i] *= alpha ** (exponent * w)
            scalar *= alpha ** (exponent * chain.offset)
    return PochhammerForm(
        ff.region,
        tuple(_coeff(g) for g in gamma),
        _coeff(scalar),
        ff.c_poly,
        ff.d_poly,
        tuple(numerator),
        tuple(denominator),
    )


def pochhammer_eval(pf: PochhammerForm, z: Sequence[int]) -> Optional[Fraction]:
    """Evaluate gamma^z * scalar * C(z)/D(z) times the rising-factorial
    quotient; None when D vanishes at z.  Points outside the region are a
    caller error."""
    z = tuple(int(x) for x in z)
    value = _prefactor(pf, z)
    if value is None:
        return None
    for entry in pf.numerator:
        length = sum(a * b for a, b in zip(entry.direction, z)) + entry.offset
        value *= rising_factorial(entry.base, length)
    for entry in pf.denominator:
        length = sum(a * b for a, b in zip(entry.direction, z)) + entry.offset
        value /= rising_factorial(entry.base, length)
    return value
