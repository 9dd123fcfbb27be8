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
a directional wall is not asked for, and ``propagate_targets`` returns
that wall with the values: the piece keeps it as the proof that no flood
reaches it.  The flood is aimed at the bounding box of the base points not
walled off, stops as soon as it finds the last of them, and runs its whole
box only when one of those is not reached.
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

The structure evaluates itself: ``closed_form_eval`` and
``oracle.grid_compare`` evaluate this formula in integers through one
kernel, ``PiecewiseStructure.window_values``, which walks a window a row
at a time along the last axis.  A piece is convex, so a row meets it in one
integer interval, found from each half-space by one floor division; the
piece of a point is the first of the pieces whose interval holds it, as an
ordered scan gives, and a single point is the one-point window.  Each piece
keeps, per chain, a prefix table of gp(v.z0, t) over the range of t
evaluated so far, extended on demand; the tables live on the structure, so
evaluating a window costs a table read per chain and point, at the affine
index v.z, rather than a product rebuilt from the base point.

``split_factorial`` intersects each piece with the sign conditions of
v.(z - z0) and rewrites the generalized products as plain products
prod_{j=1}^{w.z + n} with nonnegative upper limits (the value 0 denotes
the empty product), each chain's two sides rewritten once per piece and
shared by its sign cells.  ``to_pochhammer`` further rewrites each chain
whose polynomials split over the rationals into rising factorials,
factoring each chain once.
"""

from __future__ import annotations

import functools
import itertools
import operator
import threading
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from ._frozen import Frozen, set_field
from .errors import (
    DimensionError,
    IntegrityError,
    MissingSeedError,
    PreconditionError,
    SplittingError,
    WitnessError,
)
from .geometry import (
    HalfSpace,
    Hyperplane,
    LatticeBox,
    MeasureZeroSet,
    PolyhedralRegion,
    arrangement,
    erode,
    find_box,
    fm_feasible,
    is_measure_zero,
    region_rows,
)
from .oracle import _Flood, propagate_targets
from .oresato import Chain, OreSatoForm, decompose
from .poly import (
    Coeff,
    MultiPoly,
    Point,
    UniPoly,
    _coeff,
    _integer_point,
    find_nonzero_in_box,
    format_fraction,
    integer_roots,
    rational_roots,
)
from .termratio import TermSpec


# ---------------------------------------------------------------------------
# piecewise structure
# ---------------------------------------------------------------------------


class Piece(Frozen):
    """A region with its base point and base value.  An unknown base value
    (None) comes with the wall no flood out of the seed crosses
    (``oracle._walls``) when one is known; without a wall it means only that
    the build's flood did not reach the base point within its box."""

    region: PolyhedralRegion
    base_point: Point
    base_value: Optional[Fraction]
    wall: Optional[HalfSpace] = None

    def __init__(self, region, base_point, base_value, wall=None):
        set_field(self, "region", region)
        set_field(self, "base_point", base_point)
        set_field(self, "base_value", base_value)
        set_field(self, "wall", wall)


class PiecewiseStructure(Frozen):
    """A decomposition's pieces and the cover of the points outside them."""

    form: OreSatoForm
    pieces: tuple[Piece, ...]
    excluded: MeasureZeroSet  # hyperplane cover of the complement of the pieces

    def __init__(self, form, pieces, excluded):
        set_field(self, "form", form)
        set_field(self, "pieces", pieces)
        set_field(self, "excluded", excluded)

    @functools.cached_property
    def _tables(self) -> tuple["_PieceTable", ...]:
        """Per-piece evaluation tables for ``window_values``, built on
        first use and kept on the structure; their chain tables grow with
        the points evaluated."""
        return tuple(_PieceTable(self.form, p) for p in self.pieces)

    def window_values(
        self, window: LatticeBox
    ) -> Iterator[tuple[Point, str, Optional[int], Optional[int]]]:
        """(z, status, num, den) for every point of the window, in
        ``LatticeBox.points`` order: status as in ``EvalOutcome``, and with
        status ok the closed form's value num/den in unreduced integers,
        den nonzero; num and den are None otherwise.

        The window is walked a row at a time along the last axis, each row
        cut into runs of one piece by ``_row_runs``.  Inside a run the value
        is scale * gamma^(z - z0) * C(z)/D(z) * the chain ratios, with C and
        D cleared of denominators: the powers of gamma along the other axes
        are taken once per run, and each chain ratio gp(v.z0, v.z) is read
        from the piece's prefix table at the affine index
        v[:-1].rest + v[-1] t.  The points are evaluated lazily in window
        order, so a zero chain factor raises IntegrityError at the same
        point, and naming the same j, as evaluating the points one by one in
        that order.

        Zero is absorbing: in a piece of base value 0 (scale 0) a point off
        D = 0 yields num/den = 0/1 without evaluating C, the powers of gamma
        or any product.  Its chain ratios are still read, in the same order,
        so a zero chain factor there raises the same IntegrityError too.

        The pieces and ``excluded`` cover Z^k, so a point in no piece lies
        on an excluded hyperplane.  The planes are met once per row with a
        run of no piece (``MeasureZeroSet.row_lines``), and a point of such
        a run that none holds raises IntegrityError naming it."""
        form = self.form
        c_eval, d_eval = _cleared_evaluator(form.c_poly), _cleared_evaluator(form.d_poly)
        tables = self._tables
        lo = window.corner[-1]
        hi = lo + window.size
        axes = [range(c, c + window.size + 1) for c in window.corner[:-1]]
        for rest in itertools.product(*axes):
            lines = False  # the excluded planes on the row, met at its first run of no piece
            for start, stop, table in _row_runs(tables, rest, lo, hi):
                if table is None:
                    if lines is False:
                        lines = self.excluded.row_lines(rest)
                    # a run of no piece holds no value, so checking it whole
                    # before its points are yielded names the same first fault
                    if lines is not None:
                        for t in range(start, stop):
                            for d, c, levels in lines:
                                if d + c * t in levels:
                                    break
                            else:
                                raise IntegrityError(
                                    f"the point {rest + (t,)} lies in no piece and on no excluded hyperplane"
                                )
                    for t in range(start, stop):
                        yield rest + (t,), "no-piece", None, None
                    continue
                if table.scale is None:
                    for t in range(start, stop):
                        z = rest + (t,)
                        yield z, "value-unknown" if d_eval(z) else "d-zero", None, None
                    continue
                # per chain: its table and v.z = offset + c t along the row
                chains = [
                    (ch.ratio, sum(map(operator.mul, ch.chain.direction, rest)), ch.chain.direction[-1])
                    for ch in table.chains
                ]
                num0, den0 = table.scale
                if not num0:
                    # zero is absorbing: no product is taken, but every chain
                    # ratio is still read, so a zero factor raises as below
                    for t in range(start, stop):
                        z = rest + (t,)
                        if d_eval(z) == 0:
                            yield z, "d-zero", None, None
                            continue
                        for ratio, offset, c in chains:
                            ratio(offset + c * t)
                        yield z, "ok", 0, 1
                    continue
                z0 = table.piece.base_point
                for (gn, gd), zi, z0i in zip(table.gamma, rest, z0):
                    e = zi - z0i
                    if e >= 0:
                        num0, den0 = num0 * gn**e, den0 * gd**e
                    else:
                        num0, den0 = num0 * gd**-e, den0 * gn**-e
                gn, gd = table.gamma[-1]
                for t in range(start, stop):
                    z = rest + (t,)
                    d_z = d_eval(z)
                    if d_z == 0:
                        yield z, "d-zero", None, None
                        continue
                    num, den = num0 * c_eval(z), den0 * d_z
                    e = t - z0[-1]
                    if e >= 0:
                        num, den = num * gn**e, den * gd**e
                    else:
                        num, den = num * gd**-e, den * gn**-e
                    for ratio, offset, c in chains:
                        cn, cd = ratio(offset + c * t)
                        num, den = num * cn, den * cd
                    yield z, "ok", num, den


class EvalOutcome(Frozen):
    """The closed form at one point: its value, or why it has none."""

    status: str  # ok | no-piece | d-zero | value-unknown
    value: Optional[Fraction] = None

    def __init__(self, status, value=None):
        set_field(self, "status", status)
        set_field(self, "value", value)


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


def arrangement_planes(form: OreSatoForm, exceptions: MeasureZeroSet) -> MeasureZeroSet:
    """The hyperplanes ``build_structure`` cuts Z^k along for a spec with a
    seed: the spec's exceptions and ``_chain_zero_hyperplanes`` at
    d = deg C + deg D."""
    d = form.c_poly.total_degree() + form.d_poly.total_degree()
    return MeasureZeroSet.make(_chain_zero_hyperplanes(form, d)).union(exceptions)


def build_structure(spec: TermSpec) -> PiecewiseStructure:
    """Construct the piecewise closed form of a term given by a compatible
    spec with a seed value.  A spec without one raises MissingSeedError,
    unless it has a zero-divisor witness, whose structure needs no seed.

    Each piece is a convex arrangement cell eroded by d = deg C + deg D.
    ``is_measure_zero`` runs once per cell, before erosion: erosion is the
    substitution t -> t + d in its system, so it cannot change the answer
    and the eroded cell is not tested again.  For d >= 1 the hull lemma
    (``geometry.hull_points``) joins any two points of a piece by unit
    steps inside the cell and no connectivity check is made.  At d = 0 a
    thin cell may hold lattice points that no unit step inside it reaches;
    that case is not proven here, and ``grid_compare`` checks it against
    the oracle.

    Base values come from a single flood out of the seed over the
    bounding box of the seed and all base points, inflated by 2 (k+1).
    That box contains the box ``propagate(spec, spec.seed, z0)`` searches
    for each piece, so a piece that call reaches gets the same value here,
    and a piece can only go from unknown to known.  Pieces the flood does
    not reach by nonzero-quotient propagation are kept with an unknown
    base value rather than a guessed one.  ``propagate_targets`` returns
    the walls with the values: a base point outside a directional wall is
    never asked for, since no flood crosses the wall, and its piece keeps
    the wall.  A piece with an unknown value and no wall was not reached
    within the flood's box.
    """
    k = spec.arity
    if spec.zero_divisor_witness is not None:
        return _zero_divisor_structure(spec)
    if spec.seed is None:
        raise MissingSeedError("building a structure requires a seed value")
    form = decompose(spec)
    d = form.c_poly.total_degree() + form.d_poly.total_degree()
    cd = form.c_poly * form.d_poly
    h2 = arrangement_planes(form, spec.exceptions)
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

    base_values, walls = propagate_targets(spec, [z0 for _, z0 in found])
    pieces = [
        Piece(shrunk, z0, value, wall)
        for (shrunk, z0), value, wall in zip(found, base_values, walls)
    ]
    pieces.sort(key=lambda p: (p.region.halfspaces, p.base_point))
    return PiecewiseStructure(form, tuple(pieces), MeasureZeroSet.make(excluded))


def _zero_divisor_structure(spec: TermSpec) -> PiecewiseStructure:
    """A term annihilated by p vanishes wherever p does not; the closed form
    C = 1, D = p, no chains, one piece covering everything, is exact off
    the zero set of p.  A seed refutes p with WitnessError when its value,
    or a value one recurrence step from it along +-e_i, is nonzero off
    p = 0; each step is the one a flood over seed -+ e_i takes, so its
    divisor is nonzero and it is not evaluated on an exception plane."""
    witness = spec.zero_divisor_witness
    k = spec.arity
    if spec.seed is not None:
        z0, value = spec.seed
        reached = [(z0, value)]
        for i in range(k):
            segment = (z0[:i] + (z0[i] - 1,) + z0[i + 1 :], z0[:i] + (z0[i] + 1,) + z0[i + 1 :])
            flood = _Flood(spec, *segment)
            reached += [(z, flood.get(z)) for z in segment]
        for z, v in reached:
            if v and witness.evaluate(z):
                raise WitnessError(
                    f"the zero-divisor witness {witness} is refuted: the term is "
                    f"{format_fraction(v)} at {z}, off its zero set"
                )
    d_poly = witness.normalized()[1]
    form = OreSatoForm(k, MultiPoly.constant(k, 1), d_poly, (1,) * k, ())
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
        # each half-space v.z > n as (v[:-1], v[-1], n), read along a row
        self.halves = tuple((h.v[:-1], h.v[-1], h.n) for h in piece.region.halfspaces)
        c0, d0 = form.c_poly.evaluate_cleared(z0), form.d_poly.evaluate_cleared(z0)
        if c0 == 0 or d0 == 0:
            # the build picks z0 off C D = 0; a value's denominator must not vanish
            raise IntegrityError(f"C or D vanishes at the base point {z0}")
        base = piece.base_value
        self.scale = None if base is None else (base.numerator * d0, base.denominator * c0)


def _row_runs(
    tables: Sequence[_PieceTable], rest: Point, lo: int, hi: int
) -> list[tuple[int, int, Optional[_PieceTable]]]:
    """The row {rest + (t,) : lo <= t <= hi} cut into maximal runs
    (start, stop, table), stop exclusive, of the points whose first holding
    piece in ``tables`` order is ``table`` (None: no piece), in order of t.

    On the row a half-space v.z > n reads c t > m with c = v[-1] and
    m = n - v[:-1].rest: t >= m // c + 1 for c > 0, t <= (-m - 1) // -c for
    c < 0, every t for c = 0 and m < 0, no t for c = 0 and m >= 0.  So each
    piece, convex, meets the row in one integer interval.  Between two
    consecutive interval ends every piece holds all points or none, so the
    first piece holding the run's first point holds the whole run; that is
    the piece the ordered scan over ``tables`` gives at each point."""
    spans = []
    for table in tables:
        a, b = lo, hi
        for head, c, n in table.halves:
            m = n - sum(map(operator.mul, head, rest))
            if c > 0:
                a = max(a, m // c + 1)
            elif c < 0:
                b = min(b, (-m - 1) // -c)
            elif m >= 0:
                b = a - 1
                break
        if a <= b:
            spans.append((a, b + 1, table))
    cuts = sorted({lo, hi + 1}.union(*((a, b) for a, b, _ in spans)))
    runs: list[tuple[int, int, Optional[_PieceTable]]] = []
    for start, stop in zip(cuts, cuts[1:]):
        table = next((t for a, b, t in spans if a <= start < b), None)
        if runs and runs[-1][2] is table:
            runs[-1] = (runs[-1][0], stop, table)
        else:
            runs.append((start, stop, table))
    return runs


def _cleared_evaluator(p: MultiPoly) -> Callable[[Point], int]:
    """``p.evaluate_cleared``, or for a constant p (C = D = 1 is common) a
    function that returns its one value without walking the terms."""
    if p.is_constant:
        value = p.evaluate_cleared((0,) * p.arity)
        return lambda z: value
    return p.evaluate_cleared


def closed_form_eval(ps: PiecewiseStructure, z: Sequence[int]) -> EvalOutcome:
    """Value of the closed form at a lattice point, or the reason it is
    undefined there.

    The coordinates follow the integer rule of ``poly._integer``: an
    integral float is accepted, a fractional one or a bool raises
    TypeError naming the point.  A point of another arity than the
    structure raises DimensionError.  The point is evaluated as the
    one-point window ``LatticeBox(z, 0)`` of ``ps.window_values``, the kernel
    ``grid_compare`` runs over a whole window: its piece is the first of
    ``ps.pieces`` that contains z, found from the one integer interval in
    which each piece meets the row of z.

    Arithmetic is in integers with one Fraction per point: C and D are
    evaluated cleared of denominators, and each chain product
    gp(v.z0, v.z) is read from the piece's prefix table, kept on ``ps``
    and extended to v.z if it does not reach it yet, so each chain factor
    is evaluated once per structure.  A zero chain factor inside the
    touched product range violates the construction guarantees and raises
    IntegrityError naming j, at the same points as a fresh product would;
    so does a point in no piece and on no excluded hyperplane, named."""
    z = _integer_point(z)
    if len(z) != ps.form.arity:
        raise DimensionError("point arity mismatch")
    ((_, status, num, den),) = ps.window_values(LatticeBox(z, 0))
    return EvalOutcome(status, None if num is None else Fraction(num, den))


# ---------------------------------------------------------------------------
# factorial forms
# ---------------------------------------------------------------------------


class FactorialChain(Frozen):
    """A chain as plain products of num(j) / den(j) over a range of j; the
    forms that share it share its factoring (``_pochhammer``)."""

    direction: Point
    num: UniPoly
    den: UniPoly
    offset: int  # n with products running over 1 <= j <= direction.z + n

    def __init__(self, direction, num, den, offset):
        set_field(self, "direction", direction)
        set_field(self, "num", num)
        set_field(self, "den", den)
        set_field(self, "offset", offset)

    @functools.cached_property
    def _pochhammer(self) -> tuple[tuple[tuple[PochhammerEntry, ...], Fraction], ...]:
        """(symbols, alpha) of num, then of den, for ``to_pochhammer``: a
        symbol per root, and the leading coefficient as a Fraction so that
        its negative powers stay exact.  Built on first use and kept."""
        sides = []
        for poly in (self.num, self.den):
            if poly.is_zero:
                raise IntegrityError("zero chain polynomial in a factorial form")
            roots, cofactor = rational_roots(poly)
            if cofactor.degree() >= 1:
                raise SplittingError(
                    f"chain factor {cofactor} does not split over the rationals",
                    factor=cofactor,
                )
            symbols = tuple(PochhammerEntry(1 - rho, self.direction, self.offset) for rho in roots)
            sides.append((symbols, Fraction(cofactor.coeffs[0])))
        return tuple(sides)


class FactorialForm(Frozen):
    """A piece's closed form as plain products with nonnegative limits."""

    region: PolyhedralRegion
    gamma: tuple[Coeff, ...]
    scalar: Coeff
    c_poly: MultiPoly
    d_poly: MultiPoly
    chains: tuple[FactorialChain, ...]

    def __init__(self, region, gamma, scalar, c_poly, d_poly, chains):
        set_field(self, "region", region)
        set_field(self, "gamma", gamma)
        set_field(self, "scalar", scalar)
        set_field(self, "c_poly", c_poly)
        set_field(self, "d_poly", d_poly)
        set_field(self, "chains", chains)


def split_factorial(ps: PiecewiseStructure) -> list[FactorialForm]:
    """Rewrite each piece as plain products with nonnegative upper limits.

    A piece is cut along the sign of v.(z - z0) for each chain direction v
    (at most 2^|V| nonempty subregions).  On the nonnegative side of v the
    product over [v.z0, v.z) becomes prod_{j=1}^{v.z - v.z0} of the
    arguments shifted by v.z0 - 1; on the negative side it becomes the
    reciprocal chain reflected through v.z0, running to v.z0 - v.z.  The
    upper limits are >= 0 on their subregions by construction, with 0
    denoting the empty product.  Both sides of each chain are built once
    per piece; a subregion takes one side of every chain, nonnegative side
    first, and is kept when Fourier-Motzkin elimination finds it feasible.
    A piece with an unknown base value has no form.
    """
    out: list[FactorialForm] = []
    form = ps.form
    k = form.arity
    for piece in ps.pieces:
        if piece.base_value is None:
            continue
        z0 = piece.base_point
        scalar = piece.base_value
        scalar *= form.d_poly.evaluate(z0) / form.c_poly.evaluate(z0)
        for g, z0i in zip(form.gamma, z0):
            scalar *= Fraction(g) ** (-z0i)
        scalar = _coeff(scalar)
        sides = []  # per chain: (half-space, chain) for v.z >= v.z0, then for v.z < v.z0
        for chain in form.chains:
            v, num, den = chain.direction, chain.num, chain.den
            minus = tuple(-x for x in v)
            level = sum(a * b for a, b in zip(v, z0))  # v.z0
            nonneg = FactorialChain(v, num.shift_arg(level - 1), den.shift_arg(level - 1), -level)
            neg = FactorialChain(minus, den.reflect(level), num.reflect(level), level)
            sides.append(
                ((HalfSpace.make(v, level - 1), nonneg), (HalfSpace.make(minus, -level), neg))
            )
        for cell in itertools.product(*sides):
            region = piece.region.intersect(*(half for half, _ in cell))
            if fm_feasible(region_rows(region), k):
                chains = tuple(chain for _, chain in cell)
                out.append(
                    FactorialForm(region, form.gamma, scalar, form.c_poly, form.d_poly, chains)
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
    chain factors violate the form's guarantees and raise IntegrityError.
    The coordinates follow the integer rule of ``poly._integer``."""
    z = _integer_point(z)
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


class PochhammerEntry(Frozen):
    """One rising factorial (m)_r with r linear in the point."""

    base: Coeff  # m of the rising factorial (m)_r
    direction: Point
    offset: int  # r = direction.z + offset

    def __init__(self, base, direction, offset):
        set_field(self, "base", base)
        set_field(self, "direction", direction)
        set_field(self, "offset", offset)


class PochhammerForm(Frozen):
    """A piece's closed form with the chains as Pochhammer symbols."""

    region: PolyhedralRegion
    gamma: tuple[Coeff, ...]
    scalar: Coeff
    c_poly: MultiPoly
    d_poly: MultiPoly
    numerator: tuple[PochhammerEntry, ...]
    denominator: tuple[PochhammerEntry, ...]

    def __init__(self, region, gamma, scalar, c_poly, d_poly, numerator, denominator):
        set_field(self, "region", region)
        set_field(self, "gamma", gamma)
        set_field(self, "scalar", scalar)
        set_field(self, "c_poly", c_poly)
        set_field(self, "d_poly", d_poly)
        set_field(self, "numerator", numerator)
        set_field(self, "denominator", denominator)


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
    rationals does not rewrite and raises SplittingError, a zero one
    IntegrityError, num before den.  Each chain factors its sides once
    (``FactorialChain._pochhammer``); this assembles the symbols and the
    powers of alpha.  Scalars and symbols follow the coefficient rule of
    ``poly``: an int when integral, else a Fraction.
    """
    gamma = list(ff.gamma)
    scalar = ff.scalar
    numerator: list[PochhammerEntry] = []
    denominator: list[PochhammerEntry] = []
    for chain in ff.chains:
        for (symbols, alpha), target, exponent in zip(
            chain._pochhammer, (numerator, denominator), (1, -1)
        ):
            target.extend(symbols)
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
    caller error.  The coordinates follow the integer rule of
    ``poly._integer``."""
    z = _integer_point(z)
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
