"""Ground-truth evaluation of a term from its recurrences.

Values are propagated from the seed by a flood over unit steps.  A forward
step from y applies f(y + e_i) = f(y) * A_i(y) / B_i(y) and needs
B_i(y) != 0; a backward step to y applies
f(y) = f(y + e_i) * B_i(y) / A_i(y) and needs A_i(y) != 0.  Either way the
recurrence is evaluated at y, which must not lie on a declared exception
hyperplane.  Zero values propagate (a vanishing numerator produces an
honest zero); a step whose divisor vanishes is simply not taken, so a
point is ``blocked`` only when every path inside the window is.

The flood does integer arithmetic only and builds no Fraction per step.
Each generator side, scalar * prod(base ** exp), becomes one integer
numerator over one constant integer denominator: the bases are evaluated
with ``MultiPoly.evaluate_cleared``, whose cleared form is built once and
kept on the polynomial, so repeated floods share it.  A step reads its
multiplier, A_i/B_i forward or B_i/A_i backward, from one oriented table
and evaluates the divisor first.  A value is kept as its reduced pair
(p, q), q > 0.  A step reduces its multiplier num/den by their gcd,
cross-cancels it with the value by gcd(p, den) and gcd(q, num) (Knuth's
rule, as ``Fraction`` multiplication does) and moves the sign into the
numerator, so no gcd of the grown products is taken.  Zero is absorbing:
a step taken from the value (0, 1) stores (0, 1) without evaluating the
numerator side or taking a gcd, which is what the rule gives, since
gcd(0, den) = |den|.  The divisor is still evaluated first, so a step out
of a zero region is refused where its divisor vanishes, as any step is.
A move is dropped when its target is outside the window or already
visited, tested on its row-major index in the box, before its tuple is
built, the exception planes are consulted (not at all when the spec
declares none) or anything is evaluated; the order, the values and the
certificates are those of evaluating every move.  The values of A_i and
B_i at a point are not memoised: each is needed by at most one step taken.

The flood keeps one record per point reached, (p, q, link): the value and
the step that reached the point, as one small integer: i for a forward
step along axis i, ~i for a backward one, None at the seed, so a link
allocates no object.  ``propagate`` rebuilds the certificate of its target
from the links on demand, each multiplier evaluated again with
``FactoredRational.evaluate``, not read from the integer table, so a
certificate that replays to the value re-checks that table.

The flood is demand driven and goal directed.  Building one only seeds
it, and refuses a box of more than ``FLOOD_POINT_LIMIT`` points.  The
points found wait in deques keyed by their L1 distance to a goal box, the
bounding box of the points the caller will ask for, each made when the
first point at its distance is found, and the flood pops the first point
of the nearest one.  A step moves one coordinate by one, so it changes the
distance by at most one, computed from the moved axis alone.  Each point
asked for expands points until that point is found or the queue is empty,
and the next question resumes where the last one stopped.  The goal
defaults to the flood's own box: every distance is then 0, the queue is
one FIFO deque and the order is breadth first, which is the order of
``propagate``'s certificates.

Which points a flood reaches does not depend on the order, since a step is
taken or refused by its two end points alone, and neither does a value,
since values are path independent.  So every value is the one a flood run
to exhaustion gives, whatever the goal and wherever the flood stopped; only
the links, and so the certificates, follow the order.  A flood runs to
exhaustion only when a point asked for inside its box is unreachable,
which is exactly when the answer needs the whole box, and
``propagate_targets`` does not ask for a point it can prove unreachable.

That proof is a directional wall (``_walls``): a half-space
H = {w.z >= m} with every |w_i| <= 1 that holds the seed, such that for
every axis i with w_i = 1 a linear base of A_i or a declared exception
plane is the level w.z = m - 1, and for every axis i with w_i = -1 a linear
base of B_i or a declared exception plane is the level w.z = m.  A step
along an axis with w_i = 0 keeps w.z, a forward step along w_i = 1 and a
backward step along w_i = -1 raise it, so a step out of H starts on the
level w.z = m: either backward along w_i = 1, evaluated at its target on
the level m - 1, where A_i, its divisor, vanishes or an exception plane
lies; or forward along w_i = -1, evaluated at its start on the level m,
where B_i, its divisor, vanishes or an exception plane lies.  The flood
refuses both, so no flood out of the seed, in any box, reaches a point
outside H.

``build_structure`` takes every piece's base value from one flood out of
the seed over the seed and all base points (``propagate_targets``), aimed
at the bounding box of the base points no wall cuts off, and each walled
piece's wall from the same call, which seeks the walls once.  A flood over
a comparison window and the seed, aimed at the window, supplies the oracle
for piecewise closed forms: ``grid_compare`` asks it only at the points
where the closed form has a value.  Those values come from the structure
itself (``PiecewiseStructure.window_values``), so this module imports
nothing of ``structure``, the layer above it, which imports
``propagate_targets`` from here.
"""

from __future__ import annotations

from collections import defaultdict, deque
from fractions import Fraction
from math import gcd
from typing import Optional, Sequence

from ._frozen import Frozen, set_field
from .errors import DimensionError, LimitError, MissingSeedError
from .geometry import HalfSpace, Hyperplane, LatticeBox
from .poly import MultiPoly, Point, _integer_point
from .termratio import FactoredRational, TermSpec

# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------

# the most points a flood's box may hold: ten times the largest box the
# tests, the goldens and the benchmarks flood (98,192 points)
FLOOD_POINT_LIMIT = 1_000_000


class PathStep(Frozen):
    """One replayable propagation step: the recurrence for ``axis`` was
    evaluated at ``at`` and contributed ``multiplier`` to the value."""

    at: Point
    axis: int
    forward: bool
    multiplier: Fraction

    def __init__(self, at, axis, forward, multiplier):
        set_field(self, "at", at)
        set_field(self, "axis", axis)
        set_field(self, "forward", forward)
        set_field(self, "multiplier", multiplier)


class PropagationResult(Frozen):
    """The propagated value at a point, or None and why, with its path."""

    value: Optional[Fraction]
    reason: Optional[str] = None
    path: tuple[PathStep, ...] = ()

    def __init__(self, value, reason=None, path=()):
        set_field(self, "value", value)
        set_field(self, "reason", reason)
        set_field(self, "path", path)

    @property
    def ok(self) -> bool:
        return self.value is not None


def _integer_side(side: FactoredRational) -> tuple[int, tuple, int]:
    """A generator side as (scale, factors, denominator): at an integer
    point z its value is scale * prod(f(z) ** e for f, e in factors) over
    the constant denominator, every factor f being a base's
    ``evaluate_cleared``.  Generator sides have positive exponents."""
    scale, denominator = side.scalar.numerator, side.scalar.denominator
    factors = []
    for base, exp in side.factors:
        denominator *= base.cleared[0] ** exp
        factors.append((base.evaluate_cleared, exp))
    return scale, tuple(factors), denominator


class _Flood:
    """Deterministic flood of propagated values from the seed of a seeded
    spec, inside the box [lo, hi], which holds the seed, aimed at the goal
    box (glo, ghi), by default [lo, hi] itself.

    Points are expanded nearest to the goal first (L1 distance) and, at one
    distance, in the order found; the steps out of a point are explored in
    lexicographic order of the step vector.  So the discovered path to each
    point (and therefore its certificate) is deterministic for a given goal,
    and breadth first for the default one; the value itself is path
    independent for compatible specs wherever it is defined at all.  The
    constructor only seeds the flood; ``get`` runs it as far as the points
    asked for need.

    ``values`` holds the record (p, q, link) of each point reached so far
    and ``seen`` its row-major index in the box.  ``buckets`` maps a
    distance to the goal, at most ``far``, to the (index, point) of the
    points found at it and not expanded yet, in the order found; those
    below ``nearest`` are empty.  ``moves`` holds per unit step its axis,
    sign, index stride and multiplier num_scale * prod(f ** e) /
    (den_scale * prod(f ** e)) as (num_scale, num_factors, den_scale, den_factors).
    """

    def __init__(self, spec: TermSpec, lo: Point, hi: Point, goal=None):
        self.spec = spec
        self.lo = lo
        self.hi = hi
        self.glo, self.ghi = (lo, hi) if goal is None else goal
        k = spec.arity
        # row-major strides of the box: a point's index moves by
        # +-strides[i] with a step along axis i
        strides = [1] * k
        for i in range(k - 1, 0, -1):
            strides[i - 1] = strides[i] * (hi[i] - lo[i] + 1)
        size = strides[0] * (hi[0] - lo[0] + 1)
        if size > FLOOD_POINT_LIMIT:
            raise LimitError(
                f"the flood's box from {lo} to {hi} holds {size} points, "
                f"more than FLOOD_POINT_LIMIT = {FLOOD_POINT_LIMIT}"
            )
        # per axis: A = a_scale * prod(a_factors) / a_den and likewise B,
        # so A / B = (a_scale * b_den) * prod(a_factors)
        #          / ((b_scale * a_den) * prod(b_factors)) forward, and
        # B / A backward
        moves = []
        for i, gen in enumerate(spec.generators):
            a_scale, a_factors, a_den = _integer_side(gen.num)
            b_scale, b_factors, b_den = _integer_side(gen.den)
            forward = (a_scale * b_den, a_factors, b_scale * a_den, b_factors)
            backward = (b_scale * a_den, b_factors, a_scale * b_den, a_factors)
            for delta, side in ((1, forward), (-1, backward)):
                step = tuple(delta if j == i else 0 for j in range(k))
                moves.append((step, (i, delta, delta * strides[i]) + side))
        moves.sort(key=lambda m: m[0])
        self.moves = [move for _, move in moves]
        seed_point, seed_value = spec.seed
        seed_value = Fraction(seed_value)
        self.values: dict[Point, tuple[int, int, Optional[int]]] = {
            seed_point: (seed_value.numerator, seed_value.denominator, None)
        }
        seed_index = sum((x - a) * s for x, a, s in zip(seed_point, lo, strides))
        self.seen = {seed_index}
        glo, ghi = self.glo, self.ghi
        self.far = sum(max(g - a, b - h, 0) for a, b, g, h in zip(lo, hi, glo, ghi))
        self.buckets: defaultdict[int, deque[tuple[int, Point]]] = defaultdict(deque)
        self.nearest = sum(
            g - x if x < g else x - h if x > h else 0 for x, g, h in zip(seed_point, glo, ghi)
        )
        self.buckets[self.nearest].append((seed_index, seed_point))

    def _in_window(self, z: Point) -> bool:
        return all(a <= x <= b for x, a, b in zip(z, self.lo, self.hi))

    def _pair(self, z: Point) -> Optional[tuple[int, int]]:
        """The propagated value at z as its reduced pair (p, q), or None when
        the flood cannot reach it inside the box.  Expands points until z is
        found or the queue is empty, so a point of the box behind a wall
        costs the whole flood and any other point only the points expanded
        before it is found; a point outside the box costs nothing."""
        record = self.values.get(z)
        if record is None and self._in_window(z):
            self._run(z)
            record = self.values.get(z)
        return None if record is None else record[:2]

    def get(self, z: Point) -> Optional[Fraction]:
        """The propagated value at z, as ``_pair`` finds it, or None."""
        pair = self._pair(z)
        return None if pair is None else Fraction(*pair)

    def _run(self, z: Point) -> None:
        """Expand points in queue order until z is reached or the queue is
        empty.  A point found one step from a point at distance d is at
        d - 1, d or d + 1: only the moved axis's term of the distance
        changes.  The sides are evaluated inline, the divisor first, and the
        pair is reduced as the module docstring says; a step taken from a
        zero value stores (0, 1) and evaluates no numerator side."""
        values, seen, moves = self.values, self.seen, self.moves
        lo, hi, glo, ghi = self.lo, self.hi, self.glo, self.ghi
        buckets = self.buckets
        covers = self.spec.exceptions.covers if self.spec.exceptions.hyperplanes else None
        d, far = self.nearest, self.far
        while z not in values:
            bucket = buckets.get(d)
            if not bucket:
                if d == far:
                    break  # the queue is empty
                d += 1
                continue
            index, node = bucket.popleft()
            p, q, _ = values[node]
            for axis, delta, stride, num_scale, num_factors, den_scale, den_factors in moves:
                # a unit step leaves the window only along its own axis
                x = node[axis] + delta
                if not lo[axis] <= x <= hi[axis]:
                    continue
                target_index = index + stride
                if target_index in seen:
                    continue
                target = node[:axis] + (x,) + node[axis + 1 :]
                at = node if delta > 0 else target
                if covers is not None and covers(at):
                    continue
                den = den_scale
                for f, exp in den_factors:
                    den *= f(at) ** exp
                if not den:
                    continue
                link = axis if delta > 0 else ~axis
                if p:
                    num = num_scale
                    for f, exp in num_factors:
                        num *= f(at) ** exp
                    g = gcd(num, den)
                    num //= g
                    den //= g
                    g1 = gcd(p, den)
                    g2 = gcd(q, num)
                    tp = (p // g1) * (num // g2)
                    tq = (q // g2) * (den // g1)
                    values[target] = (-tp, -tq, link) if tq < 0 else (tp, tq, link)
                else:
                    # zero is absorbing: the reduced pair of 0 is (0, 1)
                    values[target] = (0, 1, link)
                seen.add(target_index)
                if delta > 0:
                    e = d + 1 if x > ghi[axis] else d - 1 if x <= glo[axis] else d
                else:
                    e = d + 1 if x < glo[axis] else d - 1 if x >= ghi[axis] else d
                buckets[e].append((target_index, target))
            if buckets.get(d - 1):
                d -= 1
        self.nearest = d

    def certificate(self, z: Point) -> tuple[PathStep, ...]:
        """The steps from the seed to z, rebuilt from the links, each
        multiplier evaluated again with ``FactoredRational.evaluate``."""
        out = []
        while True:
            step = self.values[z][2]
            if step is None:
                break
            forward = step >= 0
            axis = step if forward else ~step
            node = z[:axis] + (z[axis] - 1 if forward else z[axis] + 1,) + z[axis + 1 :]
            at = node if forward else z
            gen = self.spec.generators[axis]
            a, b = gen.num.evaluate(at), gen.den.evaluate(at)
            out.append(PathStep(at, axis, forward, a / b if forward else b / a))
            z = node
        out.reverse()
        return tuple(out)


def _box(spec: TermSpec, points: Sequence[Point], what: str = "point") -> tuple[Point, Point]:
    """The bounding box (lo, hi) of the seed and the points inflated by
    2 (k+1), the one box every flood here searches.  A spec without a seed
    raises MissingSeedError; then points of another arity than the spec
    raise DimensionError, named ``what`` (a point or a window)."""
    if spec.seed is None:
        raise MissingSeedError("propagation requires a seed value")
    if any(len(p) != spec.arity for p in points):
        raise DimensionError(f"{what} arity mismatch")
    margin = 2 * (spec.arity + 1)
    coords = list(zip(spec.seed[0], *points))
    lo = tuple(min(c) - margin for c in coords)
    hi = tuple(max(c) + margin for c in coords)
    return lo, hi


def propagate(
    spec: TermSpec, frm: tuple[Sequence[int], Fraction], to: Sequence[int]
) -> PropagationResult:
    """Value of the term at ``to`` propagated from the given point/value
    pair, searching breadth first within the bounding box of the two points
    inflated by 2 (k+1), the margin ``propagate_window`` uses too; the
    certificate is the first path found (``_Flood.certificate``).  The
    coordinates of both points follow the integer rule of ``poly._integer``:
    a fractional one or a bool raises TypeError naming its point, and then
    a point of another arity than the spec raises DimensionError."""
    point, value = _integer_point(frm[0]), Fraction(frm[1])
    to = _integer_point(to)
    spec = spec.with_seed(point, value)
    flood = _Flood(spec, *_box(spec, [to]))
    value = flood.get(to)
    if value is None:
        return PropagationResult(None, reason="blocked")
    return PropagationResult(value, path=flood.certificate(to))


def _zero_plane(base: MultiPoly) -> Hyperplane:
    """The plane a.z = -c where the linear base a.z + c vanishes."""
    k = base.arity
    a = [base.coefficient(tuple(int(j == i) for j in range(k))) for i in range(k)]
    return Hyperplane.make(a, -base.coefficient((0,) * k))


def _walls(spec: TermSpec) -> tuple[HalfSpace, ...]:
    """Every directional wall of a seeded spec (see the module docstring):
    the half-spaces {w.z >= m}, as ``HalfSpace(w, m - 1)``, that hold the
    seed, have every |w_i| <= 1, and whose boundary steps the recurrences
    refuse axis by axis.  No flood out of the seed reaches a point outside
    one of them.  The candidates are the levels w.z = m and m - 1 of every
    zero plane of a linear generator base and every exception plane, both
    orientations; each is checked exactly against the planes on which the
    sides vanish."""
    exceptions = set(spec.exceptions.hyperplanes)
    # per axis: the planes where a backward step is refused (A_i vanishes
    # or an exception plane lies there) and those where a forward step is
    # refused (the same with B_i)
    refusing = []
    for gen in spec.generators:
        refusing.append(
            tuple(
                exceptions
                | {_zero_plane(b) for b, _ in side.factors if b.total_degree() == 1}
                for side in (gen.num, gen.den)
            )
        )
    candidates = set()
    for plane in set().union(*(backward | forward for backward, forward in refusing)):
        if plane.empty or any(abs(x) > 1 for x in plane.v):
            continue
        for sign in (1, -1):
            w, level = tuple(sign * x for x in plane.v), sign * plane.n
            candidates.update([(w, level), (w, level + 1)])
    seed = spec.seed[0]
    walls = []
    for w, m in sorted(candidates):
        if sum(a * b for a, b in zip(w, seed)) < m:
            continue
        below, boundary = Hyperplane.make(w, m - 1), Hyperplane.make(w, m)
        if all(
            wi == 0 or (below in backward if wi == 1 else boundary in forward)
            for wi, (backward, forward) in zip(w, refusing)
        ):
            walls.append(HalfSpace.make(w, m - 1))
    return tuple(walls)


def _wall_against(walls: Sequence[HalfSpace], z: Point) -> Optional[HalfSpace]:
    """The first of the walls that z lies outside, or None."""
    return next((h for h in walls if not h.contains(z)), None)


def propagate_targets(
    spec: TermSpec, targets: Sequence[Point]
) -> tuple[list[Optional[Fraction]], list[Optional[HalfSpace]]]:
    """Per target, its value and the first directional wall (``_walls``) it
    lies behind, or None, from one flood out of the seed over the bounding
    box of the seed and all targets inflated by 2 (k+1), the margin
    ``propagate`` uses.  The value is None at a target the flood does not
    reach.  That box contains the box of every ``propagate(spec,
    spec.seed, t)``, so each target it reaches gets the same value, and it
    may reach a target those floods do not.  A spec without a seed raises
    MissingSeedError, then a target of another arity than the spec
    DimensionError, both before the walls are sought.

    A target behind a wall is answered None without asking the flood,
    since no flood reaches it; the box still holds it, so every other
    target gets the answer the flood of the whole box gives.  The flood is
    aimed at the bounding box of the targets no wall cuts off; when every
    target is walled, none is asked for and the flood keeps its default
    goal.  It stops as soon as it finds the last of them, and runs its
    whole box only when one of those is unreachable."""
    lo, hi = _box(spec, targets)
    every_wall = _walls(spec)
    walls = [_wall_against(every_wall, t) for t in targets]
    open_targets = [t for t, wall in zip(targets, walls) if wall is None]
    goal = None
    if open_targets:
        goal = tuple(map(min, zip(*open_targets))), tuple(map(max, zip(*open_targets)))
    flood = _Flood(spec, lo, hi, goal=goal)
    values = [None if wall is not None else flood.get(t) for t, wall in zip(targets, walls)]
    return values, walls


def propagate_window(spec: TermSpec, window: LatticeBox) -> dict[Point, Fraction]:
    """All propagated values inside the window, from one flood over the
    window and the seed inflated by 2 (k+1), so paths may route around zero
    walls near the boundary.  The flood is aimed at the window and asked
    for every window point, so it stops as soon as it finds the last of
    them, or runs the whole box when one of them is unreachable.  The
    result lists the points reached in window order (``LatticeBox.points``);
    a window of another arity than the spec raises DimensionError."""
    flood = _window_flood(spec, window)
    table = {}
    for z in window.points():
        value = flood.get(z)
        if value is not None:
            table[z] = value
    return table


def _window_flood(spec: TermSpec, window: LatticeBox) -> _Flood:
    """The flood, not yet run, over the window and the seed inflated by
    2 (k+1), aimed at the window: the points nearest the window are
    expanded first, so the flood walks from the seed toward the window
    rather than through a ball around the seed."""
    corner_hi = tuple(c + window.size for c in window.corner)
    return _Flood(spec, *_box(spec, [window.corner, corner_hi], "window"), goal=(window.corner, corner_hi))


# ---------------------------------------------------------------------------
# grid comparison
# ---------------------------------------------------------------------------


class Mismatch(Frozen):
    """A point where the closed form and the propagated value differ."""

    z: Point
    closed: Fraction
    oracle: Fraction

    def __init__(self, z, closed, oracle):
        set_field(self, "z", z)
        set_field(self, "closed", closed)
        set_field(self, "oracle", oracle)


class GridReport(Frozen):
    """The counts of a window comparison, by outcome, and its mismatches."""

    checked: int
    equal: int
    on_h: int
    d_zero: int
    blocked: int
    value_unknown: int
    mismatches: tuple[Mismatch, ...]

    def __init__(self, checked, equal, on_h, d_zero, blocked, value_unknown, mismatches):
        set_field(self, "checked", checked)
        set_field(self, "equal", equal)
        set_field(self, "on_h", on_h)
        set_field(self, "d_zero", d_zero)
        set_field(self, "blocked", blocked)
        set_field(self, "value_unknown", value_unknown)
        set_field(self, "mismatches", mismatches)

    @property
    def clean(self) -> bool:
        return not self.mismatches


def grid_compare(ps, spec: TermSpec, window: LatticeBox) -> GridReport:
    """Compare the piecewise closed form against propagated values at every
    point of the window; exact equality where both are defined.

    The closed form comes from ``ps.window_values``, the structure's own
    kernel, which walks the window a row at a time and meets each piece in
    one integer interval per row; its value num/den is compared with the
    oracle's reduced pair (p, q), read without a Fraction
    (``_Flood._pair``), as num * q == den * p, and Fractions are built only
    for a mismatch.  The
    oracle is the flood ``propagate_window`` runs, aimed at the window and
    asked, in window order, only at the points where the closed form has a
    value, so it stops as soon as it finds the last of them, or runs the
    whole box when one of them is unreachable.  ``blocked`` counts those
    unreachable points; points on an excluded hyperplane, where D vanishes
    or in a piece of unknown base value are counted apart and never asked.
    A point in no piece and on no excluded hyperplane raises IntegrityError
    in the kernel, naming the point.
    A window of another arity than the spec raises DimensionError before
    any point is evaluated."""
    if spec.seed is None:
        raise MissingSeedError("grid comparison requires a seed value")
    flood = _window_flood(spec, window)
    checked = equal = on_h = d_zero = blocked = value_unknown = 0
    mismatches = []
    for z, status, num, den in ps.window_values(window):
        if status == "no-piece":
            on_h += 1
            continue
        if status == "d-zero":
            d_zero += 1
            continue
        if status == "value-unknown":
            value_unknown += 1
            continue
        pair = flood._pair(z)
        if pair is None:
            blocked += 1
            continue
        checked += 1
        p, q = pair
        if num * q == den * p:
            equal += 1
        else:
            mismatches.append(Mismatch(z, Fraction(num, den), Fraction(p, q)))
    return GridReport(
        checked, equal, on_h, d_zero, blocked, value_unknown, tuple(mismatches)
    )
