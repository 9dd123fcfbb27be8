import itertools
import json
import math
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import example_specs, load_spec
from hyperterm._frozen import replace
from hyperterm.errors import DimensionError, IntegrityError, LimitError, PreconditionError
from hyperterm.geometry import HalfSpace, Hyperplane, LatticeBox, MeasureZeroSet, PolyhedralRegion
from hyperterm.jsonio import spec_from_json
from hyperterm.oracle import (
    FLOOD_POINT_LIMIT,
    GridReport,
    Mismatch,
    PathStep,
    _Flood,
    _box,
    _integer_side,
    _wall_against,
    _walls,
    _window_flood,
    grid_compare,
    propagate,
    propagate_targets,
    propagate_window,
)
from hyperterm.parsing import parse_multipoly
from hyperterm.structure import build_structure, closed_form_eval
from hyperterm.termratio import FactoredRational, TermSpec, compose_direction, extend_by_zero

ROOT = Path(__file__).resolve().parent.parent
SPECS_DIR = ROOT / "specs"


def P(text):
    return parse_multipoly(text, 2)


def scaled_binomial_spec(exceptions=MeasureZeroSet.empty()):
    """choose(z1, z2) * 3^z2 / 4^z1 / 7: the generator sides carry the
    scalars 1/2 (from rational coefficients), 2 and 3."""
    return TermSpec.make(
        2,
        [
            (P("1/2*z1 + 1/2"), P("2*z1 - 2*z2 + 2")),
            (P("3*z1 - 3*z2"), P("z2 + 1")),
        ],
        exceptions=exceptions,
        seed=((0, 0), Fraction(1, 7)),
    )


def scaled_binomial_value(z):
    z1, z2 = z
    binom = math.comb(z1, z2) if 0 <= z2 <= z1 else 0
    return binom * Fraction(3) ** z2 / Fraction(4) ** z1 / 7


def test_propagate_to_seed():
    spec = load_spec("binomial")
    result = propagate(spec, spec.seed, (0, 0))
    assert result.value == 1
    assert result.path == ()


def test_propagate_binomial_values():
    # Pascal-triangle brute force oracle
    spec = load_spec("binomial")
    assert propagate(spec, spec.seed, (4, 2)).value == 6
    assert propagate(spec, spec.seed, (6, 3)).value == 20
    assert propagate(spec, spec.seed, (2, 5)).value == 0  # above the diagonal
    assert propagate(spec, spec.seed, (3, -1)).value == 0  # below the axis


def test_propagate_blocked_behind_zero_wall():
    # every path into z1 < 0 must divide by A_1(-1, z2) = 0
    spec = load_spec("binomial")
    result = propagate(spec, spec.seed, (-1, 0))
    assert not result.ok
    assert result.reason == "blocked"


def test_propagate_certificate_replays():
    spec = load_spec("binomial")
    result = propagate(spec, spec.seed, (5, 2))
    assert result.value == 10
    value = Fraction(1)
    for step in result.path:
        value *= step.multiplier
    assert value == 10


def test_propagate_integer_rule():
    # coordinates follow poly._integer: 5.9 is not rounded to 5, nor True
    # read as 1, in either point; an integral float is accepted
    spec = spec_from_json(json.loads((ROOT / "specs" / "binomial.json").read_text()))
    for frm, to, named in [
        ((0, 0), (5.9, 2.1), r"\(5\.9, 2\.1\)"),
        ((0, 0), (True, 0), r"\(True, 0\)"),
        ((0.5, 0), (5, 2), r"\(0\.5, 0\)"),
        ((0, False), (5, 2), r"\(0, False\)"),
    ]:
        with pytest.raises(TypeError, match=f"coordinate of the point {named} must be an integer"):
            propagate(spec, (frm, 1), to)
    assert propagate(spec, ((0.0, 0), 1), (5.0, 2.0)).value == 10
    assert propagate(spec, ((0, 0), 1), [5, 2]).value == 10


def test_propagate_negative_direction():
    spec = load_spec("odd")
    assert propagate(spec, spec.seed, (-2,)).value == Fraction(1, 3)
    assert propagate(spec, spec.seed, (3,)).value == 15


def test_propagate_zero_divisor_support():
    spec = load_spec("annihilated")
    assert propagate(spec, spec.seed, (0,)).value == 1
    assert propagate(spec, spec.seed, (3,)).value == 0
    assert propagate(spec, spec.seed, (-2,)).value == 0


def test_propagation_agrees_with_symbolic_ratio():
    rng = random.Random(61)
    for spec in [load_spec("odd"), load_spec("binomial"), load_spec("constant")]:
        k = spec.arity
        seed_point, seed_value = spec.seed
        count = 0
        for _ in range(100):
            w = tuple(rng.randint(-4, 4) for _ in range(k))
            target = tuple(a + b for a, b in zip(seed_point, w))
            ratio = compose_direction(spec, w)
            symbolic = ratio.evaluate(seed_point)
            result = propagate(spec, spec.seed, target)
            if symbolic is not None and result.ok:
                assert result.value == seed_value * symbolic
                count += 1
        assert count > 50


def test_path_independence_random_tie_breaking():
    """Aimed at a random goal box, the flood expands its points in another
    order and reaches a target by another path, with the same value."""
    rng = random.Random(67)
    spec = load_spec("binomial")
    other_paths = 0
    for _ in range(25):
        target = (rng.randint(-2, 8), rng.randint(-2, 8))
        baseline = propagate(spec, spec.seed, target)
        corners = [(rng.randint(-8, 14), rng.randint(-8, 14)) for _ in range(2)]
        goal = tuple(map(min, zip(*corners))), tuple(map(max, zip(*corners)))
        aimed = _Flood(spec, *_box(spec, [target]), goal=goal)
        value = aimed.get(target)
        assert baseline.ok == (value is not None)
        if baseline.ok:
            assert baseline.value == value
            other_paths += aimed.certificate(target) != baseline.path
    assert other_paths >= 5


def test_propagate_window_matches_pointwise():
    spec = load_spec("binomial")
    window = LatticeBox((-2, -2), 8)
    table = propagate_window(spec, window)
    for z in [(0, 0), (4, 2), (6, 6), (-1, 3)]:
        single = propagate(spec, spec.seed, z)
        if z in table:
            assert single.ok and single.value == table[z]


def test_propagate_window_lists_window_order():
    spec = load_spec("binomial")
    window = LatticeBox((-3, -3), 7)
    table = propagate_window(spec, window)
    assert list(table) == [z for z in window.points() if z in table]
    assert len(table) < (window.size + 1) ** 2  # the points behind the zero wall


def test_arity_mismatch_is_a_dimension_error():
    spec = load_spec("binomial")
    ps = build_structure(spec)
    for window in [LatticeBox((0,), 3), LatticeBox((0, 0, 0), 3)]:
        with pytest.raises(DimensionError, match="window arity mismatch"):
            propagate_window(spec, window)
        with pytest.raises(DimensionError, match="window arity mismatch"):
            grid_compare(ps, spec, window)
    # unchecked, a long target would read as unreached and a short one
    # would raise IndexError
    for target in [(1, 2, 3), (1,)]:
        with pytest.raises(DimensionError, match="point arity mismatch"):
            propagate_targets(spec, [(2, 1), target])


def test_propagate_requires_seed():
    spec = load_spec("binomial")
    bare = spec.with_seed((0, 0), 1)
    no_seed = TermSpec(bare.arity, bare.generators, bare.exceptions, None)
    with pytest.raises(PreconditionError):
        propagate_window(no_seed, LatticeBox((0, 0), 2))
    # a missing seed is reported before a point or window of the wrong arity
    for window in [LatticeBox((0,), 2), LatticeBox((0, 0, 0), 2)]:
        with pytest.raises(PreconditionError, match="propagation requires a seed value"):
            propagate_window(no_seed, window)
        with pytest.raises(PreconditionError, match="grid comparison requires a seed value"):
            grid_compare(build_structure(spec), no_seed, window)
    for target in [(1,), (1, 2, 3)]:
        with pytest.raises(PreconditionError, match="propagation requires a seed value"):
            propagate_targets(no_seed, [(2, 1), target])


# -- integer kernel of the flood ----------------------------------------------


def test_integer_sides_match_factored_evaluate():
    specs = [spec_from_json(json.loads(f.read_text())) for f in sorted(SPECS_DIR.glob("*.json"))]
    specs += list(example_specs().values())
    specs += [load_spec("annihilated"), scaled_binomial_spec()]
    assert len(specs) >= 7
    sides = [(s.arity, side) for s in specs for g in s.generators for side in (g.num, g.den)]
    # bases with rational coefficients, as a FactoredRational built directly
    # (not through make) may hold them
    sides.append(
        (2, FactoredRational(2, Fraction(-3, 5), ((P("1/2*z1 + 1/3"), 2), (P("z1*z2 - 3/4"), 1))))
    )
    for arity, side in sides:
        scale, factors, denominator = _integer_side(side)
        for z in itertools.product(range(-4, 5), repeat=arity):
            numerator = math.prod((f(z) ** exp for f, exp in factors), start=scale)
            assert Fraction(numerator, denominator) == side.evaluate(z)


def test_flood_with_exceptions_and_scalars():
    # the line z1 + z2 = 5 is declared an exception, so no step is evaluated
    # on it: the flood reaches it from below and never crosses it
    plane = Hyperplane.make((1, 1), 5)
    spec = scaled_binomial_spec(MeasureZeroSet.make([plane]))
    window = LatticeBox((-2, -2), 9)
    table = propagate_window(spec, window)
    open_table = propagate_window(scaled_binomial_spec(), window)
    reached = beyond = 0
    for z in window.points():
        single = propagate(spec, spec.seed, z)
        assert table.get(z) == single.value
        if z[0] + z[1] > 5 and z[0] >= 0:
            assert not single.ok and single.reason == "blocked"
            assert open_table[z] == scaled_binomial_value(z)
            beyond += 1
        if not single.ok:
            continue
        reached += 1
        # the certificate's multipliers are evaluated again from the
        # generator sides, so a wrong entry of the flood's integer table
        # fails the replay before the closed form is consulted
        assert_replays(spec, single.path, z, single.value)
        assert single.value == scaled_binomial_value(z)
    assert reached > 20 and beyond > 10


def assert_replays(spec, path, z, expected, box=None):
    """Replay a certificate with the Fraction evaluation of each side: it
    walks by unit steps from the seed to z, inside the box when one is
    given, never evaluates on an exception plane, and multiplies the seed
    value to the expected value."""
    position, value = spec.seed
    for step in path:
        assert not spec.exceptions.covers(step.at)
        gen = spec.generators[step.axis]
        a_val, b_val = gen.num.evaluate(step.at), gen.den.evaluate(step.at)
        unit = tuple(int(i == step.axis) for i in range(spec.arity))
        if step.forward:
            assert step.at == position
            assert step.multiplier == a_val / b_val
            position = tuple(x + u for x, u in zip(position, unit))
        else:
            position = tuple(x - u for x, u in zip(position, unit))
            assert step.at == position
            assert step.multiplier == b_val / a_val
        if box is not None:
            assert all(a <= x <= b for x, a, b in zip(position, *box))
        value *= step.multiplier
    assert position == z and value == expected


# -- differential check of the flood against a plain BFS -----------------------


def reference_flood(spec, lo, hi):
    """A plain BFS from the seed inside [lo, hi]: moves in lexicographic
    order of the step vector, every move evaluated through the
    FactoredRational sides, a PathStep list kept for every point."""
    k = spec.arity
    moves = sorted(
        (tuple(delta if j == i else 0 for j in range(k)), i, delta)
        for i in range(k)
        for delta in (1, -1)
    )
    seed_point, seed_value = spec.seed
    values = {seed_point: Fraction(seed_value)}
    paths = {seed_point: ()}
    frontier = [seed_point]
    while frontier:
        nxt = []
        for node in frontier:
            for step, axis, delta in moves:
                target = tuple(x + s for x, s in zip(node, step))
                if target in values or not all(a <= x <= b for x, a, b in zip(target, lo, hi)):
                    continue
                forward = delta > 0
                at = node if forward else target
                if spec.exceptions.covers(at):
                    continue
                gen = spec.generators[axis]
                a_val, b_val = gen.num.evaluate(at), gen.den.evaluate(at)
                num, den = (a_val, b_val) if forward else (b_val, a_val)
                if den == 0:
                    continue
                multiplier = num / den
                values[target] = values[node] * multiplier
                paths[target] = paths[node] + (PathStep(at, axis, forward, multiplier),)
                nxt.append(target)
        frontier = nxt
    return values, paths


def inflated_box(points, k):
    margin = 2 * (k + 1)
    lo = tuple(min(p[i] for p in points) - margin for i in range(k))
    hi = tuple(max(p[i] for p in points) + margin for i in range(k))
    return lo, hi


def random_extended_specs(rng, count):
    """Random forms restricted to a random support around the seed and
    extended by zero: the certificate planes become declared exceptions,
    and chain and C/D roots put zero walls inside the window."""
    from conftest import random_form, spec_from_form

    out = []
    while len(out) < count:
        k = rng.choice([1, 2, 2, 3])
        seed_point = tuple(rng.randint(-2, 2) for _ in range(k))
        spec = spec_from_form(random_form(rng, k), seed=(seed_point, Fraction(rng.choice([1, -2, 3]))))
        halves = []
        for _ in range(rng.randint(1, 2)):
            v = tuple(rng.randint(-1, 2) for _ in range(k))
            if not any(v):
                continue
            level = sum(a * b for a, b in zip(v, seed_point)) - rng.randint(1, 3)
            halves.append(HalfSpace.make(v, level))  # v.z > level holds at the seed
        extended = extend_by_zero(spec, PolyhedralRegion.make(k, halves))
        if len(extended.exceptions):
            out.append(extended)
    return out


def test_flood_matches_reference_bfs():
    rng = random.Random(97)
    specs = random_extended_specs(rng, 16)
    blocked = reached = 0
    for spec in specs:
        k = spec.arity
        seed_point = spec.seed[0]
        window = LatticeBox(tuple(x - 2 for x in seed_point), 4 if k < 3 else 3)
        corner_hi = tuple(c + window.size for c in window.corner)
        values, _ = reference_flood(spec, *inflated_box([window.corner, corner_hi, seed_point], k))
        assert propagate_window(spec, window) == {z: v for z, v in values.items() if window.contains(z)}
        for _ in range(6):
            to = tuple(x + rng.randint(-3, 3) for x in seed_point)
            values, paths = reference_flood(spec, *inflated_box([seed_point, to], k))
            result = propagate(spec, spec.seed, to)
            if to in values:
                reached += 1
                assert result.value == values[to]
                assert result.path == paths[to]
            else:
                blocked += 1
                assert not result.ok and result.reason == "blocked"
    assert reached > 30 and blocked > 10


def test_propagate_targets_matches_propagate():
    rng = random.Random(101)
    for spec in random_extended_specs(rng, 6) + [load_spec("binomial"), scaled_binomial_spec()]:
        seed_point = spec.seed[0]
        targets = [tuple(x + rng.randint(-5, 5) for x in seed_point) for _ in range(8)]
        singles = [propagate(spec, spec.seed, t).value for t in targets]
        # one target floods the window propagate floods
        assert [propagate_targets(spec, [t])[0][0] for t in targets] == singles
        # all targets share one wider window, which can only add values
        for value, single in zip(propagate_targets(spec, targets)[0], singles):
            assert single is None or value == single


def test_propagate_targets_matches_an_unaimed_flood():
    """The build's flood, aimed at the targets no wall cuts off, answers
    every target as the breadth-first flood of the same box does, value for
    value and None for None: at the seed, at a repeated target, at a target
    behind a wall and at one the box does not reach.  Each target comes back
    with the first wall it lies behind, and every walled target with None."""
    rng = random.Random(127)
    specs = random_extended_specs(rng, 10) + list(example_specs().values())
    specs.append(repository_spec("perfbench/specs/wedge3d.json"))
    counts = {"walled": 0, "unreached": 0, "reached": 0}
    for spec in specs:
        seed_point = spec.seed[0]
        targets = [seed_point]
        targets += [tuple(x + rng.randint(-6, 6) for x in seed_point) for _ in range(5)]
        targets += [p.base_point for p in build_structure(spec).pieces]
        targets.append(targets[rng.randrange(1, len(targets))])
        rng.shuffle(targets)
        unaimed = _Flood(spec, *_box(spec, targets))
        expected = [unaimed.get(t) for t in targets]
        values, walls = propagate_targets(spec, targets)
        assert values == expected
        assert walls == [_wall_against(_walls(spec), t) for t in targets]
        for t, value, wall in zip(targets, values, walls):
            if wall is not None:
                assert value is None and not wall.contains(t)
                counts["walled"] += 1
            else:
                counts["reached" if value is not None else "unreached"] += 1
    assert counts["walled"] >= 10 and counts["unreached"] >= 10 and counts["reached"] >= 50


def test_propagate_targets_asks_nothing_when_every_target_is_walled(monkeypatch):
    # the wall z1 >= -2 of odd_product_spec with the exception z1 = -3
    spec = replace(load_spec("odd"), exceptions=MeasureZeroSet.make([Hyperplane.make((1,), -3)]))
    floods = captured_floods(monkeypatch)
    wall = HalfSpace.make((1,), -3)
    assert propagate_targets(spec, [(-6,), (-4,), (-6,)]) == ([None] * 3, [wall] * 3)
    (flood,) = floods
    assert (flood.glo, flood.ghi) == (flood.lo, flood.hi)
    assert list(flood.values) == [spec.seed[0]]


# -- the demand-driven flood against the exhaustive reference ------------------


def box_points(lo, hi):
    return itertools.product(*(range(a, b + 1) for a, b in zip(lo, hi)))


def assert_reduced_pairs(flood, values):
    """Every record the flood holds is (p, q, link) with q > 0, p and q
    the numerator and denominator of the reference's Fraction."""
    for z, (p, q, _) in flood.values.items():
        assert q > 0 and (p, q) == (values[z].numerator, values[z].denominator), z


def test_flood_get_matches_reference():
    rng = random.Random(103)
    specs = random_extended_specs(rng, 12) + list(example_specs().values())
    asked = {"reached": 0, "blocked": 0, "outside": 0}
    for spec in specs:
        k = spec.arity
        seed_point = spec.seed[0]
        lo = tuple(x - rng.randint(1, 4) for x in seed_point)
        hi = tuple(x + rng.randint(1, 4) for x in seed_point)
        values, paths = reference_flood(spec, lo, hi)
        reached = [z for z in box_points(lo, hi) if z in values]
        blocked = [z for z in box_points(lo, hi) if z not in values]
        outside = []
        for _ in range(3):
            axis = rng.randrange(k)
            z = list(rng.choice(reached))
            z[axis] = lo[axis] - rng.randint(1, 3) if rng.random() < 0.5 else hi[axis] + rng.randint(1, 3)
            outside.append(tuple(z))
        points = rng.sample(reached, min(8, len(reached))) + blocked[:2] + outside
        rng.shuffle(points)
        flood = _Flood(spec, lo, hi)
        for z in points:
            value = flood.get(z)
            assert value == values.get(z)
            if value is not None:
                assert flood.certificate(z) == paths[z]
            asked["reached" if value is not None else "blocked" if z in blocked else "outside"] += 1
        # whatever the flood holds is a prefix of the reference, links included,
        # each value as the reduced pair of the reference's Fraction
        assert_reduced_pairs(flood, values)
        for z in flood.values:
            assert flood.certificate(z) == paths[z]
        if blocked[:2]:
            assert flood.values.keys() == values.keys()
    assert asked["reached"] > 60 and asked["blocked"] > 10 and asked["outside"] > 30


def goal_distance(z, glo, ghi):
    return sum(max(g - x, x - h, 0) for x, g, h in zip(z, glo, ghi))


def box_index(z, lo, hi):
    """The row-major index of z in the box [lo, hi]."""
    index = 0
    for x, a, b in zip(z, lo, hi):
        index = index * (b - a + 1) + x - a
    return index


def queued(flood):
    """The points a flood has found but not expanded yet."""
    return sum(len(bucket) for bucket in flood.buckets.values())


def test_goal_flood_matches_reference():
    """A flood aimed at a goal box reaches the points and values of the
    breadth-first reference, whatever the goal: inside the box, straddling
    its boundary, or around a point the flood cannot reach.  Its
    certificates may take other paths, but each replays to the value."""
    rng = random.Random(113)
    specs = random_extended_specs(rng, 12) + list(example_specs().values())
    asked = {"reached": 0, "blocked": 0, "outside": 0}
    walled_goals = 0
    for spec in specs:
        k = spec.arity
        seed_point = spec.seed[0]
        lo = tuple(x - rng.randint(2, 5) for x in seed_point)
        hi = tuple(x + rng.randint(2, 5) for x in seed_point)
        values, _ = reference_flood(spec, lo, hi)
        reached = [z for z in box_points(lo, hi) if z in values]
        blocked = [z for z in box_points(lo, hi) if z not in values]
        goals = []
        # inside the box, its corner offset from the seed
        corner = tuple(rng.randint(a, b) for a, b in zip(lo, hi))
        goals.append((corner, tuple(min(c + rng.randint(0, 2), b) for c, b in zip(corner, hi))))
        # straddling the box's boundary on every axis
        goals.append(
            (
                tuple(b - rng.randint(0, 2) for b in hi),
                tuple(b + rng.randint(1, 3) for b in hi),
            )
        )
        # around a point no flood in the box reaches
        if blocked:
            walled_goals += 1
            z = rng.choice(blocked)
            goals.append((tuple(x - 1 for x in z), tuple(x + 1 for x in z)))
        for glo, ghi in goals:
            outside = []
            for _ in range(2):
                axis = rng.randrange(k)
                z = list(rng.choice(reached))
                z[axis] = lo[axis] - rng.randint(1, 3) if rng.random() < 0.5 else hi[axis] + rng.randint(1, 3)
                outside.append(tuple(z))
            points = rng.sample(reached, min(6, len(reached)))
            points += rng.sample(blocked, min(2, len(blocked))) + outside
            rng.shuffle(points)
            flood = _Flood(spec, lo, hi, goal=(glo, ghi))
            for z in points:
                value = flood.get(z)
                assert value == values.get(z)
                if value is not None:
                    assert_replays(spec, flood.certificate(z), z, value, box=(lo, hi))
                asked["reached" if value is not None else "blocked" if z in blocked else "outside"] += 1
            # every point found waits in the bucket of its distance to the
            # goal, with its index in the box
            for d, bucket in flood.buckets.items():
                assert all(goal_distance(y, glo, ghi) == d for _, y in bucket)
                assert all(i == box_index(y, lo, hi) for i, y in bucket)
            # whatever the flood holds is reached by the reference, with its value
            assert_reduced_pairs(flood, values)
            if blocked:
                assert flood.values.keys() == values.keys() and not queued(flood)
    assert asked["reached"] > 150 and asked["blocked"] > 40 and asked["outside"] > 60
    assert walled_goals > 10


def test_flood_makes_buckets_only_where_it_finds_points():
    """A flood aimed 2,000 steps from its seed makes a bucket only for a
    distance at which it found a point: one step from the seed, three."""
    spec = load_spec("binomial")
    lo, hi = (-8, -8), (2008, 8)
    glo, ghi = (2000, 0), (2008, 0)
    flood = _Flood(spec, lo, hi, goal=(glo, ghi))
    assert flood.far == 2008 + 8 and flood.get((1, 0)) == 1
    found = {goal_distance(z, glo, ghi) for z in flood.values}
    assert set(flood.buckets) == found == {1999, 2000, 2001}
    # walked to the goal, it has made one bucket per distance it passed
    assert flood.get((2000, 0)) == 1
    assert set(flood.buckets) == {goal_distance(z, glo, ghi) for z in flood.values}
    # run to exhaustion by a point behind the wall z1 >= 0, it has made none
    # for the distances 2009..2016 of the points with z1 < 0
    assert flood.get((-5, 0)) is None and not queued(flood)
    assert set(flood.buckets) == {goal_distance(z, glo, ghi) for z in flood.values}
    assert max(flood.buckets) == 2008 < flood.far


def test_flood_refuses_a_box_past_its_limit():
    spec = load_spec("odd")
    flood = _Flood(spec, (0,), (FLOOD_POINT_LIMIT - 1,))
    assert flood.get((3,)) == 15
    with pytest.raises(LimitError, match=f"holds {FLOOD_POINT_LIMIT + 1} points"):
        _Flood(spec, (0,), (FLOOD_POINT_LIMIT,))


def test_flood_values_are_reduced_pairs():
    """A step reduces its multiplier, cross-cancels it with the value and
    moves the sign to the numerator, so every value the flood holds is the
    canonical pair of the reference's Fraction: on random extended specs
    and the repository specs, on binomial, whose divisor z1 - z2 + 1 is
    negative on part of the box, along a long 1-D path of odd.json, and at
    the zeros binomial's z1 - z2 steps into."""
    rng = random.Random(127)
    specs = random_extended_specs(rng, 12) + list(example_specs().values())
    specs += [scaled_binomial_spec()]
    paths = sorted(SPECS_DIR.glob("*.json")) + sorted((ROOT / "perfbench" / "specs").glob("*.json"))
    specs += [spec_from_json(json.loads(path.read_text())) for path in paths]
    for spec in specs:
        seed_point = spec.seed[0]
        lo = tuple(x - 4 for x in seed_point)
        hi = tuple(x + 4 for x in seed_point)
        values, _ = reference_flood(spec, lo, hi)
        flood = _Flood(spec, lo, hi)
        for z in box_points(lo, hi):
            flood.get(z)
        assert flood.values.keys() == values.keys()
        assert_reduced_pairs(flood, values)
    # binomial on [-8, 8]^2: negative divisors carry a sign, and z1 - z2
    # vanishes on z1 = z2, so zeros are stepped into and propagated from
    spec = repository_spec("specs/binomial.json")
    lo, hi = (-8, -8), (8, 8)
    values, _ = reference_flood(spec, lo, hi)
    flood = _Flood(spec, lo, hi)
    for z in box_points(lo, hi):
        assert flood.get(z) == values.get(z)
    assert_reduced_pairs(flood, values)
    assert any(step.multiplier < 0 for z in flood.values for step in flood.certificate(z))
    zero_links = [link for p, _, link in flood.values.values() if p == 0]
    assert len(zero_links) > 20 and None not in zero_links
    # odd.json over [-200, 200]: a path of 200 steps each way, numbers of
    # hundreds of digits
    spec = repository_spec("specs/odd.json")
    window = LatticeBox((-200,), 400)
    flood = _window_flood(spec, window)
    values, _ = reference_flood(spec, flood.lo, flood.hi)
    assert [flood.get(z) for z in window.points()] == [values[z] for z in window.points()]
    assert_reduced_pairs(flood, values)
    assert max(max(abs(p), q).bit_length() for p, q, _ in flood.values.values()) > 1000


def test_zero_is_absorbing_in_the_flood():
    """A step taken from a zero value stores (0, 1) without evaluating its
    numerator, but its divisor is still evaluated first.  On binomial,
    scaled_binomial_spec and random extended specs the window flood holds
    the reference's points and values, many of them zero, and propagate's
    certificates into the zero regions are the reference's paths.  Steps
    out of a zero region into a point the reference does not give the value
    0 are refused because their divisor vanishes; a flood that took them
    would store 0 there."""
    rng = random.Random(131)
    specs = [repository_spec("specs/binomial.json"), scaled_binomial_spec()]
    # k <= 2 keeps the reference's boxes small
    specs += [spec for spec in random_extended_specs(rng, 16) if spec.arity < 3]
    zeros = refused = certified = 0
    for spec in specs:
        k = spec.arity
        seed_point = spec.seed[0]
        window = LatticeBox(tuple(x - 4 for x in seed_point), 8)
        flood = _window_flood(spec, window)
        lo, hi = flood.lo, flood.hi
        values, _ = reference_flood(spec, lo, hi)
        assert [flood.get(z) for z in window.points()] == [values.get(z) for z in window.points()]
        for z in box_points(lo, hi):
            assert flood.get(z) == values.get(z)
        assert flood.values.keys() == values.keys()
        assert_reduced_pairs(flood, values)
        zero = [z for z, v in values.items() if v == 0]
        zeros += len(zero)
        for z in zero:
            for axis in range(k):
                for delta in (1, -1):
                    y = z[:axis] + (z[axis] + delta,) + z[axis + 1 :]
                    at = z if delta > 0 else y
                    if not all(a <= x <= b for x, a, b in zip(y, lo, hi)) or spec.exceptions.covers(at):
                        continue
                    # the divisor: B_i forward, A_i backward
                    gen = spec.generators[axis]
                    divisor = gen.den if delta > 0 else gen.num
                    if values.get(y) != 0 and divisor.evaluate(at) == 0:
                        refused += 1
        for to in rng.sample(zero, min(6, len(zero))):
            ref_values, ref_paths = reference_flood(spec, *inflated_box([seed_point, to], k))
            result = propagate(spec, spec.seed, to)
            if to in ref_values:
                assert result.value == ref_values[to] == 0 and result.path == ref_paths[to]
                certified += 1
            else:
                assert not result.ok
    assert zeros > 500 and refused > 100 and certified > 25


def reference_grid_report(ps, spec, window):
    """``grid_compare`` over a table from ``reference_flood``, every window
    point evaluated and looked up."""
    k = spec.arity
    corner_hi = tuple(c + window.size for c in window.corner)
    values, _ = reference_flood(spec, *inflated_box([window.corner, corner_hi, spec.seed[0]], k))
    counts = {"ok": 0, "equal": 0, "no-piece": 0, "d-zero": 0, "blocked": 0, "value-unknown": 0}
    mismatches = []
    for z in window.points():
        outcome = closed_form_eval(ps, z)
        if outcome.status != "ok":
            counts[outcome.status] += 1
        elif z not in values:
            counts["blocked"] += 1
        else:
            counts["ok"] += 1
            if outcome.value == values[z]:
                counts["equal"] += 1
            else:
                mismatches.append(Mismatch(z, outcome.value, values[z]))
    return GridReport(
        counts["ok"],
        counts["equal"],
        counts["no-piece"],
        counts["d-zero"],
        counts["blocked"],
        counts["value-unknown"],
        tuple(mismatches),
    )


def test_grid_compare_matches_reference():
    rng = random.Random(107)
    cases = []
    for spec in random_extended_specs(rng, 8) + list(example_specs().values()):
        k = spec.arity
        ps = build_structure(spec)
        size = 4 if k < 3 else 3
        cases.append((ps, spec, LatticeBox(tuple(x - 2 for x in spec.seed[0]), size)))
        # a window whose corner lies away from the seed, so the flood aimed
        # at it leaves the seed on one side
        offset = tuple(x + rng.choice([-8, -6, -5, 3, 4, 6]) for x in spec.seed[0])
        cases.append((ps, spec, LatticeBox(offset, size)))
    # a structure checked against a flood that may not cross z1 + z2 = 5:
    # closed-form points beyond the line are blocked
    open_spec = scaled_binomial_spec()
    walled = scaled_binomial_spec(MeasureZeroSet.make([Hyperplane.make((1, 1), 5)]))
    cases.append((build_structure(open_spec), walled, LatticeBox((-2, -2), 9)))
    cases.append((build_structure(open_spec), open_spec, LatticeBox((-2, -2), 9)))
    blocked = 0
    for ps, spec, window in cases:
        report = grid_compare(ps, spec, window)
        assert report == reference_grid_report(ps, spec, window)
        blocked += report.blocked
    assert blocked > 10


def structure_mutants(ps):
    """(kind, structure with one field changed): each gamma_i doubled, each
    nonzero base value doubled, each nonconstant chain numerator a(t)
    shifted to a(t + 1), C shifted by each e_i that moves it, and each
    half-space level n of each piece's region moved by +1 (the piece
    shrinks by one level) and by -1 (it grows by one)."""
    form = ps.form
    k = form.arity
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    for i in range(k):
        gamma = list(form.gamma)
        gamma[i] *= 2
        yield "gamma", replace(ps, form=replace(form, gamma=tuple(gamma)))
    for n, piece in enumerate(ps.pieces):
        if piece.base_value:
            pieces = list(ps.pieces)
            pieces[n] = replace(piece, base_value=2 * piece.base_value)
            yield "base value", replace(ps, pieces=tuple(pieces))
    for n, chain in enumerate(form.chains):
        if not chain.num.is_constant:
            chains = list(form.chains)
            chains[n] = replace(chain, num=chain.num.shift_arg(1))
            yield "chain", replace(ps, form=replace(form, chains=tuple(chains)))
    for e in units:
        if form.c_poly.shift(e) != form.c_poly:
            yield "C", replace(ps, form=replace(form, c_poly=form.c_poly.shift(e)))
    for n, piece in enumerate(ps.pieces):
        region = piece.region
        for j, h in enumerate(region.halfspaces):
            for delta in (1, -1):
                halfspaces = list(region.halfspaces)
                halfspaces[j] = HalfSpace(h.v, h.n + delta)
                pieces = list(ps.pieces)
                pieces[n] = replace(piece, region=replace(region, halfspaces=tuple(halfspaces)))
                yield "region", replace(ps, pieces=tuple(pieces))


def mutation_cases():
    """(name, spec, window): the repository specs over their workload
    windows and seeded random forms around their seeds."""
    from conftest import random_form, spec_from_form

    def load(path):
        return spec_from_json(json.loads(path.read_text(encoding="utf-8")))

    cases = [
        ("binomial", load(SPECS_DIR / "binomial.json"), LatticeBox((-8, -8), 16)),
        ("odd", load(SPECS_DIR / "odd.json"), LatticeBox((-30,), 60)),
        ("wedge3d", load(ROOT / "perfbench/specs/wedge3d.json"), LatticeBox((-2, -2, 8), 6)),
        ("flood3d", load(ROOT / "perfbench/specs/flood3d.json"), LatticeBox((-4, -4, -4), 8)),
    ]
    rng = random.Random(11)
    for k in (1, 1, 2, 2, 2, 2, 3, 3):
        spec = spec_from_form(random_form(rng, k), seed=((0,) * k, Fraction(rng.choice([1, -2, 3]))))
        window = LatticeBox((-6,) * k, 12) if k < 3 else LatticeBox((-3,) * k, 6)
        cases.append((f"random k={k}", spec, window))
    return cases


def test_grid_compare_catches_mutants():
    # a structure with one field changed is reported exactly where its value
    # changes at a checked point, with the mutant's own closed-form value;
    # a mutant that breaks a construction guarantee raises IntegrityError in
    # grid_compare as it does point by point, and one whose pieces and
    # excluded hyperplanes no longer cover the window raises it naming the
    # first point left uncovered
    caught, survived = {}, {}
    for name, spec, window in mutation_cases():
        ps = build_structure(spec)
        report = grid_compare(ps, spec, window)
        assert report.clean and report.checked, name
        flood = _window_flood(spec, window)
        oracle = {z: value for z in window.points() if (value := flood.get(z)) is not None}
        checked = {}
        for z in window.points():
            outcome = closed_form_eval(ps, z)
            if outcome.status == "ok" and z in oracle:
                checked[z] = outcome.value
        for kind, mutant in structure_mutants(ps):
            try:
                values = {z: closed_form_eval(replace(mutant), z) for z in window.points()}
            except IntegrityError as exc:
                with pytest.raises(IntegrityError, match=re.escape(str(exc))):
                    grid_compare(replace(mutant), spec, window)
                if kind == "region":
                    # a shrunk piece left window points in no piece and off
                    # every excluded hyperplane; the first of them is named
                    uncovered = next(
                        z
                        for z in window.points()
                        if not any(p.region.contains(z) for p in mutant.pieces)
                        and not mutant.excluded.covers(z)
                    )
                    assert str(exc) == f"the point {uncovered} lies in no piece and on no excluded hyperplane"
                caught[kind] = caught.get(kind, 0) + 1
                continue
            # only a region mutant moves points between pieces, and so
            # between having a value and not
            ok = [z for z in window.points() if values[z].status == "ok" and z in oracle]
            if kind != "region":
                assert ok == list(checked), (name, kind)
            changed = [z for z in ok if values[z].value != oracle[z]]
            report = grid_compare(replace(mutant), spec, window)
            assert report.checked == len(ok), (name, kind)
            assert [m.z for m in report.mismatches] == changed, (name, kind)
            for m in report.mismatches:
                assert m.closed == values[m.z].value and m.oracle == oracle[m.z]
            if changed:
                caught[kind] = caught.get(kind, 0) + 1
            elif any(values[z].value != value for z, value in checked.items()):
                survived[kind] = survived.get(kind, 0) + 1
    assert caught.get("gamma", 0) >= 10 and caught.get("base value", 0) >= 8, caught
    assert caught.get("chain", 0) >= 4 and caught.get("C", 0) >= 4, caught
    # a region level moved by one changes no value the form gives, only
    # which points have one: a grown piece's form holds one level further,
    # and each of the 26 shrunk pieces that lose window points leaves them
    # in no piece and off every excluded hyperplane
    assert caught.get("region", 0) == 26 and not survived, (caught, survived)


def test_compare_exits_1_on_a_mutated_structure(monkeypatch, capsys):
    # gamma_1 doubled halves the binomial off the base point (4, 2) of the
    # piece 0 < z2 < z1 at every step toward z1 = 2
    from hyperterm import cli

    built = build_structure(spec_from_json(json.loads((SPECS_DIR / "binomial.json").read_text())))
    gamma = (2 * built.form.gamma[0],) + built.form.gamma[1:]
    mutant = replace(built, form=replace(built.form, gamma=gamma))
    monkeypatch.setattr(cli, "build_structure", lambda spec: mutant)
    assert cli.main(["compare", str(SPECS_DIR / "binomial.json"), "--window", "0:4,0:4"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["checked"] == 9 and report["equal"] == 6
    assert [(m["z"], m["closed"], m["oracle"]) for m in report["mismatches"]] == [
        ([2, 1], "1/2", "2"),
        ([3, 1], "3/2", "3"),
        ([3, 2], "3/2", "3"),
    ]


def captured_floods(monkeypatch):
    from hyperterm import oracle

    floods = []

    class CapturedFlood(oracle._Flood):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            floods.append(self)

    monkeypatch.setattr(oracle, "_Flood", CapturedFlood)
    return floods


# the most points the window flood, aimed at the window, may reach
WINDOW_FLOOD_REACH = {"wedge3d": 1000, "flood3d": 700}


@pytest.mark.parametrize(
    "name, window, checked, exhaustive",
    [
        # the window lies 7 levels of z3 above the seed (1, 1, 1)
        ("wedge3d", LatticeBox((-2, -2, 8), 6), 301, 12351),
        # flood3d's window holds points of unreachable pieces, never asked
        ("flood3d", LatticeBox((-4, -4, -4), 8), 189, 8125),
    ],
)
def test_grid_compare_flood_stops_early(monkeypatch, name, window, checked, exhaustive):
    spec = spec_from_json(json.loads((ROOT / "perfbench" / "specs" / f"{name}.json").read_text()))
    ps = build_structure(spec)
    floods = captured_floods(monkeypatch)
    report = grid_compare(ps, spec, window)
    assert report.checked == checked and report.blocked == 0
    (flood,) = floods
    values, _ = reference_flood(spec, flood.lo, flood.hi)
    assert len(values) == exhaustive
    assert len(flood.values) <= WINDOW_FLOOD_REACH[name]
    # one unreachable point asked for runs the flood over the whole box
    blocked = next(z for z in box_points(flood.lo, flood.hi) if z not in values)
    assert flood.get(blocked) is None
    assert not queued(flood)
    assert flood.values.keys() == values.keys()


# -- directional walls -----------------------------------------------------------


def repository_spec(path):
    return spec_from_json(json.loads((ROOT / path).read_text()))


def wide_flood(spec, pieces):
    """A flood out of the seed over the build flood's box widened by 10."""
    lo, hi = _box(spec, [p.base_point for p in pieces])
    return _Flood(spec, tuple(x - 10 for x in lo), tuple(x + 10 for x in hi))


@pytest.mark.parametrize(
    "path, walls, unknowns",
    [
        # A_1 = z1 + 1 vanishes on z1 = -1
        ("specs/binomial.json", [HalfSpace.make((1, 0), -1)], 3),
        ("specs/odd.json", [], 0),
        # A_1 and A_3 carry z1 + z3 + 1, which vanishes on z1 + z3 = -1
        ("perfbench/specs/wedge3d.json", [HalfSpace.make((1, 0, 1), -1)], 1),
        ("perfbench/specs/flood3d.json", [HalfSpace.make((1, 0, 0), -1)], 3),
    ],
)
def test_walls_of_the_repository_specs(path, walls, unknowns):
    spec = repository_spec(path)
    assert list(_walls(spec)) == walls
    pieces = build_structure(spec).pieces
    unknown = [p for p in pieces if p.base_value is None]
    # every unknown piece lies behind the one wall, and names it
    assert len(unknown) == unknowns
    for piece in unknown:
        assert piece.wall == walls[0] and not piece.wall.contains(piece.base_point)
    # a flood 10 wider than the build's reaches no walled base point
    wide = wide_flood(spec, pieces)
    assert all(wide.get(p.base_point) is None for p in unknown)


def test_wall_of_an_exception_plane():
    # the exception z1 = -3 refuses the backward step into z1 = -3, and no
    # generator side vanishes anywhere
    spec = replace(load_spec("odd"), exceptions=MeasureZeroSet.make([Hyperplane.make((1,), -3)]))
    assert _walls(spec) == (HalfSpace.make((1,), -3),)
    behind, ahead = build_structure(spec).pieces
    assert behind.base_point == (-6,) and behind.base_value is None
    assert behind.wall == HalfSpace.make((1,), -3)
    assert ahead.base_value == -1 and ahead.wall is None
    # a seed behind the plane is walled in from the other side
    spec = spec.with_seed((-5,), 1)
    assert _walls(spec) == (HalfSpace.make((-1,), 2),)
    assert propagate_targets(spec, [(-3,), (-4,), (-6,), (-2,)]) == (
        [63, -9, Fraction(-1, 11), None],
        [None, None, None, HalfSpace.make((-1,), 2)],
    )


def test_walls_are_sound_on_random_specs():
    """No walled base point is reached by a flood 10 wider than the build's,
    and no reached piece is walled, on random forms with random seeds,
    half of them with random exception planes.  The forms have k <= 2: at
    k = 3 one flood over a box 10 wider runs up to seconds, so the k = 3
    walls are checked on the repository specs above."""
    from conftest import random_form, spec_from_form

    rng = random.Random(109)
    walled = unknown = 0
    for k in [1, 2] * 80:
        seed_point = tuple(rng.randint(-3, 3) for _ in range(k))
        spec = spec_from_form(random_form(rng, k), seed=(seed_point, Fraction(rng.choice([1, -2, 3]))))
        if rng.random() < 0.5:
            normals = [tuple(rng.randint(-1, 1) for _ in range(k)) for _ in range(rng.randint(1, 2))]
            planes = [Hyperplane.make(v, rng.randint(-4, 4)) for v in normals if any(v)]
            spec = replace(spec, exceptions=MeasureZeroSet.make(planes))
        ps = build_structure(spec)
        wide = wide_flood(spec, ps.pieces)
        walls = _walls(spec)
        for piece in ps.pieces:
            if piece.wall is not None:
                walled += 1
                assert piece.base_value is None and piece.wall in walls
                assert wide.get(piece.base_point) is None
            if piece.base_value is None:
                unknown += 1
            else:
                assert piece.wall is None and all(h.contains(piece.base_point) for h in walls)
                assert wide.get(piece.base_point) == piece.base_value
    assert walled > 100 and walled > 0.9 * unknown


def test_build_flood_stops_at_the_last_reachable_base_point(monkeypatch):
    spec = repository_spec("perfbench/specs/wedge3d.json")
    floods = captured_floods(monkeypatch)
    ps = build_structure(spec)
    (flood,) = floods
    # the base point (0, 0, -21) lies behind z1 + z3 >= 0 and is not asked for;
    # asking it would run the whole box, 6,318 points
    assert [p.base_point for p in ps.pieces if p.wall is not None] == [(0, 0, -21)]
    # the flood is aimed at the other one, (0, 0, 10), and walks up to it:
    # 55 points, where breadth first it held 1,070
    assert (flood.glo, flood.ghi) == ((0, 0, 10), (0, 0, 10))
    assert len(flood.values) <= 200 and queued(flood)
