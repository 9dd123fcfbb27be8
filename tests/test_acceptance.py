"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Each test prints a PASS line on success (visible with ``pytest -s`` or in
the captured output) and enforces its runtime budget.
"""

import itertools
import random
import time
from fractions import Fraction

import pytest

from conftest import example_specs, load_spec, random_form, spec_from_form
from hyperterm.errors import SplittingError
from hyperterm.geometry import (
    HalfSpace,
    Hyperplane,
    LatticeBox,
    PolyhedralRegion,
    arrangement,
    erode,
    hull_points,
    s_path,
)
from hyperterm.oracle import _box_flood, grid_compare, propagate
from hyperterm.oresato import decompose, ratio_from_form
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import (
    MultiPoly,
    UniPoly,
    detect_simple,
    find_nonzero_in_box,
    integer_roots,
)
from hyperterm.structure import (
    FactorialChain,
    FactorialForm,
    build_structure,
    closed_form_eval,
    factorial_eval,
    pochhammer_eval,
    split_factorial,
    to_pochhammer,
)
from hyperterm.termratio import (
    FactoredRational,
    TermSpec,
    check_compatibility,
    compose_direction,
)


def _report(n, label, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"[acceptance] criterion {n} ({label}): PASS in {elapsed:.1f}s")
    assert elapsed < budget, f"criterion {n} exceeded its {budget}s budget"


def _units(k):
    return [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]


def _random_specs(rng, count):
    specs = []
    while len(specs) < count:
        k = rng.choice([1, 2, 2, 3])
        specs.append(spec_from_form(random_form(rng, k)))
    return specs


def test_criterion_1_cocycle_suite():
    t0 = time.monotonic()
    rng = random.Random(101)
    for spec in example_specs().values():
        assert check_compatibility(spec)
    compatible = _random_specs(rng, 20)
    for spec in compatible:
        assert check_compatibility(spec)
    # perturbing one generator by a factor the other axis cannot balance
    broken = 0
    while broken < 20:
        form = random_form(rng, 2)
        spec = spec_from_form(form)
        c = rng.randint(-3, 3)
        extra = FactoredRational.from_poly(parse_multipoly(f"z2 + {c}" if c >= 0 else f"z2 - {-c}", 2))
        ratios = spec.ratios()
        perturbed = TermSpec.from_ratios(2, [ratios[0] * extra, ratios[1]])
        assert not check_compatibility(perturbed)
        broken += 1
    _report(1, "cocycle suite", t0, 10)


def test_criterion_2_decomposition_round_trip():
    t0 = time.monotonic()
    rng = random.Random(103)
    specs = list(example_specs().values()) + _random_specs(rng, 20)
    for spec in specs:
        form = decompose(spec)
        k = spec.arity
        for i, e in enumerate(_units(k)):
            assert ratio_from_form(form, e).eq_rational(spec.ratios()[i])
        for _ in range(50):
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            assert ratio_from_form(form, w).eq_rational(compose_direction(spec, w))
    _report(2, "decomposition round trip", t0, 30)


def test_criterion_3_piecewise_structure_end_to_end():
    t0 = time.monotonic()
    for name, spec in example_specs().items():
        ps = build_structure(spec)
        window = LatticeBox((-8,) * spec.arity, 16)
        report = grid_compare(ps, spec, window)
        assert report.mismatches == (), f"{name}: {report.mismatches}"
        assert report.checked > 0
        # every window point lies in exactly one piece or on the cover
        for z in window.points():
            hits = sum(1 for p in ps.pieces if p.region.contains(z))
            assert hits <= 1
            if hits == 0:
                assert ps.excluded.covers(z)
    # the two-case generalized product value at a negative argument
    ps = build_structure(load_spec("odd"))
    assert closed_form_eval(ps, (-2,)).value == Fraction(1, 3)
    assert closed_form_eval(ps, (3,)).value == 15
    _report(3, "piecewise structure end to end", t0, 60)


def test_criterion_4_factorial_split():
    t0 = time.monotonic()
    for name, spec in example_specs().items():
        ps = build_structure(spec)
        forms = split_factorial(ps)
        window = LatticeBox((-8,) * spec.arity, 16)
        for z in window.points():
            outcome = closed_form_eval(ps, z)
            if outcome.status != "ok":
                continue
            for ff in forms:
                if ff.region.contains(z):
                    assert factorial_eval(ff, z) == outcome.value
    # the odd-product pieces are exactly {z1 >= 0} and {z1 < 0}
    forms = split_factorial(build_structure(load_spec("odd")))
    assert len(forms) == 2
    nonneg = next(ff for ff in forms if ff.region.contains((0,)))
    neg = next(ff for ff in forms if not ff.region.contains((0,)))
    for z in range(-12, 13):
        assert nonneg.region.contains((z,)) == (z >= 0)
        assert neg.region.contains((z,)) == (z < 0)
    _report(4, "factorial split", t0, 60)


def test_criterion_5_pochhammer_form():
    t0 = time.monotonic()
    # the odd product f(z1) = 1 * 3 * ... * (2 z1 - 1) = 2^{z1} (1/2)_{z1};
    # with base point 0 its chain is prod (2j - 1), a shift of the
    # prod (2j + 1) = 2^{z1} (3/2)_{z1} display, and the emitted data is the
    # power base 2 with a half-integer rising factorial
    forms = split_factorial(build_structure(load_spec("odd")))
    nonneg = next(ff for ff in forms if ff.region.contains((1,)))
    pf = to_pochhammer(nonneg)
    assert pf.gamma == (Fraction(2),)
    assert [e.base for e in pf.numerator] == [Fraction(1, 2)]
    assert not pf.denominator
    from hyperterm.structure import rising_factorial

    for z in range(0, 11):
        expected = Fraction(2) ** z * rising_factorial(Fraction(1, 2), z)
        assert pochhammer_eval(pf, (z,)) == expected
    # every example factorial form converts and agrees exactly
    for name, spec in example_specs().items():
        ps = build_structure(spec)
        for ff in split_factorial(ps):
            pf = to_pochhammer(ff)
            count = 0
            for z in LatticeBox((-8,) * spec.arity, 16).points():
                if not ff.region.contains(z):
                    continue
                fv = factorial_eval(ff, z)
                if fv is None:
                    continue
                assert pochhammer_eval(pf, z) == fv
                count += 1
            assert count > 0
    # irreducible chain polynomials are a documented failure
    bad = FactorialForm(
        PolyhedralRegion.whole(1),
        (Fraction(1),),
        Fraction(1),
        MultiPoly.constant(1, 1),
        MultiPoly.constant(1, 1),
        (FactorialChain((1,), parse_unipoly("t^2 + 1"), UniPoly.constant(1), 0),),
    )
    with pytest.raises(SplittingError):
        to_pochhammer(bad)
    _report(5, "Pochhammer form", t0, 60)


def test_criterion_6_geometry_suite():
    t0 = time.monotonic()
    rng = random.Random(107)

    # erosion: removed points are covered, kept points carry their box
    for _ in range(15):
        k = rng.randint(1, 2)
        halves = []
        for _ in range(rng.randint(1, 3)):
            v = tuple(rng.randint(-2, 2) for _ in range(k))
            if any(v):
                halves.append(HalfSpace.make(v, rng.randint(-3, 3)))
        if not halves:
            continue
        r = PolyhedralRegion.make(k, halves)
        n = rng.randint(0, 2)
        shrunk, cover = erode(r, n)
        for z in itertools.product(range(-5, 6), repeat=k):
            if shrunk.contains(z):
                assert all(
                    r.contains(p) for p in LatticeBox(z, n).points()
                )
            elif r.contains(z):
                assert cover.covers(z)

    # arrangement: exact partition off the hyperplanes
    planes = [
        Hyperplane.make((1, 0), 0),
        Hyperplane.make((0, 1), -1),
        Hyperplane.make((1, -1), 0),
        Hyperplane.make((1, 1), 2),
    ]
    cells = arrangement(planes, 2)
    for z in itertools.product(range(-5, 6), repeat=2):
        hits = sum(1 for c in cells if c.contains(z))
        if any(p.contains(z) for p in planes):
            assert hits == 0
        else:
            assert hits == 1

    # s_path: returned paths obey the step and membership contracts
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1), (1, 1)]
    region = PolyhedralRegion.make(2, [HalfSpace.make((1, 1), -5)])
    for _ in range(20):
        a = (rng.randint(-2, 4), rng.randint(-2, 4))
        b = (rng.randint(-2, 4), rng.randint(-2, 4))
        if not (region.contains(a) and region.contains(b)):
            continue
        path = s_path(a, b, region, steps)
        assert path is not None
        assert path[0] == a and path[-1] == b
        for p, q in zip(path, path[1:]):
            assert region.contains(q)
            assert tuple(y - x for x, y in zip(p, q)) in steps

    # hull connectivity: 100 random box pairs, k <= 3
    unit_steps = lambda k: [
        tuple(s if j == i else 0 for j in range(k))
        for i in range(k)
        for s in (1, -1)
    ]
    for _ in range(100):
        k = rng.randint(1, 3)
        c0 = tuple(rng.randint(-6, 6) for _ in range(k))
        c1 = tuple(rng.randint(-6, 6) for _ in range(k))
        member = hull_points(LatticeBox(c0, 1), LatticeBox(c1, 1))
        lo = [min(a, b) for a, b in zip(c0, c1)]
        hi = [max(a, b) + 1 for a, b in zip(c0, c1)]
        members = {
            z
            for z in itertools.product(
                *[range(a, b + 1) for a, b in zip(lo, hi)]
            )
            if member(z)
        }
        assert set(LatticeBox(c0, 1).points()) <= members
        seen = {c0}
        frontier = [c0]
        while frontier:
            node = frontier.pop()
            for s in unit_steps(k):
                nb = tuple(x + y for x, y in zip(node, s))
                if nb in members and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == members

    # a nonzero polynomial of total degree n has a nonzero point in any
    # box of size n
    for _ in range(40):
        k = rng.randint(1, 3)
        d = {}
        for _ in range(4):
            mono = [0] * k
            for _ in range(rng.randint(0, 3)):
                mono[rng.randrange(k)] += 1
            d[tuple(mono)] = Fraction(rng.randint(-5, 5))
        p = MultiPoly.from_dict(k, d)
        if p.is_zero:
            continue
        corner = tuple(rng.randint(-5, 5) for _ in range(k))
        z = find_nonzero_in_box(p, corner, p.total_degree())
        assert z is not None and p.evaluate(z) != 0

    # zeros of a simple polynomial lie on integer-root hyperplanes
    for text, k in [("z1 - z2", 2), ("z1^2 - 4*z1*z2 + 4*z2^2 - 1", 2), ("2*z1 + 2*z2 + 2", 2)]:
        p = parse_multipoly(text, k)
        v, profile = detect_simple(p)
        levels = set(integer_roots(profile))
        for z in itertools.product(range(-10, 11), repeat=k):
            if p.evaluate(z) == 0:
                assert sum(a * b for a, b in zip(v, z)) in levels
    _report(6, "geometry suite", t0, 30)


def test_criterion_7_oracle_consistency():
    t0 = time.monotonic()
    rng = random.Random(109)
    for spec in example_specs().values():
        k = spec.arity
        seed_point, seed_value = spec.seed
        for _ in range(100):
            w = tuple(rng.randint(-5, 5) for _ in range(k))
            target = tuple(a + b for a, b in zip(seed_point, w))
            base = propagate(spec, spec.seed, target)
            # a flood aimed at a random goal box expands its points in
            # another order, which must not change derived values
            corners = [[x + rng.randint(-8, 8) for x in seed_point] for _ in range(2)]
            goal = tuple(map(min, zip(*corners))), tuple(map(max, zip(*corners)))
            other = _box_flood(spec, [target], goal=goal).get(target)
            assert base.ok == (other is not None)
            if base.ok:
                assert base.value == other
            # agreement with the symbolic term ratio where it is defined
            symbolic = compose_direction(spec, w).evaluate(seed_point)
            if symbolic is not None and base.ok:
                assert base.value == seed_value * symbolic
    _report(7, "oracle consistency", t0, 60)
