import itertools
import json
import math
import operator
import random
import re
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import example_specs, load_spec
from hyperterm._frozen import replace
from hyperterm.errors import (
    DimensionError,
    IntegrityError,
    LimitError,
    PreconditionError,
    SplittingError,
    WitnessError,
    ZeroTermError,
)
from hyperterm.geometry import (
    HalfSpace,
    Hyperplane,
    LatticeBox,
    MeasureZeroSet,
    PolyhedralRegion,
    region_sample,
    s_path,
)
from hyperterm.jsonio import spec_from_json
from hyperterm.oracle import grid_compare, propagate, propagate_targets
from hyperterm.oresato import Chain, OreSatoForm, gp_eval
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import MultiPoly, UniPoly, integer_roots
from hyperterm.structure import (
    EvalOutcome,
    FactorialChain,
    FactorialForm,
    Piece,
    PiecewiseStructure,
    _chain_zero_hyperplanes,
    _row_runs,
    build_structure,
    closed_form_eval,
    factorial_eval,
    pochhammer_eval,
    rising_factorial,
    split_factorial,
    to_pochhammer,
)
from hyperterm.termratio import ARITY_LIMIT, TermSpec


@pytest.fixture(scope="module")
def odd_structure():
    return build_structure(load_spec("odd"))


@pytest.fixture(scope="module")
def binomial_structure():
    return build_structure(load_spec("binomial"))


# -- build_structure ------------------------------------------------------------


def test_odd_structure_single_piece(odd_structure):
    ps = odd_structure
    assert len(ps.pieces) == 1
    piece = ps.pieces[0]
    assert piece.region == PolyhedralRegion.whole(1)
    assert piece.base_value is not None
    assert len(ps.excluded) == 0
    assert ps.form.c_poly.evaluate(piece.base_point) != 0
    assert ps.form.d_poly.evaluate(piece.base_point) != 0


def test_odd_structure_closed_form(odd_structure):
    # oracle: the running product of odd numbers, and the reciprocal case
    ps = odd_structure
    assert closed_form_eval(ps, (3,)).value == 15
    assert closed_form_eval(ps, (-2,)).value == Fraction(1, 3)
    spec = load_spec("odd")
    for z in range(-8, 9):
        outcome = closed_form_eval(ps, (z,))
        assert outcome.status == "ok"
        oracle = propagate(spec, spec.seed, (z,))
        assert oracle.ok and oracle.value == outcome.value


def test_zero_divisor_structure():
    spec = load_spec("annihilated")
    ps = build_structure(spec)
    assert ps.form.c_poly.is_constant
    assert ps.form.d_poly == spec.zero_divisor_witness.normalized()[1]
    assert ps.form.chains == ()
    assert len(ps.pieces) == 1
    piece = ps.pieces[0]
    assert piece.region == PolyhedralRegion.whole(1)
    assert piece.base_value == 0
    for z in range(-6, 7):
        outcome = closed_form_eval(ps, (z,))
        if z == 0:
            assert outcome.status == "d-zero"
        else:
            assert outcome.value == 0


def test_a_seed_refutes_a_wrong_zero_divisor_witness():
    # a nonzero value off p = 0, at the seed or one step from it, refutes
    # the witness p; a step is refused where the flood refuses it
    binomial = replace(load_spec("binomial"), zero_divisor_witness=parse_multipoly("z1", 2))
    with pytest.raises(WitnessError, match=r"witness z1 is refuted: the term is 1 at \(1, 0\), off its zero set$"):
        build_structure(binomial)
    annihilated = load_spec("annihilated")
    with pytest.raises(WitnessError, match=r"the term is 3/2 at \(2,\)"):
        build_structure(annihilated.with_seed((2,), Fraction(3, 2)))
    # with the plane z1 = 0 declared an exception, each step from (0, 0) is
    # evaluated on it or divides by A_1(-1, 0) = 0, so none refutes z1
    walled = replace(binomial, exceptions=MeasureZeroSet.make([Hyperplane.make((1, 0), 0)]))
    assert build_structure(walled).pieces[0].base_value == 0
    # annihilated's steps from f(0) = 1 give 0 both ways
    assert build_structure(annihilated).pieces[0].base_value == 0


def test_the_witness_check_runs_at_every_arity_the_loader_accepts():
    # generators z_i + 1 over 1 at k = ARITY_LIMIT: the step from f(0) = 1
    # along e_1 refutes z1, and with f(0) = 0 the one piece is built; one
    # flood over the seed and every seed -+ e_i would hold 39^8 points
    k = ARITY_LIMIT
    obj = {
        "k": k,
        "generators": [{"num": f"z{i + 1} + 1", "den": "1"} for i in range(k)],
        "seed": {"point": [0] * k, "value": "1"},
        "zero_divisor_witness": "z1",
    }
    spec = spec_from_json(obj)
    with pytest.raises(WitnessError, match=re.escape("the term is 1 at (1, 0, 0, 0, 0, 0, 0, 0), off")):
        build_structure(spec)
    steps = [tuple(s * (j == i) for j in range(k)) for i in range(k) for s in (-1, 1)]
    with pytest.raises(LimitError, match="holds 5352009260481 points"):
        propagate_targets(spec, steps)
    obj["seed"]["value"] = "0"
    ps = build_structure(spec_from_json(obj))
    assert [p.base_value for p in ps.pieces] == [0]


def test_structure_requires_seed():
    spec = load_spec("binomial")
    from hyperterm.termratio import TermSpec

    no_seed = TermSpec(spec.arity, spec.generators, spec.exceptions, None)
    with pytest.raises(PreconditionError):
        build_structure(no_seed)


def test_structure_missing_base_box_raises(monkeypatch):
    # find_box succeeds on every region that is not measure zero, so a
    # cell without a base box is a construction bug, not a cell to drop
    from hyperterm import structure

    monkeypatch.setattr(structure, "find_box", lambda r, size: None)
    with pytest.raises(IntegrityError, match="no base box"):
        build_structure(load_spec("binomial"))


def test_binomial_partition(binomial_structure):
    # every lattice point lies in exactly one piece or on a hyperplane of H
    ps = binomial_structure
    for z in itertools.product(range(-6, 7), repeat=2):
        hits = sum(1 for p in ps.pieces if p.region.contains(z))
        if hits == 0:
            assert ps.excluded.covers(z), f"{z} is uncovered"
        else:
            assert hits == 1, f"{z} lies in {hits} pieces"


def test_binomial_base_points_valid(binomial_structure):
    ps = binomial_structure
    cd = ps.form.c_poly * ps.form.d_poly
    for piece in ps.pieces:
        assert piece.region.contains(piece.base_point)
        assert cd.evaluate(piece.base_point) != 0


def test_binomial_grid_compare(binomial_structure):
    report = grid_compare(binomial_structure, load_spec("binomial"), LatticeBox((-6, -6), 12))
    assert report.mismatches == ()
    assert report.checked > 50
    # the closed form matches the classical binomial where both are defined
    ps = binomial_structure
    for z1 in range(0, 7):
        for z2 in range(0, 7):
            outcome = closed_form_eval(ps, (z1, z2))
            if outcome.status == "ok":
                assert outcome.value == math.comb(z1, z2)


def test_grid_compare_odd(odd_structure):
    report = grid_compare(odd_structure, load_spec("odd"), LatticeBox((-8,), 16))
    assert report.checked == 17
    assert report.equal == 17
    assert report.mismatches == ()


def test_grid_compare_constant():
    ps = build_structure(load_spec("constant"))
    report = grid_compare(ps, load_spec("constant"), LatticeBox((-8,), 16))
    assert report.checked == 17 and report.mismatches == ()


def test_grid_compare_zero_divisor():
    spec = load_spec("annihilated")
    ps = build_structure(spec)
    report = grid_compare(ps, spec, LatticeBox((-6,), 12))
    assert report.mismatches == ()
    assert report.d_zero == 1  # the support line z1 = 0
    assert report.checked == 12


def test_structure_with_scalar_ratio():
    # f(z1) = (-3)^{z1} * prod of odd numbers: the per-axis scalar flows
    # through the closed form, the factorial split, and the rewrite
    from hyperterm.parsing import parse_multipoly
    from hyperterm.termratio import TermSpec

    spec = TermSpec.make(
        1,
        [(parse_multipoly("-6*z1 - 3", 1), parse_multipoly("1", 1))],
        seed=((0,), Fraction(1)),
    )
    ps = build_structure(spec)
    assert ps.form.gamma == (Fraction(-3),)
    report = grid_compare(ps, spec, LatticeBox((-8,), 16))
    assert report.checked == 17 and report.mismatches == ()
    assert closed_form_eval(ps, (2,)).value == 9 * 1 * 3
    assert closed_form_eval(ps, (-1,)).value == Fraction(1, -3 * -1)
    for ff in split_factorial(ps):
        pf = to_pochhammer(ff)
        for z in range(-8, 9):
            if not ff.region.contains((z,)):
                continue
            expected = closed_form_eval(ps, (z,)).value
            assert factorial_eval(ff, (z,)) == expected
            assert pochhammer_eval(pf, (z,)) == expected


def test_structure_of_extended_term():
    # the constant term restricted to {z1 > 0} and extended by zero: the
    # certificate hyperplane enters H, the support side carries value 1,
    # and the far side is genuinely undetermined by the seed
    from hyperterm.geometry import HalfSpace
    from hyperterm.termratio import extend_by_zero

    support = PolyhedralRegion.make(1, [HalfSpace.make((1,), 0)])
    spec = extend_by_zero(load_spec("constant").with_seed((1,), 1), support)
    ps = build_structure(spec)
    assert ps.excluded.covers((0,))
    right = next(p for p in ps.pieces if p.region.contains((3,)))
    assert right.base_value == 1
    left = next(p for p in ps.pieces if p.region.contains((-3,)))
    assert left.base_value is None
    for z in range(1, 9):
        assert closed_form_eval(ps, (z,)).value == 1
    report = grid_compare(ps, spec, LatticeBox((-8,), 16))
    assert report.mismatches == ()
    assert report.value_unknown > 0


def test_structure_three_variables():
    # f(z1, z2, z3) = choose(z1, z2) * 3^{z3}: chains in three lifted
    # directions plus a per-axis scalar
    from hyperterm.parsing import parse_multipoly
    from hyperterm.termratio import TermSpec

    P = lambda t: parse_multipoly(t, 3)
    spec = TermSpec.make(
        3,
        [
            (P("z1 + 1"), P("z1 + 1 - z2")),
            (P("z1 - z2"), P("z2 + 1")),
            (P("3"), P("1")),
        ],
        seed=((0, 0, 0), Fraction(1)),
    )
    ps = build_structure(spec)
    assert ps.form.gamma == (Fraction(1), Fraction(1), Fraction(3))
    report = grid_compare(ps, spec, LatticeBox((-4, -4, -4), 8))
    assert report.mismatches == ()
    assert report.checked > 100
    got = closed_form_eval(ps, (4, 2, 1))
    assert got.value == math.comb(4, 2) * 3


def test_structure_extended_wedge_binomial():
    # the binomial restricted to its support wedge and extended by zero;
    # seeded off the certificate hyperplanes the support interior compares
    # exactly, and the regions behind the exception walls are reported
    # unknown (they are genuinely undetermined by the quotients and seed)
    from hyperterm.termratio import extend_by_zero

    wedge = PolyhedralRegion.make(
        2,
        [
            HalfSpace.make((1, 0), -1),
            HalfSpace.make((0, 1), -1),
            HalfSpace.make((1, -1), -1),
        ],
    )
    spec = extend_by_zero(load_spec("binomial"), wedge).with_seed((2, 1), 2)
    ps = build_structure(spec)
    report = grid_compare(ps, spec, LatticeBox((-6, -6), 12))
    assert report.mismatches == ()
    assert report.checked == 15  # wedge interior off the hyperplane net
    assert report.value_unknown > 0
    for z1 in range(-6, 7):
        for z2 in range(-6, 7):
            got = closed_form_eval(ps, (z1, z2))
            if got.status != "ok":
                continue
            inside = z1 >= 0 and 0 <= z2 <= z1
            want = Fraction(math.comb(z1, z2)) if inside else Fraction(0)
            assert got.value == want


def test_structure_binomial_with_denominator():
    # binomial divided by the non-simple D = z1*z2 + 1: total degree 2, so
    # cells are eroded and the hyperplane net is wide; values must still
    # agree with propagation wherever both sides are defined
    from hyperterm.parsing import parse_multipoly
    from hyperterm.termratio import FactoredRational, TermSpec

    d = parse_multipoly("z1*z2 + 1", 2)
    base = load_spec("binomial")
    ratios = []
    for i, e in enumerate([(1, 0), (0, 1)]):
        extra = FactoredRational.make(2, 1, [(d, 1), (d.shift(e), -1)])
        ratios.append(base.ratios()[i] * extra)
    spec = TermSpec.from_ratios(2, ratios, seed=((0, 0), Fraction(1)))
    ps = build_structure(spec)
    assert ps.form.d_poly == d
    report = grid_compare(ps, spec, LatticeBox((-16, -16), 40))
    assert report.mismatches == ()
    assert report.checked > 200


def test_structure_random_forms_end_to_end():
    # random decompositions with nontrivial C and D exercise the erosion
    # path (degree > 0) and base-point search; the closed form must agree
    # with propagation everywhere both are defined
    from conftest import random_form, spec_from_form

    rng = random.Random(79)
    done = 0
    while done < 8:
        k = rng.choice([1, 2])
        form = random_form(rng, k)
        spec = spec_from_form(form, seed=((0,) * k, Fraction(1)))
        ps = build_structure(spec)
        window = LatticeBox((-6,) * k, 12)
        report = grid_compare(ps, spec, window)
        assert report.mismatches == (), (form, report.mismatches)
        # partition: unique piece or covered
        for z in window.points():
            hits = sum(1 for p in ps.pieces if p.region.contains(z))
            assert hits <= 1
            if hits == 0:
                assert ps.excluded.covers(z)
        for ff in split_factorial(ps):
            pf = to_pochhammer(ff)
            for z in window.points():
                if not ff.region.contains(z):
                    continue
                outcome = closed_form_eval(ps, z)
                if outcome.status != "ok":
                    continue
                assert factorial_eval(ff, z) == outcome.value
                assert pochhammer_eval(pf, z) == outcome.value
        done += 1


def single_flood_specs():
    """The constant example, specs/*.json, which hold the other two
    examples, perfbench/specs/*.json and 30 seeded random forms, k = 1..3."""
    from conftest import random_form, spec_from_form

    root = Path(__file__).resolve().parent.parent
    specs = [load_spec("constant")]
    for path in sorted(root.glob("specs/*.json")) + sorted(root.glob("perfbench/specs/*.json")):
        specs.append(spec_from_json(json.loads(path.read_text(encoding="utf-8"))))
    rng = random.Random(89)
    for _ in range(30):
        k = rng.choice([1, 2, 2, 3])
        specs.append(spec_from_form(random_form(rng, k), seed=((0,) * k, Fraction(1))))
    return specs


def test_single_build_flood_never_loses_a_piece():
    # the build's one flood covers the window of every per-piece propagate,
    # so a piece that call reaches keeps its value, and a piece may become
    # known, never unknown
    pieces = 0
    for spec in single_flood_specs():
        for piece in build_structure(spec).pieces:
            single = propagate(spec, spec.seed, piece.base_point)
            if single.ok:
                assert piece.base_value == single.value, (spec, piece)
            pieces += 1
    assert pieces >= 60


def test_build_decides_measure_zero_once_per_cell(monkeypatch):
    # erosion cannot turn a cell that is not measure zero into one that is,
    # so the eroded cell is never tested again
    from hyperterm import structure

    cells, calls = [], []
    arrangement, is_measure_zero = structure.arrangement, structure.is_measure_zero

    def counted_arrangement(planes, arity):
        out = arrangement(planes, arity)
        cells.extend(out)
        return out

    def counted_is_measure_zero(r):
        out = is_measure_zero(r)
        calls.append((r, out[0]))
        return out

    monkeypatch.setattr(structure, "arrangement", counted_arrangement)
    monkeypatch.setattr(structure, "is_measure_zero", counted_is_measure_zero)
    # two parallel exception planes two apart leave the line z1 = 1 between
    # them: cells on it are measure zero
    walls = MeasureZeroSet.make([Hyperplane.make((1, 0), 0), Hyperplane.make((1, 0), 2)])
    outcomes = set()
    for spec in [load_spec("binomial"), replace(load_spec("binomial"), exceptions=walls)]:
        cells.clear()
        calls.clear()
        build_structure(spec)
        assert [r for r, _ in calls] == cells
        outcomes |= {mz for _, mz in calls}
    assert outcomes == {True, False}


def test_build_runs_one_flood(monkeypatch):
    from hyperterm import oracle

    floods = []

    class CountedFlood(oracle._Flood):
        def __init__(self, *args, **kwargs):
            floods.append(args)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(oracle, "_Flood", CountedFlood)
    for spec in single_flood_specs()[:8]:
        floods.clear()
        ps = build_structure(spec)
        assert len(floods) == 1
        _, lo, hi = floods[0]
        # the one window holds the seed and every base point
        for z in [spec.seed[0]] + [p.base_point for p in ps.pieces]:
            assert all(a <= x <= b for x, a, b in zip(z, lo, hi))


def step_set(d, k):
    """Differences of size-d boxes around the origin and size-d boxes around
    the unit steps; always contains the unit steps themselves.  Its v.w
    range is the reference for the reach in _chain_zero_hyperplanes."""
    s0 = set(itertools.product(range(-d, d + 1), repeat=k))
    s1 = set()
    for s in s0:
        for i in range(k):
            for sign in (1, -1):
                s1.add(tuple(x + (sign if j == i else 0) for j, x in enumerate(s)))
    return sorted({tuple(a - b for a, b in zip(x, y)) for x in s0 for y in s1})


def step_set_hyperplanes(form, steps):
    """The chain-zero hyperplanes from the min and max of v.w over steps."""
    planes = []
    for chain in form.chains:
        v = chain.direction
        products = [sum(a * b for a, b in zip(v, w)) for w in steps]
        lo = min(0, min(products, default=0))
        hi = max(0, max(products, default=0))
        roots = set(integer_roots(chain.num)) | set(integer_roots(chain.den))
        for r in roots:
            for j in range(lo, hi):
                planes.append(Hyperplane.make(v, r - j))
    return planes


def test_chain_zero_hyperplanes_match_step_set():
    # the closed-form reach 2 d |v|_1 + |v|_inf gives the planes the step
    # set enumeration gave, for the conftest directions and steeper ones
    from conftest import DIRECTIONS

    steep = {1: [(3,), (-2,)], 2: [(3, -2), (5, 3), (-1, 4)], 3: [(2, -3, 1), (5, 3, 0)]}
    num = parse_unipoly("(t + 1)*(t - 2)*(2*t + 1)")
    den = parse_unipoly("t + 5")
    for k in (1, 2, 3):
        directions = DIRECTIONS[k] + steep[k]
        chains = tuple(Chain(v, num, den) for v in directions)
        one = MultiPoly.constant(k, 1)
        form = OreSatoForm(k, one, one, (Fraction(1),) * k, chains)
        for d in range(5):
            got = _chain_zero_hyperplanes(form, d)
            want = step_set_hyperplanes(form, step_set(d, k))
            assert sorted(got) == sorted(want), (k, d)


def spread_samples(region):
    """A handful of integer points spread across the region: one sample,
    then one beyond it by at least 4 along each signed axis."""
    first = region_sample(region)
    if first is None:
        return []
    points = [first]
    k = region.arity
    for i in range(k):
        for sign in (1, -1):
            v = tuple(sign if j == i else 0 for j in range(k))
            level = sum(a * b for a, b in zip(v, first)) + 4
            extra = region_sample(region.intersect(HalfSpace.make(v, level)))
            if extra is not None and extra not in points:
                points.append(extra)
    return points


def test_pieces_are_unit_step_connected():
    # the hull lemma, searched for: the base point of every piece reaches
    # points spread across the piece by unit steps inside it; build_structure
    # relies on this without checking it (d = 0 pairs included)
    from conftest import random_form, spec_from_form

    rng = random.Random(89)
    pairs = eroded = 0
    for k in [1] * 4 + [2] * 12 + [3] * 4:
        form = random_form(rng, k)
        spec = spec_from_form(form, seed=((0,) * k, Fraction(1)))
        ps = build_structure(spec)
        d = form.c_poly.total_degree() + form.d_poly.total_degree()
        units = [tuple(s if j == i else 0 for j in range(k)) for i in range(k) for s in (1, -1)]
        for piece in ps.pieces:
            for z in spread_samples(piece.region):
                path = s_path(piece.base_point, z, piece.region, units, margin=2 * d + 2)
                assert path is not None, (form, piece.base_point, z)
                pairs += 1
                eroded += d >= 1
    assert eroded >= 100 and pairs - eroded >= 20, (pairs, eroded)


def test_thin_wedges_at_degree_zero_keep_their_points():
    # d = 0: f = 2^z1 3^z2 with the exception planes 5 z1 = 4 z2 and
    # 4 z1 = 3 z2, whose wedge is thin; its lattice points are not all
    # joined by unit steps inside it, yet the closed form agrees with the
    # oracle there, so the cells are kept whole and nothing else is excluded
    one = MultiPoly.constant(2, 1)
    walls = [Hyperplane.make((5, -4), 0), Hyperplane.make((4, -3), 0)]
    spec = TermSpec.make(
        2,
        [(MultiPoly.constant(2, 2), one), (MultiPoly.constant(2, 3), one)],
        exceptions=MeasureZeroSet.make(walls),
        seed=((0, 0), Fraction(1)),
    )
    ps = build_structure(spec)
    assert sorted(ps.excluded.hyperplanes) == sorted(walls)
    window = LatticeBox((-30, -30), 30)
    units = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    isolated = [
        z
        for p in ps.pieces
        for z in window.points()
        if p.region.contains(z)
        and not any(p.region.contains((z[0] + a, z[1] + b)) for a, b in units)
    ]
    assert (-7, -9) in isolated
    report = grid_compare(ps, spec, window)
    assert report.mismatches == ()
    assert report.checked == report.equal == 947


# -- closed-form evaluation ----------------------------------------------------


def reference_eval(ps, z):
    """closed_form_eval as a fresh per-point product: every chain product
    rebuilt by gp_eval from the base point, C and D in Fractions."""
    z = tuple(z)
    piece = next((p for p in ps.pieces if p.region.contains(z)), None)
    if piece is None:
        return EvalOutcome("no-piece")
    form = ps.form
    if form.d_poly.evaluate(z) == 0:
        return EvalOutcome("d-zero")
    if piece.base_value is None:
        return EvalOutcome("value-unknown")
    z0 = piece.base_point
    value = piece.base_value
    for g, zi, z0i in zip(form.gamma, z, z0):
        value *= Fraction(g) ** (zi - z0i)
    value *= form.c_poly.evaluate(z) / form.c_poly.evaluate(z0)
    value *= form.d_poly.evaluate(z0) / form.d_poly.evaluate(z)
    for chain in form.chains:
        a = sum(x * y for x, y in zip(chain.direction, z0))
        b = sum(x * y for x, y in zip(chain.direction, z))

        def term(j, chain=chain):
            den = chain.den.evaluate(j)
            return chain.num.evaluate(j) / den if den != 0 else Fraction(0)

        try:
            value *= gp_eval(a, b, term)
        except ZeroTermError as exc:
            raise IntegrityError(
                f"chain factor vanishes inside a piece at j = {exc.index}"
            ) from exc
    return EvalOutcome("ok", value)


def outcome_or_error(evaluate, ps, z):
    try:
        return evaluate(ps, z)
    except IntegrityError as exc:
        return str(exc)


def assert_matches_reference(ps, points, seed):
    # each order on a fresh copy of the structure, so that the prefix
    # tables are extended upward, downward and in jumps both ways
    expected = {z: outcome_or_error(reference_eval, ps, z) for z in points}
    shuffled = list(points)
    random.Random(seed).shuffle(shuffled)
    for order in (list(points), list(reversed(points)), shuffled):
        fresh = replace(ps)
        for z in order:
            assert outcome_or_error(closed_form_eval, fresh, z) == expected[z], z


def rational_gamma_binomial_spec():
    """choose(z1, z2) (2/3)^z1 (5/7)^z2: gamma = (2/3, 5/7) has a numerator
    and a denominator both along a row and across rows."""
    sides = [("2*z1 + 2", "3*z1 - 3*z2 + 3"), ("5*z1 - 5*z2", "7*z2 + 7")]
    return TermSpec.make(
        2,
        [(parse_multipoly(a, 2), parse_multipoly(b, 2)) for a, b in sides],
        seed=((0, 0), Fraction(1)),
    )


def test_closed_form_eval_matches_reference_on_specs():
    specs = list(example_specs().values())
    specs += [load_spec("annihilated"), rational_gamma_binomial_spec()]
    for path in sorted((Path(__file__).parent.parent / "specs").glob("*.json")):
        specs.append(spec_from_json(json.loads(path.read_text(encoding="utf-8"))))
    for n, spec in enumerate(specs):
        ps = build_structure(spec)
        k = spec.arity
        window = LatticeBox((-12,) * k, 24) if k < 3 else LatticeBox((-3,) * k, 6)
        assert_matches_reference(ps, list(window.points()), seed=n)


def test_closed_form_eval_matches_reference_on_random_forms():
    from conftest import random_form, spec_from_form

    rng = random.Random(83)
    statuses = set()
    for k in (1, 1, 2, 2, 2, 3):
        form = random_form(rng, k)
        spec = spec_from_form(form, seed=((0,) * k, Fraction(1)))
        ps = build_structure(spec)
        window = LatticeBox((-12,) * k, 24) if k < 3 else LatticeBox((-3,) * k, 6)
        points = list(window.points())
        assert_matches_reference(ps, points, seed=k)
        statuses.update(reference_eval(ps, z).status for z in points)
    assert {"ok", "no-piece", "d-zero"} <= statuses


def test_closed_form_eval_from_threads(odd_structure):
    # fresh structures, each evaluated by more threads than cores that start
    # together and walk outward in steps of 10, so that most thread switches
    # fall inside a table extension; a lost or doubled update shows in the
    # values the threads read, or once the tables grow further
    points = [(10 * t,) for t in range(-30, 31)]
    expected = {z: reference_eval(odd_structure, z) for z in points}
    further = {(z,): reference_eval(odd_structure, (z,)) for z in range(-400, 401, 7)}
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(40):
            ps = replace(odd_structure)
            results = [{} for _ in range(4)]
            start = threading.Barrier(len(results))

            def work(result):
                start.wait(timeout=60)
                for z in sorted(points, key=lambda z: abs(z[0])):
                    result[z] = closed_form_eval(ps, z)

            threads = [threading.Thread(target=work, args=(r,)) for r in results]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            for result in results:
                assert result == expected
            assert {z: closed_form_eval(ps, z) for z in further} == further
    finally:
        sys.setswitchinterval(interval)


def interval_structures():
    """(name, structure, windows): the constant example, the zero-divisor
    structure, specs/*.json, which hold the other two examples, the
    benchmark specs (with their workload windows) and random forms for
    k = 1..3."""
    from conftest import random_form, spec_from_form

    repo = Path(__file__).parent.parent
    named = [(name, load_spec(name)) for name in ("constant", "annihilated")]
    for path in sorted((repo / "specs").glob("*.json")) + sorted(
        (repo / "perfbench" / "specs").glob("*.json")
    ):
        named.append((path.name, spec_from_json(json.loads(path.read_text(encoding="utf-8")))))
    rng = random.Random(89)
    for k in (1, 1, 2, 2, 2, 3, 3):
        form = random_form(rng, k)
        named.append((f"random k={k}", spec_from_form(form, seed=((0,) * k, Fraction(1)))))
    workload_windows = {
        "wedge3d.json": LatticeBox((-2, -2, 8), 6),
        "flood3d.json": LatticeBox((-4, -4, -4), 8),
    }
    out = []
    for name, spec in named:
        k = spec.arity
        window = LatticeBox((-12,) * k, 24) if k < 3 else LatticeBox((-3,) * k, 6)
        windows = [window] + ([workload_windows[name]] if name in workload_windows else [])
        out.append((name, build_structure(spec), windows))
    return out


def scan(ps, z):
    """Reference piece lookup: the first piece table whose region holds z."""
    return next((t for t in ps._tables if t.piece.region.contains(z)), None)


def window_rows(window):
    """The points of the window without their last coordinate, in order."""
    return itertools.product(*(range(c, c + window.size + 1) for c in window.corner[:-1]))


def row_pieces(ps, window):
    """The piece table ``_row_runs`` assigns to each window point, after
    checking that each row's runs cover it in order and are maximal."""
    lo, hi = window.corner[-1], window.corner[-1] + window.size
    assigned = {}
    for rest in window_rows(window):
        runs = _row_runs(ps._tables, rest, lo, hi)
        assert [r[0] for r in runs] == [lo] + [r[1] for r in runs[:-1]]
        assert runs[-1][1] == hi + 1 and all(a < b for a, b, _ in runs)
        assert all(x[2] is not y[2] for x, y in zip(runs, runs[1:]))
        for start, stop, table in runs:
            for t in range(start, stop):
                assigned[rest + (t,)] = table
    return assigned


def assert_rows_match_scan(name, ps, windows):
    for window in windows:
        assigned = row_pieces(ps, window)
        assert list(assigned) == sorted(window.points()), name
        for z, table in assigned.items():
            assert table is scan(ps, z), (name, z)


def test_row_intervals_match_linear_scan():
    normals = set()
    for name, ps, windows in interval_structures():
        k = ps.form.arity
        on_planes = [
            z
            for window in windows
            for h in ps.excluded.hyperplanes
            for z in window.points()
            if h.contains(z)
        ]
        if ps.excluded.hyperplanes:
            assert on_planes, name
        # far points as one-point windows, and the boxes of side 3 at them
        far = [
            LatticeBox(tuple(a + b for a, b in zip(corner, offset)), size)
            for corner in itertools.product((-10**6, 0, 10**6), repeat=k)
            for offset in itertools.product((-1, 0, 1), repeat=k)
            for size in (0, 2)
        ]
        assert_rows_match_scan(name, ps, windows + [LatticeBox(z, 0) for z in on_planes] + far)
        # the whole kernel, a row at a time, agrees with one point at a time
        for window in windows:
            row_wise = [
                (z, EvalOutcome(status, None if num is None else Fraction(num, den)))
                for z, status, num, den in ps.window_values(window)
            ]
            assert row_wise == [(z, closed_form_eval(ps, z)) for z in window.points()], name
        normals.update(h.v for t in ps._tables for h in t.piece.region.halfspaces)
    assert len(normals) > 5


def hand_built_structure(k, regions, excluded=MeasureZeroSet.empty()):
    """Pieces over the given half-space tuples, in that order, with the
    form C = D = 1 and no chains; a half-space is built as given, so its
    normal need not be primitive."""
    form = OreSatoForm(k, MultiPoly.constant(k, 1), MultiPoly.constant(k, 1), (1,) * k, ())
    pieces = tuple(
        Piece(PolyhedralRegion(k, tuple(halves)), (0,) * k, Fraction(1)) for halves in regions
    )
    return PiecewiseStructure(form, pieces, excluded)


def test_point_in_no_piece_off_the_excluded_planes_is_an_integrity_error():
    # the piece z1 > 0 with the excluded planes z1 = 0, which holds the
    # whole row z1 = 0, and z2 = 3, which meets each row at one point: the
    # rest of z1 <= 0 is in no piece and on no plane, which the build never
    # leaves, and the first such point of a window is named
    excluded = MeasureZeroSet.make([Hyperplane.make((1, 0), 0), Hyperplane.make((0, 1), 3)])
    ps = hand_built_structure(2, [[HalfSpace((1, 0), 0)]], excluded)
    assert closed_form_eval(ps, (1, 2)) == EvalOutcome("ok", 1)
    assert closed_form_eval(ps, (0, 2)) == closed_form_eval(ps, (-1, 3)) == EvalOutcome("no-piece")
    for z in [(-1, 2), (-5, 4)]:
        with pytest.raises(IntegrityError, match=re.escape(f"the point {z} lies in no piece")):
            closed_form_eval(ps, z)
    spec = TermSpec.make(2, [(parse_multipoly("1", 2),) * 2] * 2, seed=((1, 1), Fraction(1)))
    assert grid_compare(ps, spec, LatticeBox((0, 0), 3)).on_h == 4
    with pytest.raises(IntegrityError, match=re.escape("the point (-1, 2) lies in no piece")):
        grid_compare(replace(ps), spec, LatticeBox((-1, 2), 3))


def test_row_intervals_on_hand_built_pieces():
    # last-axis coefficients 0, +-1, +-2 and +-3, levels mostly below the
    # window so that m = n - v[:-1].rest is negative on most rows: the
    # floor divisions of c t > m must round toward the right side for
    # either sign of c and of m
    rng = random.Random(97)
    met = set()
    for k in (1, 2, 3):
        window = LatticeBox((-6,) * k, 12) if k < 3 else LatticeBox((-4,) * k, 8)
        lasts = [c for c in (0, 1, -1, 2, -2, 3, -3) if c or k > 1]
        for _ in range(30):
            regions = []
            for _ in range(rng.randint(1, 4)):
                halves = []
                for _ in range(rng.randint(1, 3)):
                    head = tuple(rng.randint(-3, 3) for _ in range(k - 1))
                    halves.append(HalfSpace(head + (rng.choice(lasts),), rng.randint(-14, 4)))
                regions.append(halves)
            ps = hand_built_structure(k, regions)
            assert_rows_match_scan(f"k={k}", ps, [window])
            for h in itertools.chain(*regions):
                for rest in window_rows(window):
                    met.add((k, h.v[-1], h.n - sum(map(operator.mul, h.v, rest)) < 0))
    for k in (1, 2, 3):
        for c in (0, 1, -1, 2, -2, 3, -3):
            if c or k > 1:
                assert (k, c, True) in met and (k, c, False) in met, (k, c)


def test_base_point_on_c_or_d_zero_is_an_integrity_error():
    # the build picks each base point off C D = 0; a structure that breaks
    # this would give every value of the piece a zero denominator, so the
    # first evaluation refuses it rather than divide by zero or compare
    # num * q == 0 * p
    k = 2
    piece = Piece(PolyhedralRegion.whole(k), (1, -1), Fraction(3))
    for c, d in [("z1 + z2", "1"), ("1", "z1 + z2"), ("z1*z2 + 1", "z1 - 1")]:
        form = OreSatoForm(k, parse_multipoly(c, k), parse_multipoly(d, k), (1, 1), ())
        ps = PiecewiseStructure(form, (piece,), MeasureZeroSet.empty())
        with pytest.raises(IntegrityError, match=r"C or D vanishes at the base point \(1, -1\)"):
            closed_form_eval(ps, (2, 3))
        spec = TermSpec.make(k, [(parse_multipoly("1", k),) * 2] * k, seed=((0, 0), Fraction(1)))
        with pytest.raises(IntegrityError):
            grid_compare(replace(ps), spec, LatticeBox((0, 0), 2))


def test_closed_form_eval_point_arity(binomial_structure):
    # a row's half-spaces zip the point's other coordinates against each
    # normal, which would drop the extra coordinates of a long point; the
    # arity is checked first
    ps = build_structure(load_spec("annihilated"))
    for built, z in [(binomial_structure, (1, 2, 3)), (binomial_structure, (1,)), (ps, (1, 2))]:
        with pytest.raises(DimensionError, match="point arity mismatch"):
            closed_form_eval(built, z)


def test_closed_form_eval_integer_rule():
    # coordinates follow poly._integer: (5.7, 2.2) is not read as (5, 2),
    # where the value is 10, nor (True, 0) as (1, 0); 5.0 is accepted
    repo = Path(__file__).parent.parent
    spec = spec_from_json(json.loads((repo / "specs" / "binomial.json").read_text(encoding="utf-8")))
    ps = build_structure(spec)
    for z, named in [((5.7, 2.2), r"\(5\.7, 2\.2\)"), ((True, 0), r"\(True, 0\)")]:
        with pytest.raises(TypeError, match=f"coordinate of the point {named} must be an integer"):
            closed_form_eval(ps, z)
    assert closed_form_eval(ps, (5.0, 2.0)) == closed_form_eval(ps, [5, 2]) == EvalOutcome("ok", 10)


def test_form_eval_integer_rule():
    # factorial_eval and pochhammer_eval follow the same rule: on the form
    # whose region holds (5, 2), (5.7, 2.2) is not read as (5, 2), where
    # the value is 10, nor [True, 0] as (1, 0); 5.0 is accepted
    repo = Path(__file__).parent.parent
    spec = spec_from_json(json.loads((repo / "specs" / "binomial.json").read_text(encoding="utf-8")))
    (ff,) = [ff for ff in split_factorial(build_structure(spec)) if ff.region.contains((5, 2))]
    pf = to_pochhammer(ff)
    for evaluate, form in [(factorial_eval, ff), (pochhammer_eval, pf)]:
        for z, named in [((5.7, 2.2), r"\(5\.7, 2\.2\)"), ([True, 0], r"\(True, 0\)")]:
            with pytest.raises(TypeError, match=f"coordinate of the point {named} must be an integer"):
                evaluate(form, z)
        assert evaluate(form, (5.0, 2.0)) == evaluate(form, [5, 2]) == 10


def chain_root_structure(base_value=Fraction(5)):
    """One piece, all of Z, based at 0 with the given value, with the chain
    a(j)/b(j) = ((j - 3)(j + 4)/3) / (j/2 + 3): zero factors at j = 3
    above the base point and at j = -4, -6 below it, all inside the
    piece."""
    num = parse_unipoly("(t - 3)*(t + 4)").scale(Fraction(1, 3))
    den = UniPoly.make([3, Fraction(1, 2)])
    form = OreSatoForm(
        1,
        MultiPoly.constant(1, 1),
        MultiPoly.constant(1, 1),
        (Fraction(1, 2),),
        (Chain((1,), num, den),),
    )
    piece = Piece(PolyhedralRegion.whole(1), (0,), base_value)
    return PiecewiseStructure(form, (piece,), MeasureZeroSet.empty())


def test_closed_form_eval_zero_chain_factor_raises():
    def raises_at(ps, z, j):
        with pytest.raises(IntegrityError, match=f"at j = {j}$"):
            closed_form_eval(ps, (z,))

    # fresh structures: the first evaluation reaches across a root; below
    # the base point the lowest zero factor is named, as gp_eval does
    for z, j in [(4, 3), (9, 3), (-5, -4), (-7, -6)]:
        raises_at(chain_root_structure(), z, j)
    # tables extended first on both sides of the base point, then across
    ps = chain_root_structure()
    for z in [2, -3, 3, -1, 1, -2]:
        assert closed_form_eval(ps, (z,)) == reference_eval(ps, (z,))
    # 5 * (1/2)^3 * a(0)/b(0) * a(1)/b(1) * a(2)/b(2)
    assert closed_form_eval(ps, (3,)).value == (
        5 * Fraction(1, 8) * Fraction(-4, 3) * Fraction(-20, 21) * Fraction(-1, 2)
    )
    for z, j in [(4, 3), (-7, -6), (-5, -4), (-4, -4), (4, 3), (12, 3)]:
        raises_at(ps, z, j)
    # a raise leaves the tables as they were
    for z in [3, 2, -3, 0, -2]:
        assert closed_form_eval(ps, (z,)) == reference_eval(ps, (z,))


def test_zero_is_absorbing_in_the_kernel(binomial_structure):
    # a piece of base value 0 yields 0/1 without any product, but still
    # reads every chain ratio: with base value 0 the chain's roots raise
    # the same IntegrityError, naming the same j, in every order
    zero_root = chain_root_structure(Fraction(0))
    points = [(z,) for z in range(-12, 13)]
    assert_matches_reference(zero_root, points, seed=7)
    for z, j in [(4, 3), (9, 3), (-5, -4), (-7, -6)]:
        with pytest.raises(IntegrityError, match=f"at j = {j}$"):
            closed_form_eval(chain_root_structure(Fraction(0)), (z,))
    assert list(chain_root_structure(Fraction(0)).window_values(LatticeBox((-3,), 6))) == [
        ((z,), "ok", 0, 1) for z in range(-3, 4)
    ]
    # binomial's pieces of base value 0, D = 1 there
    window = LatticeBox((-12, -12), 24)
    zero = [z for z in window.points() if (t := scan(binomial_structure, z)) and t.piece.base_value == 0]
    assert len(zero) > 150 and any(z[1] < 0 for z in zero) and any(z[1] > z[0] for z in zero)
    assert_matches_reference(binomial_structure, zero, seed=11)
    statuses = {z: (status, num, den) for z, status, num, den in replace(binomial_structure).window_values(window)}
    assert all(statuses[z] == ("ok", 0, 1) for z in zero)


# -- factorial split -------------------------------------------------------------


def test_odd_factorial_two_regions(odd_structure):
    forms = split_factorial(odd_structure)
    assert len(forms) == 2
    by_side = {}
    for ff in forms:
        assert len(ff.chains) == 1
        if ff.region.contains((3,)):
            by_side["nonneg"] = ff
        else:
            assert ff.region.contains((-3,))
            by_side["neg"] = ff
    nonneg, neg = by_side["nonneg"], by_side["neg"]
    # {z1 >= 0} and {z1 < 0}, as the two-case display requires
    assert nonneg.region.contains((0,)) and not neg.region.contains((0,))
    assert neg.region.contains((-1,)) and not nonneg.region.contains((-1,))
    # the nonnegative side is prod_{j=1}^{z1} (2j - 1)
    chain = nonneg.chains[0]
    assert chain.direction == (1,)
    assert chain.offset == 0
    assert chain.num == parse_unipoly("2*t - 1")
    # the negative side is prod_{j=1}^{-z1} 1 / (1 - 2j)
    chain = neg.chains[0]
    assert chain.direction == (-1,)
    assert chain.offset == 0
    assert chain.num.is_constant
    assert chain.den == parse_unipoly("-2*t + 1")


def test_factorial_matches_closed_form(odd_structure, binomial_structure):
    for ps, k in [(odd_structure, 1), (binomial_structure, 2)]:
        forms = split_factorial(ps)
        for z in itertools.product(range(-8, 9), repeat=k):
            outcome = closed_form_eval(ps, z)
            carriers = [ff for ff in forms if ff.region.contains(z)]
            if outcome.status != "ok":
                continue
            for ff in carriers:
                assert factorial_eval(ff, z) == outcome.value


def test_factorial_upper_limits_nonnegative(odd_structure, binomial_structure):
    # every point of [-9, 9]^k in a form's region, and each form holds one
    for ps in [odd_structure, binomial_structure]:
        k = ps.form.arity
        for ff in split_factorial(ps):
            pts = [z for z in itertools.product(range(-9, 10), repeat=k) if ff.region.contains(z)]
            assert pts, ff.region
            for z in pts:
                for chain in ff.chains:
                    upper = sum(a * b for a, b in zip(chain.direction, z)) + chain.offset
                    assert upper >= 0


def test_factorial_cells_partition_each_reached_piece():
    # on a window, a point of a reached piece lies in exactly one factorial
    # region, and a region holds no point outside a reached piece
    from conftest import random_form, spec_from_form

    root = Path(__file__).resolve().parent.parent
    specs = [spec_from_json(json.loads((root / "specs" / "binomial.json").read_text(encoding="utf-8")))]
    rng = random.Random(97)
    for k in (1, 2, 3) * 8:
        specs.append(spec_from_form(random_form(rng, k), seed=((0,) * k, Fraction(1))))
    counted = 0
    for spec in specs:
        ps = build_structure(spec)
        reached = [p.region for p in ps.pieces if p.base_value is not None]
        regions = [ff.region for ff in split_factorial(ps)]
        k = spec.arity
        for z in LatticeBox((-5,) * k, 10).points():
            hits = sum(1 for r in regions if r.contains(z))
            if any(r.contains(z) for r in reached):
                assert hits == 1, (spec, z)
                counted += 1
            else:
                assert hits == 0, (spec, z)
    assert counted > 1000


def test_factorial_chain_sides_rewritten_and_factored_once_per_piece(monkeypatch):
    # each piece builds the two sides of each chain once (two shift_arg or
    # reflect calls per side), and to_pochhammer factors each side's num and
    # den once, however many sign cells of the piece share them
    from hyperterm import structure

    root = Path(__file__).resolve().parent.parent
    spec = spec_from_json(json.loads((root / "specs" / "binomial.json").read_text(encoding="utf-8")))
    ps = build_structure(spec)
    reached = sum(1 for p in ps.pieces if p.base_value is not None)
    calls = {"shift_arg": 0, "rational_roots": 0}
    shift_arg, rational_roots = UniPoly.shift_arg, structure.rational_roots

    def counted_shift_arg(self, c):
        calls["shift_arg"] += 1
        return shift_arg(self, c)

    def counted_rational_roots(p):
        calls["rational_roots"] += 1
        return rational_roots(p)

    monkeypatch.setattr(UniPoly, "shift_arg", counted_shift_arg)
    monkeypatch.setattr(structure, "rational_roots", counted_rational_roots)
    forms = [to_pochhammer(ff) for ff in split_factorial(ps)]
    bound = 4 * len(ps.form.chains) * reached
    assert len(forms) > reached  # pieces are cut into several cells
    assert bound == 36
    assert 0 < calls["shift_arg"] <= bound
    assert 0 < calls["rational_roots"] <= bound


def test_factorial_empty_product_boundary(odd_structure):
    # at the base point the nonnegative-side product is empty and equals 1
    forms = split_factorial(odd_structure)
    nonneg = next(ff for ff in forms if ff.region.contains((0,)))
    assert factorial_eval(nonneg, (0,)) == closed_form_eval(odd_structure, (0,)).value


# -- Pochhammer ------------------------------------------------------------------


def test_rising_factorial():
    assert rising_factorial(Fraction(3, 2), 2) == Fraction(15, 4)
    assert rising_factorial(Fraction(-5), 0) == 1
    with pytest.raises(IntegrityError):
        rising_factorial(Fraction(1), -1)


def test_to_pochhammer_crafted_odd_chain():
    # prod_{j=1}^{z1} (2j + 1) rewrites as 2^{z1} (3/2)_{z1}
    ff = FactorialForm(
        region=PolyhedralRegion.make(1, [HalfSpace.make((1,), -1)]),
        gamma=(Fraction(1),),
        scalar=Fraction(1),
        c_poly=MultiPoly.constant(1, 1),
        d_poly=MultiPoly.constant(1, 1),
        chains=(FactorialChain((1,), parse_unipoly("2*t + 1"), UniPoly.constant(1), 0),),
    )
    pf = to_pochhammer(ff)
    assert pf.gamma == (Fraction(2),)
    assert pf.scalar == 1
    assert len(pf.numerator) == 1
    entry = pf.numerator[0]
    assert entry.base == Fraction(3, 2)
    assert entry.offset == 0
    # z1 = 2: 3 * 5 = 15 = 4 * (3/2)(5/2)
    assert factorial_eval(ff, (2,)) == 15
    assert pochhammer_eval(pf, (2,)) == 15


def test_odd_pochhammer_shape(odd_structure):
    forms = split_factorial(odd_structure)
    nonneg = next(ff for ff in forms if ff.region.contains((1,)))
    pf = to_pochhammer(nonneg)
    # a power of 2 per unit step and one half-integer rising factorial
    assert pf.gamma == (Fraction(2),)
    assert [e.base for e in pf.numerator] == [Fraction(1, 2)]
    for z in range(0, 9):
        assert pochhammer_eval(pf, (z,)) == closed_form_eval(odd_structure, (z,)).value


def test_pochhammer_matches_factorial(odd_structure, binomial_structure):
    for ps, k in [(odd_structure, 1), (binomial_structure, 2)]:
        for ff in split_factorial(ps):
            pf = to_pochhammer(ff)
            for z in itertools.product(range(-8, 9), repeat=k):
                if not ff.region.contains(z):
                    continue
                fv = factorial_eval(ff, z)
                pv = pochhammer_eval(pf, z)
                assert (fv is None) == (pv is None)
                if fv is not None:
                    assert fv == pv


def test_pochhammer_nonsplitting_raises():
    ff = FactorialForm(
        region=PolyhedralRegion.whole(1),
        gamma=(Fraction(1),),
        scalar=Fraction(1),
        c_poly=MultiPoly.constant(1, 1),
        d_poly=MultiPoly.constant(1, 1),
        chains=(FactorialChain((1,), parse_unipoly("t^2 + 1"), UniPoly.constant(1), 0),),
    )
    with pytest.raises(SplittingError):
        to_pochhammer(ff)


def test_pochhammer_factors_constant_zero_and_nonsplitting_sides():
    # chains in order, num before den; a constant side is factored like any
    # other, a zero one raises IntegrityError, and a failing chain raises
    # again on the next form that shares it
    def form(*chains):
        return FactorialForm(
            PolyhedralRegion.whole(1),
            (Fraction(1),),
            Fraction(1),
            MultiPoly.constant(1, 1),
            MultiPoly.constant(1, 1),
            tuple(FactorialChain((1,), parse_unipoly(a), parse_unipoly(b), 0) for a, b in chains),
        )

    cases = [
        ([("3", "t^2 + 2"), ("t^2 + 1", "1")], SplittingError, "t^2 + 2"),
        ([("t^2 + 1", "0")], SplittingError, "t^2 + 1"),
        ([("0", "t^2 + 1")], IntegrityError, None),
        ([("t + 1", "1"), ("2", "0")], IntegrityError, None),
    ]
    for chains, error, factor in cases:
        ff = form(*chains)
        for _ in range(2):
            with pytest.raises(error) as raised:
                to_pochhammer(ff)
            if factor is not None:
                assert raised.value.factor == parse_unipoly(factor)
    # a nonzero constant side only scales: 3 per step and 3 in the scalar
    pf = to_pochhammer(
        FactorialForm(
            PolyhedralRegion.whole(1),
            (Fraction(1),),
            Fraction(1),
            MultiPoly.constant(1, 1),
            MultiPoly.constant(1, 1),
            (FactorialChain((1,), UniPoly.constant(3), parse_unipoly("t + 1"), 1),),
        )
    )
    assert pf.gamma == (3,) and pf.scalar == 3
    assert pf.numerator == ()
    assert [(e.base, e.offset) for e in pf.denominator] == [(2, 1)]


def test_pochhammer_outside_region_rejected():
    # both evaluators reject a point outside the form's region as a caller
    # error, on every binomial form over [-6, 6]^2
    forms = split_factorial(build_structure(load_spec("odd")))
    nonneg = next(ff for ff in forms if ff.region.contains((1,)))
    pf = to_pochhammer(nonneg)
    with pytest.raises(PreconditionError):
        pochhammer_eval(pf, (-3,))
    with pytest.raises(PreconditionError):
        factorial_eval(nonneg, (-3,))
    outside = 0
    for ff in split_factorial(build_structure(load_spec("binomial"))):
        pf = to_pochhammer(ff)
        for z in itertools.product(range(-6, 7), repeat=2):
            if ff.region.contains(z):
                continue
            outside += 1
            with pytest.raises(PreconditionError):
                factorial_eval(ff, z)
            with pytest.raises(PreconditionError):
                pochhammer_eval(pf, z)
    assert outside
