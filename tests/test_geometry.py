import itertools
import math
import random
from fractions import Fraction

import pytest

from hyperterm import geometry
from hyperterm.errors import PreconditionError
from hyperterm.geometry import (
    HalfSpace,
    Hyperplane,
    LatticeBox,
    PolyhedralRegion,
    MeasureZeroSet,
    _fm_project_all,
    arrangement,
    certificate_cover,
    characteristic_certificates,
    erode,
    find_box,
    fm_feasible,
    fm_sample,
    fm_sup,
    hull_points,
    is_measure_zero,
    region_rows,
    region_sample,
    s_path,
)


def HS(v, n):
    return HalfSpace.make(v, n)


def region(k, *hs):
    return PolyhedralRegion.make(k, hs)


def window(k, lo, hi):
    return itertools.product(range(lo, hi + 1), repeat=k)


# -- canonical forms -----------------------------------------------------------


def test_hyperplane_canonical():
    assert Hyperplane.make((2, -4), 6) == Hyperplane.make((1, -2), 3)
    assert Hyperplane.make((-1, 2), -3) == Hyperplane.make((1, -2), 3)


def test_hyperplane_empty_marker():
    h = Hyperplane.make((2, 4), 3)
    assert h.empty
    assert not h.contains((1, 1))


def test_halfspace_canonical():
    # {2 z1 > 3} has the same integer points as {z1 > 1}
    assert HS((2,), 3) == HS((1,), 1)
    for z in range(-5, 6):
        assert HS((2,), 3).contains((z,)) == (2 * z > 3)


def test_constructors_take_integral_numbers_only():
    # a non-integral number or a bool is rejected, not truncated; an
    # integral float reads as its integer
    for v, n in [((1.5, 0), 0), ((1, 0), 0.5), ((True, 0), 0), ((1, 0), False)]:
        with pytest.raises(TypeError, match="must be an integer"):
            Hyperplane.make(v, n)
        with pytest.raises(TypeError, match="must be an integer"):
            HalfSpace.make(v, n)
    assert Hyperplane.make((2.0, 0), 4.0) == Hyperplane.make((1, 0), 2)
    assert HS((2.0, 0), Fraction(3)) == HS((1, 0), 1)


def test_measure_zero_set_holds_planes_with_lattice_points():
    # 2 z1 = 1 has no integer point: the set drops it, and so does the
    # arrangement, which cuts Z along z1 = 0 only
    empty = Hyperplane.make((2,), 1)
    assert MeasureZeroSet.make([empty]) == MeasureZeroSet.empty()
    line = Hyperplane.make((1,), 0)
    assert MeasureZeroSet.make([empty, line]).hyperplanes == (line,)
    assert arrangement([empty, line], 1) == arrangement([line], 1)


# -- membership -----------------------------------------------------------------


def test_contains_basic():
    r = region(1, HS((1,), -1))
    assert r.contains((0,))
    assert PolyhedralRegion.whole(2).contains((-5, 7))
    r2 = region(1, HS((1,), 0), HS((-1,), -2))
    assert not r2.contains((2,))
    assert r2.contains((1,))


# -- erosion ---------------------------------------------------------------------


def test_erode_interval():
    # 0 <= z1 <= 3 as two half-spaces
    r = region(1, HS((1,), -1), HS((-1,), -4))
    rp, cover = erode(r, 1)
    assert rp == region(1, HS((1,), -1), HS((-1,), -3))
    assert Hyperplane.make((1,), 3) in cover.hyperplanes
    # exhaustive check on a window
    for z in range(-2, 6):
        in_r = r.contains((z,))
        in_rp = rp.contains((z,))
        if in_rp:
            assert in_r and r.contains((z + 1,))
        if in_r and not in_rp:
            assert cover.covers((z,))


def test_erode_whole_space():
    rp, cover = erode(PolyhedralRegion.whole(3), 2)
    assert rp == PolyhedralRegion.whole(3)
    assert len(cover) == 0


def test_erode_halfspace_positive_direction():
    # boxes extend in the + direction, so {z1 > 0} erodes to itself
    r = region(2, HS((1, 0), 0))
    rp, cover = erode(r, 2)
    assert rp == r
    assert len(cover) == 0
    for z in window(2, -3, 6):
        assert rp.contains(z) == r.contains(z)


def test_erode_properties_random():
    rng = random.Random(23)
    for _ in range(20):
        k = rng.randint(1, 2)
        hs = []
        for _ in range(rng.randint(1, 3)):
            v = tuple(rng.randint(-2, 2) for _ in range(k))
            if any(x != 0 for x in v):
                hs.append(HS(v, rng.randint(-3, 3)))
        if not hs:
            continue
        r = region(k, *hs)
        n = rng.randint(0, 2)
        rp, cover = erode(r, n)
        for z in window(k, -6, 6):
            if rp.contains(z):
                box = LatticeBox(z, n)
                assert all(r.contains(p) for p in box.points())
            if r.contains(z) and not rp.contains(z):
                assert cover.covers(z)


# -- arrangement -------------------------------------------------------------------


def test_arrangement_line():
    cells = arrangement([Hyperplane.make((1,), 0)], 1)
    assert len(cells) == 2
    covered = {z for z in range(-4, 5) for c in cells if c.contains((z,))}
    assert covered == {z for z in range(-4, 5) if z != 0}


def test_arrangement_quadrants():
    cells = arrangement(
        [Hyperplane.make((1, 0), 0), Hyperplane.make((0, 1), 0)], 2
    )
    assert len(cells) == 4


def test_arrangement_duplicates():
    cells = arrangement(
        [Hyperplane.make((1, 0), 0), Hyperplane.make((-1, 0), 0)], 2
    )
    assert len(cells) == 2


def test_arrangement_partition():
    planes = [
        Hyperplane.make((1, 0), 0),
        Hyperplane.make((0, 1), -1),
        Hyperplane.make((1, -1), 0),
    ]
    cells = arrangement(planes, 2)
    for z in window(2, -5, 5):
        hits = sum(1 for c in cells if c.contains(z))
        on_plane = any(p.contains(z) for p in planes)
        if on_plane:
            assert hits == 0
        else:
            assert hits == 1


def test_arrangement_keeps_cell_without_integer_point():
    # the cell 0 < 3*z1 - 2*z2 < 2, 1 < z1 < 3 has rational points only
    # (z1 = 2, z2 = 5/2); it is returned, and the measure-zero test covers
    # it by its one level 3*z1 - 2*z2 = 1
    planes = [
        Hyperplane.make((3, -2), 0),
        Hyperplane.make((3, -2), 2),
        Hyperplane.make((1, 0), 1),
        Hyperplane.make((1, 0), 3),
    ]
    cells = arrangement(planes, 2)
    assert len(cells) == 9
    cell = region(2, HS((3, -2), 0), HS((-3, 2), -2), HS((1, 0), 1), HS((-1, 0), -3))
    assert cell in cells
    assert not any(cell.contains(z) for z in window(2, -6, 6))
    flag, cover = is_measure_zero(cell)
    assert flag
    assert cover.hyperplanes == (Hyperplane.make((3, -2), 1),)


# -- measure zero -------------------------------------------------------------------


def test_measure_zero_single_point():
    r = region(1, HS((1,), 0), HS((-1,), -2))
    flag, cover = is_measure_zero(r)
    assert flag
    assert cover.hyperplanes == (Hyperplane.make((1,), 1),)


def test_measure_zero_quadrant():
    r = region(2, HS((1, 0), 0), HS((0, 1), 0))
    flag, cover = is_measure_zero(r)
    assert not flag
    assert cover is None


def test_measure_zero_diagonal():
    r = region(2, HS((1, -1), -1), HS((-1, 1), -1))
    flag, cover = is_measure_zero(r)
    assert flag
    # exhaustive: every region point is covered
    for z in window(2, -5, 5):
        if r.contains(z):
            assert cover.covers(z)
    assert Hyperplane.make((1, -1), 0) in cover.hyperplanes


def test_measure_zero_slab():
    # 0 <= z1 <= 10 in Z^2 is covered by 11 hyperplanes
    r = region(2, HS((1, 0), -1), HS((-1, 0), -11))
    flag, cover = is_measure_zero(r)
    assert flag
    for z in window(2, -3, 12):
        if r.contains(z):
            assert cover.covers(z)


def test_measure_zero_empty_region():
    r = region(1, HS((1,), 5), HS((-1,), -3))
    flag, cover = is_measure_zero(r)
    assert flag
    assert len(cover) == 0


def random_region(rng, k, max_halfspaces=4):
    hs = []
    for _ in range(rng.randint(1, max_halfspaces)):
        v = tuple(rng.randint(-2, 2) for _ in range(k))
        if any(v):
            hs.append(HS(v, rng.randint(-4, 4)))
    return region(k, *hs)


def test_erosion_keeps_regions_that_are_not_measure_zero():
    # erosion by d is t -> t + d in the measure-zero system, so it never
    # turns a region holding arbitrarily large boxes into a measure-zero one
    rng = random.Random(31)
    kept = 0
    for _ in range(400):
        k, d = rng.randint(1, 3), rng.randint(1, 3)
        r = random_region(rng, k)
        if is_measure_zero(r)[0]:
            continue
        shrunk, _ = erode(r, d)
        assert is_measure_zero(shrunk) == (False, None), (r, d)
        kept += 1
    assert kept > 100


def test_find_box():
    r = region(2, HS((1, 0), 0), HS((0, 1), 0))
    box = find_box(r, 3)
    assert box is not None
    assert all(r.contains(p) for p in box.points())
    assert box.size == 3


def test_found_boxes_lie_in_the_region():
    # the corner rounds a solution of the tightened system up, which keeps
    # every box point inside (see find_box); nothing re-checks it there
    rng = random.Random(47)
    checked = 0
    for _ in range(400):
        k = rng.randint(1, 3)
        r = random_region(rng, k)
        if is_measure_zero(r)[0]:
            continue
        size = rng.randint(0, 3)
        box = find_box(r, size)
        assert box is not None and box.size == size, (r, size)
        assert all(r.contains(p) for p in box.points()), (r, size, box)
        checked += 1
    assert checked > 100


def test_region_keeps_the_tightest_halfspace_per_normal():
    rng = random.Random(53)
    reduced_any = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        hs = []
        for _ in range(rng.randint(1, 3)):
            v = tuple(rng.randint(-2, 2) for _ in range(k))
            if not any(v):
                continue
            for _ in range(rng.randint(1, 3)):
                # a multiple of v is the same normal once made primitive
                scale = rng.choice([1, 1, 2, 3])
                hs.append(HS(tuple(scale * x for x in v), rng.randint(-8, 8)))
        if not hs:
            continue
        raw = PolyhedralRegion(k, tuple(hs))
        r = PolyhedralRegion.make(k, hs)
        normals = [h.v for h in r.halfspaces]
        assert len(normals) == len(set(normals)), r
        assert set(r.halfspaces) <= set(hs)
        reduced_any += len(r.halfspaces) < len(hs)
        for z in window(k, -4, 4):
            assert r.contains(z) == raw.contains(z), (hs, z)
        assert is_measure_zero(r) == is_measure_zero(raw), hs
        assert find_box(r, 2) == find_box(raw, 2), hs
        assert fm_sample(region_rows(r), k) == fm_sample(region_rows(raw), k), hs
    assert reduced_any > 100


# -- sampling ---------------------------------------------------------------------


def test_region_sample():
    r = region(2, HS((1, 1), 4), HS((1, -1), -1), HS((-1, 1), -1))
    z = region_sample(r)
    assert z is not None
    assert r.contains(z)
    assert region_sample(region(1, HS((1,), 3), HS((-1,), -3))) is None


# -- paths ------------------------------------------------------------------------


def test_s_path_basic():
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    path = s_path((0, 0), (2, 1), PolyhedralRegion.whole(2), steps)
    assert path is not None
    assert path[0] == (0, 0) and path[-1] == (2, 1)
    assert len(path) == 4  # 3 steps
    for a, b in zip(path, path[1:]):
        assert tuple(y - x for x, y in zip(a, b)) in steps


def test_s_path_stays_in_region():
    r = region(1, HS((1,), 0))
    path = s_path((1,), (3,), r, [(1,), (-1,)])
    assert path is not None
    assert all(r.contains(p) for p in path)


def test_s_path_parity_obstruction():
    assert s_path((0,), (1,), PolyhedralRegion.whole(1), [(2,), (-2,)]) is None


def test_s_path_endpoint_precondition():
    with pytest.raises(PreconditionError):
        s_path((0,), (2,), region(1, HS((1,), 0)), [(1,)])


def test_s_path_trivial():
    assert s_path((4, 4), (4, 4), PolyhedralRegion.whole(2), [(1, 0)]) == [(4, 4)]


# -- hulls ------------------------------------------------------------------------


def test_hull_membership():
    member = hull_points(LatticeBox((0, 0), 1), LatticeBox((3, 2), 1))
    assert member((2, 1))  # witness s = 1/2, z' = (1/2, 0)
    assert member((0, 0))
    assert not member((-1, 0))


def test_hull_size_precondition():
    with pytest.raises(PreconditionError):
        hull_points(LatticeBox((0, 0), 2), LatticeBox((3, 2), 1))


def _hull_members(b0, b1, lo, hi):
    member = hull_points(b0, b1)
    k = b0.arity
    return {z for z in window(k, lo, hi) if member(z)}


def test_hull_connectivity_random():
    # integer hull points of two unit boxes are lattice path connected
    rng = random.Random(31)
    for _ in range(100):
        k = rng.randint(1, 3)
        c0 = tuple(rng.randint(-6, 6) for _ in range(k))
        c1 = tuple(rng.randint(-6, 6) for _ in range(k))
        b0, b1 = LatticeBox(c0, 1), LatticeBox(c1, 1)
        members = _hull_members(b0, b1, -8, 8)
        assert members
        steps = [
            tuple(1 if j == i else 0 for j in range(k)) for i in range(k)
        ] + [tuple(-1 if j == i else 0 for j in range(k)) for i in range(k)]
        start = next(iter(members))
        seen = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for s in steps:
                nb = tuple(a + b for a, b in zip(node, s))
                if nb in members and nb not in seen:
                    seen.add(nb)
                    frontier.append(nb)
        assert seen == members


def test_hull_path_inside_common_region():
    # boxes inside a polyhedral region connect by a lattice path in the region
    rng = random.Random(37)
    r = region(2, HS((1, 0), -6), HS((0, 1), -6), HS((-1, -1), -14))
    steps = [(1, 0), (-1, 0), (0, 1), (0, -1)]
    for _ in range(25):
        c0 = (rng.randint(-5, 5), rng.randint(-5, 5))
        c1 = (rng.randint(-5, 5), rng.randint(-5, 5))
        b0, b1 = LatticeBox(c0, 1), LatticeBox(c1, 1)
        if not all(r.contains(p) for p in b0.points()):
            continue
        if not all(r.contains(p) for p in b1.points()):
            continue
        path = s_path(c0, c1, r, steps)
        assert path is not None
        assert all(r.contains(p) for p in path)


# -- characteristic certificates -----------------------------------------------------


def test_certificates_halfline():
    r = region(1, HS((1,), 0))
    certs = characteristic_certificates(r)
    p = certs[0]
    from hyperterm.parsing import parse_multipoly

    assert p == parse_multipoly("z1", 1)
    for z in range(-4, 5):
        chi_z = 1 if r.contains((z,)) else 0
        chi_zp = 1 if r.contains((z + 1,)) else 0
        assert p.evaluate((z,)) * chi_z == p.evaluate((z,)) * chi_zp


def test_certificates_whole_space():
    certs = characteristic_certificates(PolyhedralRegion.whole(3))
    assert all(c.is_constant and c.constant_value() == 1 for c in certs)


def test_certificates_diagonal_constraint():
    from hyperterm.parsing import parse_multipoly

    r = region(2, HS((1, 1), 0))
    certs = characteristic_certificates(r)
    assert certs[0] == parse_multipoly("z1 + z2", 2)
    assert certs[1] == parse_multipoly("z1 + z2", 2)


def test_certificates_identity_exhaustive():
    cases = [
        region(2, HS((1, 1), 0)),
        region(2, HS((2, -1), 1)),
        region(2, HS((1, 0), -1), HS((0, 1), -1), HS((1, -1), -1)),
    ]
    for r in cases:
        certs = characteristic_certificates(r)
        for i, p in enumerate(certs):
            e = tuple(1 if j == i else 0 for j in range(2))
            for z in window(2, -4, 4):
                zp = tuple(a + b for a, b in zip(z, e))
                chi_z = 1 if r.contains(z) else 0
                chi_zp = 1 if r.contains(zp) else 0
                assert p.evaluate(z) * chi_z == p.evaluate(z) * chi_zp


# -- references: the versions these routines replaced ---------------------------


def reference_row_canonical(row):
    """A Fraction row scaled to a leading coefficient of +-1."""
    coeffs, rhs = row
    scale = next((abs(c) for c in coeffs if c != 0), None)
    if scale is None:
        return row
    return (tuple(c / scale for c in coeffs), rhs / scale)


def reference_eliminate(rows, var):
    """Fourier-Motzkin elimination of ``var`` over Fraction rows, each kept
    at a leading +-1; None when a constant row is infeasible."""
    zero, pos, neg = [], [], []
    for row in rows:
        c = row[0][var]
        if c == 0:
            zero.append(row)
        elif c > 0:
            pos.append(row)
        else:
            neg.append(row)
    out = {}

    def add(row):
        coeffs, rhs = reference_row_canonical(row)
        if all(c == 0 for c in coeffs):
            return rhs <= 0
        prev = out.get(coeffs)
        if prev is None or rhs > prev:
            out[coeffs] = rhs
        return True

    for row in zero:
        if not add(row):
            return None
    for (pc, pr) in pos:
        for (nc, nr) in neg:
            a, b = pc[var], -nc[var]
            coeffs = tuple(b * x + a * y for x, y in zip(pc, nc))
            if not add((coeffs, b * pr + a * nr)):
                return None
    return list(out.items())


def fraction_rows(rows):
    return [(tuple(Fraction(c) for c in coeffs), Fraction(rhs)) for coeffs, rhs in rows]


def reference_fm_project_all(rows, n_vars):
    """The stack of projected systems in Fraction rows, or None."""
    systems = [None] * (n_vars + 1)
    systems[n_vars] = current = fraction_rows(rows)
    for j in range(n_vars - 1, -1, -1):
        current = reference_eliminate(current, j)
        if current is None:
            return None
        systems[j] = current
    if any(rhs > 0 for _, rhs in systems[0]):
        return None
    return systems


def reference_fm_sample(rows, n_vars):
    """fm_sample read off ``reference_fm_project_all``."""
    systems = reference_fm_project_all(rows, n_vars)
    if systems is None:
        return None
    values = []
    for j in range(n_vars):
        lo = hi = None
        for coeffs, rhs in systems[j + 1]:
            c = coeffs[j]
            if c == 0:
                continue
            bound = (rhs - sum(a * v for a, v in zip(coeffs[:j], values))) / c
            if c > 0:
                if lo is None or bound > lo:
                    lo = bound
            elif hi is None or bound < hi:
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


def reference_fm_sup(rows, n_vars, objective):
    """The supremum by its own elimination loop, the objective appended as
    the last variable."""
    ext_rows = [(tuple(coeffs) + (Fraction(0),), rhs) for coeffs, rhs in fraction_rows(rows)]
    obj = tuple(Fraction(c) for c in objective)
    ext_rows.append((obj + (Fraction(-1),), Fraction(0)))
    ext_rows.append((tuple(-c for c in obj) + (Fraction(1),), Fraction(0)))
    current = ext_rows
    for j in range(n_vars):
        current = reference_eliminate(current, j)
        if current is None:
            raise PreconditionError("fm_sup called on infeasible system")
    return min((rhs / c[n_vars] for c, rhs in current if c[n_vars] < 0), default=None)


def reference_certificate_cover(r):
    """The cover from the widest level range per half-space."""
    planes = []
    for h in r.halfspaces:
        pos = max((x for x in h.v if x > 0), default=0)
        neg = max((-x for x in h.v if x < 0), default=0)
        for m in range(h.n - pos + 1, h.n + neg + 1):
            planes.append(Hyperplane.make(h.v, m))
    return MeasureZeroSet.make(planes)


def reference_arrangement(planes, arity):
    """The cells by a branch at every plane in sorted order, both sides
    checked by ``fm_feasible``: the recursion ``arrangement`` replaced."""
    unique = MeasureZeroSet.make(planes).hyperplanes
    cells = []

    def recurse(index, r):
        if not fm_feasible(region_rows(r), arity):
            return
        if index == len(unique):
            cells.append(r)
            return
        h = unique[index]
        recurse(index + 1, r.intersect(HalfSpace.make(h.v, h.n)))
        recurse(index + 1, r.intersect(HalfSpace.make(tuple(-x for x in h.v), -h.n)))

    recurse(0, PolyhedralRegion.whole(arity))
    return cells


def random_plane_runs(rng, k):
    """Up to three normals in k variables, each with a run of parallel
    planes whose canonical levels are 1, 2 or 3 apart, shuffled."""
    planes = []
    for _ in range(rng.randint(1, 3)):
        v = tuple(rng.randint(-2, 2) for _ in range(k))
        if not any(v):
            continue
        g = math.gcd(*v)
        level = g * rng.randint(-3, 3)
        for _ in range(rng.randint(1, 5)):
            planes.append(Hyperplane.make(v, level))
            level += g * rng.choice([1, 2, 3])
    rng.shuffle(planes)
    return planes


def test_arrangement_matches_the_binary_recursion():
    # the same cells in the same order, on runs of parallel planes at every
    # gap: a gap of 1 leaves an empty slab, 2 a slab that is one plane thick
    rng = random.Random(61)
    gaps = dict.fromkeys([1, 2, 3], 0)
    for _ in range(300):
        k = rng.randint(1, 3)
        planes = random_plane_runs(rng, k)
        unique = MeasureZeroSet.make(planes).hyperplanes
        for a, b in zip(unique, unique[1:]):
            if a.v == b.v and b.n - a.n in gaps:
                gaps[b.n - a.n] += 1
        assert arrangement(planes, k) == reference_arrangement(planes, k), planes
    assert min(gaps.values()) > 50, gaps


@pytest.mark.parametrize("v", [(1,), (2, -3), (1, 0, 1)])
@pytest.mark.parametrize("m", [1, 2, 18])
def test_consecutive_parallel_planes_cost_three_checks(monkeypatch, v, m):
    # the whole space, then the sides above the top plane and below the
    # bottom one; the slabs between consecutive levels are empty
    calls = []

    def counting(rows, n_vars):
        calls.append(rows)
        return fm_feasible(rows, n_vars)

    monkeypatch.setattr(geometry, "fm_feasible", counting)
    cells = arrangement([Hyperplane.make(v, n) for n in range(-5, m - 5)], len(v))
    assert len(cells) == 2
    assert len(calls) <= 3


def test_fm_sup_matches_reference():
    rng = random.Random(37)
    seen = {"bounded": 0, "unbounded": 0, "infeasible": 0}
    for _ in range(600):
        n = rng.randint(1, 3)
        rows = []
        for _ in range(rng.randint(1, 5)):
            coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(n))
            rows.append((coeffs, Fraction(rng.randint(-6, 6), rng.randint(1, 3))))
        objective = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        if not fm_feasible(rows, n):
            with pytest.raises(PreconditionError):
                fm_sup(rows, n, objective)
            with pytest.raises(PreconditionError):
                reference_fm_sup(rows, n, objective)
            seen["infeasible"] += 1
            continue
        value = fm_sup(rows, n, objective)
        assert value == reference_fm_sup(rows, n, objective), (rows, objective)
        seen["bounded" if value is not None else "unbounded"] += 1
    assert min(seen.values()) > 50, seen


def random_fm_system(rng, n):
    """A random system in n variables: integer or rational coefficients
    and right-hand sides, some rows repeated at another positive scale
    with another right-hand side, and in up to 3 variables sometimes a box
    around the origin so that bounded systems occur."""
    rows = []
    for _ in range(rng.randint(1, 5)):
        coeffs = [rng.randint(-3, 3) for _ in range(n)]
        rhs = rng.randint(-6, 6)
        if rng.random() < 0.15:
            coeffs = [Fraction(c, rng.randint(1, 4)) for c in coeffs]
        if rng.random() < 0.15:
            rhs = Fraction(rhs, rng.randint(1, 5))
        rows.append((tuple(coeffs), rhs))
        if rng.random() < 0.3:
            scale = rng.choice([2, 3, 6, Fraction(1, 2), Fraction(3, 4)])
            shift = rng.choice([-1, 0, 1, Fraction(1, 3)])
            scaled = tuple(c * scale for c in coeffs)
            if all(type(c) is int or c.denominator == 1 for c in scaled):
                scaled = tuple(int(c) for c in scaled)
            rows.append((scaled, rhs * scale + shift))
    if n < 4 and rng.random() < 0.4:
        for i in range(n):
            unit = tuple(int(i == j) for j in range(n))
            bound = rng.randint(2, 5)
            rows.append((unit, -bound))
            rows.append((tuple(-x for x in unit), -bound))
    rng.shuffle(rows)
    return rows


def half_space_set(system):
    """A projected system as a set of half-spaces, each keyed by its
    Fraction row at a leading +-1."""
    return {reference_row_canonical(row) for row in fraction_rows(system)}


def test_integer_fm_matches_fraction_reference():
    # the integer elimination keeps each projected system's half-spaces,
    # so feasibility, fm_sample and fm_sup equal the Fraction reference's;
    # on integer input every projected row has primitive int coefficients
    # and a Fraction right-hand side only where the gcd leaves one
    rng = random.Random(59)
    seen = dict.fromkeys(["infeasible", "bounded", "unbounded", "integer", "rational", "parallel"], 0)
    for _ in range(1000):
        n = rng.randint(1, 4)
        rows = random_fm_system(rng, n)
        integer_input = all(type(c) is int for coeffs, rhs in rows for c in coeffs + (rhs,))
        seen["integer" if integer_input else "rational"] += 1
        normals = [reference_row_canonical(row)[0] for row in fraction_rows(rows)]
        seen["parallel"] += len(set(normals)) < len(normals)
        systems = _fm_project_all(rows, n)
        expected = reference_fm_project_all(rows, n)
        assert (systems is None) == (expected is None), rows
        assert fm_feasible(rows, n) == (expected is not None)
        assert fm_sample(rows, n) == reference_fm_sample(rows, n), rows
        objective = [rng.choice([-2, -1, 0, 1, 2, Fraction(1, 2)]) for _ in range(n)]
        if systems is None:
            seen["infeasible"] += 1
            with pytest.raises(PreconditionError):
                fm_sup(rows, n, objective)
            continue
        for j in range(n):
            assert half_space_set(systems[j]) == half_space_set(expected[j]), (rows, j)
            for coeffs, rhs in systems[j]:
                assert all(type(c) is int for c in coeffs), (rows, j)
                assert math.gcd(*coeffs) == 1, (rows, j)
                assert type(rhs) is int or (type(rhs) is Fraction and rhs.denominator != 1)
        value = fm_sup(rows, n, objective)
        assert value == reference_fm_sup(rows, n, objective), (rows, objective)
        assert value is None or type(value) is Fraction
        seen["bounded" if value is not None else "unbounded"] += 1
        sample = fm_sample(rows, n)
        assert all(type(x) is Fraction for x in sample)
        if integer_input:
            assert all(
                type(rhs) is int or rhs.denominator != 1
                for system in systems[:n]
                for _, rhs in system
            )
    assert min(seen.values()) > 100, seen


def test_row_lines_match_covers():
    # per row, the planes as lines d + c t in levels, or None for a plane
    # holding the whole row, agree with covers at every point of the row
    rng = random.Random(61)
    whole = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        planes = []
        for _ in range(rng.randint(0, 5)):
            v = tuple(rng.randint(-3, 3) for _ in range(k))
            if any(v):
                planes.append(Hyperplane.make(v, rng.randint(-6, 6)))
        cover = MeasureZeroSet.make(planes)
        for rest in window(k - 1, -3, 3):
            lines = cover.row_lines(rest)
            whole += lines is None
            for t in range(-12, 13):
                z = rest + (t,)
                on_line = lines is None or any(d + c * t in levels for d, c, levels in lines)
                assert cover.covers(z) == on_line, (planes, z)
    assert whole > 50


def test_certificate_cover_matches_reference():
    rng = random.Random(43)
    for _ in range(500):
        k = rng.randint(1, 3)
        r = random_region(rng, k)
        assert certificate_cover(r) == reference_certificate_cover(r), r
