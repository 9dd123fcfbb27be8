"""Benchmark inputs and the pipeline each workload runs.

Every workload is a list of ``Case``s.  A case is one spec with what the
benchmark expects of it: the compatibility verdict, and for the build
workloads the comparison window and a few spot points where the closed form
must equal an independent formula for the term.  ``--seed`` chooses the
spot points, and the scalars of the ``decompose_batch`` specs; the specs and
windows of the three build workloads are fixed, so their timings do not
depend on it.

Layer functions are looked up on their modules at call time, so the wrappers
``tracing`` installs are the ones called.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

from hyperterm import jsonio, oracle, oresato, poly, structure, termratio
from hyperterm.errors import HypertermError
from hyperterm.geometry import LatticeBox
from hyperterm.oresato import Chain, OreSatoForm
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import UniPoly
# bound before any tracing wrapper is installed, so spot checks stay untraced
from hyperterm.structure import closed_form_eval as untraced_closed_form_eval
from hyperterm.termratio import FactoredRational, TermSpec

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

BATCH_SIZE = 300
SPOT_POINTS = 16


@dataclass
class Case:
    spec: TermSpec
    compatible: bool = True
    window: Optional[LatticeBox] = None
    # points of reached pieces, and the exact value an independent formula
    # gives there; the closed form must be defined and equal at each
    spots: list = field(default_factory=list)


@dataclass
class Outcome:
    """What one case produced, with its solve and verify wall times."""

    solve_s: float
    verify_s: float
    failed: bool
    points: int = 0  # window points, or 1 per batch spec
    equal: int = 0  # window points equal to the oracle, or 1 per passed spec
    pieces: int = 0
    unreachable: int = 0
    excluded_planes: int = 0
    checked: int = 0
    mismatches: int = 0
    digest_parts: list = field(default_factory=list)


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def _load_spec(path: Path) -> TermSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return jsonio.spec_from_json(json.load(fh))


def _spots(rng: random.Random, sample: Callable, formula: Callable) -> list:
    points = [sample(rng) for _ in range(SPOT_POINTS)]
    return [(z, formula(z)) for z in points]


def _odd_product(z: int) -> Fraction:
    """gp(0, z) of (2j + 1), with the reciprocal convention for z < 0."""
    value = Fraction(1)
    for j in range(z):
        value *= 2 * j + 1
    for j in range(z, 0):
        value /= 2 * j + 1
    return value


def _binomial_sample(rng: random.Random) -> tuple:
    # strictly inside 0 < z2 < z1, off the excluded planes z2 = 0, z1 = z2
    z1 = rng.randint(2, 40)
    return (z1, rng.randint(1, z1 - 1))


def flood3d(seed: int, tiny: bool) -> list[Case]:
    """choose(z1, z2) * 3^z3 seeded f(0,0,0) = 1, compared on [-4,4]^3."""
    rng = random.Random(seed)
    window = LatticeBox((0, 0, 0), 2) if tiny else LatticeBox((-4, -4, -4), 8)
    spec = _load_spec(BENCH_DIR / "specs" / "flood3d.json")

    def sample(r):
        z1, z2 = _binomial_sample(r)
        return (z1, z2, r.randint(-6, 6))

    spots = _spots(rng, sample, lambda z: math.comb(z[0], z[1]) * Fraction(3) ** z[2])
    return [Case(spec, window=window, spots=spots)]


def wedge3d(seed: int, tiny: bool) -> list[Case]:
    """C = z1*z2 + z3 with the chain (1,0,1): t + 1, seeded f(1,1,1) = 1.

    On z1 + z3 >= 0 the term is (z1*z2 + z3) * (z1 + z3)! / 4; one of the two
    pieces is unreachable from the seed.  The spot points lie on z1 + z3 >= 9,
    in the reached piece, past the excluded planes z1 + z3 = -13..8."""
    rng = random.Random(seed)
    size = 2 if tiny else 6
    spec = _load_spec(BENCH_DIR / "specs" / "wedge3d.json")

    def sample(r):
        z1 = r.randint(0, 20)
        return (z1, r.randint(-10, 10), r.randint(9 - z1, 20))

    def formula(z):
        return Fraction((z[0] * z[1] + z[2]) * math.factorial(z[0] + z[2]), 4)

    spots = _spots(rng, sample, formula)
    return [Case(spec, window=LatticeBox((-2, -2, 8), size), spots=spots)]


def grid2d(seed: int, tiny: bool) -> list[Case]:
    """The two repository specs, each built once and compared on [-30,30]^k."""
    rng = random.Random(seed)
    lo, size = (-3, 6) if tiny else (-30, 60)
    binomial = _load_spec(ROOT / "specs" / "binomial.json")
    odd = _load_spec(ROOT / "specs" / "odd.json")
    return [
        Case(
            binomial,
            window=LatticeBox((lo, lo), size),
            spots=_spots(rng, _binomial_sample, lambda z: Fraction(math.comb(*z))),
        ),
        Case(
            odd,
            window=LatticeBox((lo,), size),
            spots=_spots(rng, lambda r: (r.randint(-40, 40),), lambda z: _odd_product(z[0])),
        ),
    ]


# The generator below mirrors the random forms of the test suite, kept here
# so that edits to the tests never move the benchmark.

_POOL_CD = {
    1: ["z1 + 2", "z1^2 + 1"],
    2: ["z1*z2 + 1", "z1 + z2", "z1 + 2*z2 - 1", "z1^2 + z2^2 + 1"],
    3: ["z1*z2 + z3", "z1 + z2 + z3", "z1 + 2*z3 - 1"],
}
_POOL_UNI = ["t + 1", "2*t + 1", "t + 3", "t", "3*t - 1"]
_DIRECTIONS = {
    1: [(1,)],
    2: [(1, 0), (0, 1), (1, -1), (1, 1), (2, 1)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, 1)],
}


def random_form(shape: random.Random, values: random.Random, k: int) -> OreSatoForm:
    """A small random decomposition form: C/D from a coprime pool, up to two
    chains, rational per-axis scalars.  ``shape`` draws C, D and the chains,
    ``values`` the scalars."""
    pool_cd = [parse_multipoly(t, k) for t in _POOL_CD[k]]
    pool_uni = [parse_unipoly(t) for t in _POOL_UNI]
    c = parse_multipoly("1", k)
    d = parse_multipoly("1", k)
    if shape.random() < 0.5:
        c = shape.choice(pool_cd)
    if shape.random() < 0.5:
        remaining = [p for p in pool_cd if poly.gcd(p, c).is_constant]
        if remaining:
            d = shape.choice(remaining)
    chains = []
    dirs = _DIRECTIONS[k]
    for v in shape.sample(dirs, shape.randint(0, min(2, len(dirs)))):
        num = shape.choice(pool_uni) if shape.random() < 0.7 else UniPoly.constant(1)
        den = shape.choice(pool_uni) if shape.random() < 0.5 else UniPoly.constant(1)
        if num.is_constant and den.is_constant:
            continue
        chains.append(Chain(v, num, den))
    gamma = tuple(Fraction(values.choice([1, 1, 2, 3, -2])) for _ in range(k))
    return OreSatoForm(k, c, d, gamma, tuple(chains))


def _units(k: int) -> list[tuple]:
    return [tuple(1 if j == i else 0 for j in range(k)) for i in range(k)]


def spec_from_form(form: OreSatoForm) -> TermSpec:
    ratios = [oresato.ratio_from_form(form, e) for e in _units(form.arity)]
    return TermSpec.from_ratios(form.arity, ratios)


def decompose_batch(seed: int, tiny: bool) -> list[Case]:
    """Random specs with k = 1..3.  Every fifth one is a k = 2 spec with R_1
    multiplied by (z2 + c), which no second generator balances, so it is
    incompatible.

    The arity, C, D and chains of each spec come from a fixed stream, in a
    fixed order, because they set its cost and, through the shared
    ``lru_cache``s, the cost of the specs after it; ``seed`` draws the
    per-axis scalars and c.  So every seed gives other specs of the same
    shapes, and neither the batch cost nor its percentiles move with it."""
    shape = random.Random(0)
    values = random.Random(seed)
    cases = []
    for i in range(20 if tiny else BATCH_SIZE):
        if i % 5 == 4:
            spec = spec_from_form(random_form(shape, values, 2))
            c = values.randint(-3, 3)
            text = f"z2 + {c}" if c >= 0 else f"z2 - {-c}"
            extra = FactoredRational.from_poly(parse_multipoly(text, 2))
            r1, r2 = spec.ratios()
            spec = TermSpec.from_ratios(2, [r1 * extra, r2])
            cases.append(Case(spec, compatible=False))
        else:
            k = shape.choice([1, 2, 2, 3])
            cases.append(Case(spec_from_form(random_form(shape, values, k))))
    return cases


WORKLOADS = {
    "flood3d": flood3d,
    "wedge3d": wedge3d,
    "grid2d": grid2d,
    "decompose_batch": decompose_batch,
}


# ---------------------------------------------------------------------------
# pipeline
# ---------------------------------------------------------------------------


def run_decompose(case: Case, clock: Callable[[], float]) -> Outcome:
    """check -> decompose, then the round trip ratio_from_form(form, e_i) = R_i."""
    t0 = clock()
    try:
        verdict = termratio.check_compatibility(case.spec)
        form = oresato.decompose(case.spec) if verdict else None
        t1 = clock()
        ok = verdict == case.compatible
        if form is not None:
            ratios = case.spec.ratios()
            for i, e in enumerate(_units(case.spec.arity)):
                ok = ok and oresato.ratio_from_form(form, e).eq_rational(ratios[i])
    except HypertermError:
        t1 = clock()
        verdict, form, ok = None, None, False
    t2 = clock()
    digest = [verdict, None if form is None else jsonio.form_to_json(form)]
    return Outcome(t1 - t0, t2 - t1, not ok, points=1, equal=int(ok), digest_parts=digest)


def run_build(case: Case, clock: Callable[[], float]) -> Outcome:
    """check -> build_structure -> split_factorial -> to_pochhammer, then
    grid_compare on the case window and the spot points."""
    points = (case.window.size + 1) ** case.spec.arity
    t0 = clock()
    try:
        if not termratio.check_compatibility(case.spec):
            raise HypertermError("compatible spec reported incompatible")
        ps = structure.build_structure(case.spec)
        forms = [structure.to_pochhammer(ff) for ff in structure.split_factorial(ps)]
        t1 = clock()
        report = oracle.grid_compare(ps, case.spec, case.window)
        t2 = clock()
    except HypertermError:
        t1 = t2 = clock()
        return Outcome(t1 - t0, t2 - t1, True, points=points)
    # spot points are checked outside the timed region
    try:
        got = [untraced_closed_form_eval(ps, z) for z, _ in case.spots]
        spots_ok = all(g.status == "ok" and g.value == v for g, (_, v) in zip(got, case.spots))
    except HypertermError:
        spots_ok = False
    return Outcome(
        t1 - t0,
        t2 - t1,
        failed=bool(report.mismatches) or not spots_ok or report.checked == 0,
        points=points,
        equal=report.equal,
        pieces=len(ps.pieces),
        unreachable=sum(1 for p in ps.pieces if p.base_value is None),
        excluded_planes=len(ps.excluded),
        checked=report.checked,
        mismatches=len(report.mismatches),
        digest_parts=[
            jsonio.structure_to_json(ps),
            jsonio.report_to_json(report),
            [jsonio.pochhammer_to_json(pf) for pf in forms],
        ],
    )


def run_case(workload: str, case: Case, clock: Callable[[], float]) -> Outcome:
    if workload == "decompose_batch":
        return run_decompose(case, clock)
    return run_build(case, clock)


def digest(outcomes: list[Outcome]) -> str:
    """sha256 of the jsonio output of every case."""
    text = json.dumps([o.digest_parts for o in outcomes], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()
