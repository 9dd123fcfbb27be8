"""Shared helpers: the example spec files, and random decomposition forms
and specs."""

import json
from fractions import Fraction
from pathlib import Path

from hyperterm.jsonio import spec_from_json
from hyperterm.oresato import Chain, OreSatoForm, ratio_from_form
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import UniPoly, gcd
from hyperterm.termratio import TermSpec


REPO = Path(__file__).resolve().parent.parent
# name -> an example spec file: f(z1) = gp(0, z1) of (2j + 1), the odd double
# factorials extended to negative arguments by the reciprocal convention;
# choose(z1, z2) from its two quotients and f(0, 0) = 1; f = 1 on Z; and the
# zero divisor A_1 = z1, B_1 = z1 + 1, a term supported on the line z1 = 0
SPEC_FILES = {
    "odd": REPO / "specs" / "odd.json",
    "binomial": REPO / "specs" / "binomial.json",
    "constant": REPO / "tests" / "data" / "constant.json",
    "annihilated": REPO / "tests" / "data" / "annihilated.json",
}


def load_spec(name):
    """The spec of the example file ``SPEC_FILES[name]``."""
    return spec_from_json(json.loads(SPEC_FILES[name].read_text(encoding="utf-8")))


def example_specs():
    """Name -> spec for the constant, odd and binomial examples."""
    return {name: load_spec(name) for name in ("constant", "odd", "binomial")}


DIRECTIONS = {
    1: [(1,)],
    2: [(1, 0), (0, 1), (1, -1), (1, 1), (2, 1)],
    3: [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, -1, 0), (1, 0, 1)],
}


def random_form(rng, k):
    """A small random decomposition form: C/D from a coprime pool, up to two
    chains, rational per-axis scalars."""
    pool_cd = {
        1: [parse_multipoly(t, 1) for t in ["z1 + 2", "z1^2 + 1"]],
        2: [
            parse_multipoly(t, 2)
            for t in ["z1*z2 + 1", "z1 + z2", "z1 + 2*z2 - 1", "z1^2 + z2^2 + 1"]
        ],
        3: [
            parse_multipoly(t, 3)
            for t in ["z1*z2 + z3", "z1 + z2 + z3", "z1 + 2*z3 - 1"]
        ],
    }[k]
    pool_uni = [parse_unipoly(t) for t in ["t + 1", "2*t + 1", "t + 3", "t", "3*t - 1"]]
    dirs = DIRECTIONS[k]
    c = parse_multipoly("1", k)
    d = parse_multipoly("1", k)
    if rng.random() < 0.5:
        c = rng.choice(pool_cd)
    if rng.random() < 0.5:
        remaining = [p for p in pool_cd if gcd(p, c).is_constant]
        if remaining:
            d = rng.choice(remaining)
    chains = []
    for v in rng.sample(dirs, rng.randint(0, min(2, len(dirs)))):
        num = rng.choice(pool_uni) if rng.random() < 0.7 else UniPoly.constant(1)
        den = rng.choice(pool_uni) if rng.random() < 0.5 else UniPoly.constant(1)
        if num.is_constant and den.is_constant:
            continue
        chains.append(Chain(v, num, den))
    gamma = tuple(Fraction(rng.choice([1, 1, 2, 3, -2])) for _ in range(k))
    return OreSatoForm(k, c, d, gamma, tuple(chains))


def spec_from_form(form, seed=None):
    k = form.arity
    ratios = []
    for i in range(k):
        e = tuple(1 if j == i else 0 for j in range(k))
        ratios.append(ratio_from_form(form, e))
    return TermSpec.from_ratios(k, ratios, seed=seed)
