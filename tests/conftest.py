"""Shared helpers for building random decomposition forms and specs."""

from fractions import Fraction

from hyperterm.oresato import Chain, OreSatoForm, ratio_from_form
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import UniPoly, gcd
from hyperterm.termratio import TermSpec


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
