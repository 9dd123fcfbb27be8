"""Differential tests of poly against sympy, an independent implementation.

sympy is a test-only dependency; without it these tests skip."""

import itertools
import random
from fractions import Fraction

import pytest

from hyperterm.poly import MultiPoly, UniPoly, coprime_base, detect_simple, gcd, rational_roots

sympy = pytest.importorskip("sympy")

GENS = sympy.symbols("z1:5")
T = sympy.Symbol("t")


def _to_sympy(p: MultiPoly):
    return sympy.Poly.from_dict(dict(p.terms), *GENS[: p.arity])


def _from_sympy(poly, arity: int) -> MultiPoly:
    return MultiPoly.from_dict(
        arity, {m: Fraction(int(c.p), int(c.q)) for m, c in poly.terms()}
    )


def _random_poly(rng, arity, degree):
    """A random integer polynomial of total degree at most ``degree``,
    never constant when degree >= 1."""
    monos = [m for m in itertools.product(range(degree + 1), repeat=arity) if sum(m) <= degree]
    while True:
        coeffs = {m: rng.randint(-3, 3) for m in rng.sample(monos, min(len(monos), 4))}
        p = MultiPoly.from_dict(arity, coeffs)
        if not p.is_zero and (degree == 0 or not p.is_constant):
            return p


def test_gcd_matches_sympy():
    rng = random.Random(7)
    for _ in range(120):
        k = rng.randint(1, 3)
        # plant a shared factor g; total degrees stay at most 4
        g = _random_poly(rng, k, rng.randint(0, 2))
        a = _random_poly(rng, k, rng.randint(0, 4 - g.total_degree()))
        b = _random_poly(rng, k, rng.randint(0, 4 - g.total_degree()))
        p, q = a * g, b * g
        expected = _from_sympy(sympy.gcd(_to_sympy(p), _to_sympy(q)), k)
        assert gcd(p, q) == expected.normalized()[1], (p, q)
        assert gcd(q, p) == gcd(p, q)
    # the scale the gcd docstring states: arity up to 4, total degree up to 6,
    # with shared factors of up to three random parts
    for _ in range(120):
        k = rng.randint(1, 4)
        g = MultiPoly.constant(k, 1)
        for _ in range(rng.randint(0, 3)):
            factor = _random_poly(rng, k, rng.randint(1, 2))
            if g.total_degree() + factor.total_degree() <= 4:
                g = g * factor
        room = 6 - g.total_degree()
        p = _random_poly(rng, k, rng.randint(0, room)) * g
        q = _random_poly(rng, k, rng.randint(0, room)) * g
        expected = _from_sympy(sympy.gcd(_to_sympy(p), _to_sympy(q)), k)
        assert gcd(p, q) == expected.normalized()[1], (p, q)
        assert gcd(q, p) == gcd(p, q)


def _side(pairs, i, sign, k):
    """The product of p ** |e_i| over the pairs whose e_i has the sign."""
    out = sympy.Poly(1, *GENS[:k])
    for p, e in pairs:
        if sign * e[i] > 0:
            out *= _to_sympy(p) ** (sign * e[i])
    return out


def test_coprime_base_matches_sympy():
    rng = random.Random(11)
    for _ in range(60):
        k = rng.randint(1, 3)
        atoms = [_random_poly(rng, k, rng.randint(1, 2)) for _ in range(3)]
        pool = []
        for _ in range(rng.randint(2, 4)):
            # products of atoms, so that the inputs share factors
            p = MultiPoly.constant(k, 1)
            for atom in rng.sample(atoms, rng.randint(1, 2)):
                p = p * atom
            pool.append((p.normalized()[1], (rng.randint(-2, 2), rng.randint(-2, 2))))
        base = coprime_base([pair] for pair in pool)
        for b, _ in base:
            assert not b.is_constant and b.normalized() == (1, b)
        for (b1, _), (b2, _) in itertools.combinations(base, 2):
            assert sympy.gcd(_to_sympy(b1), _to_sympy(b2)).is_ground
        # the product of the powers is kept in every exponent coordinate:
        # pool / base = 1, cross-multiplied
        for i in range(2):
            lhs = _side(pool, i, 1, k) * _side(base, i, -1, k)
            assert lhs == _side(base, i, 1, k) * _side(pool, i, -1, k), (pool, base)


def test_rational_roots_match_sympy():
    rng = random.Random(13)
    for _ in range(150):
        # plant rational roots a/b, then a cofactor; degree at most 4
        p = UniPoly.make([rng.choice([-3, -2, -1, 1, 2, 3])])
        for _ in range(rng.randint(0, 3)):
            a, b = rng.randint(-4, 4), rng.randint(1, 3)
            p = p * UniPoly.make([-a, b])
        if p.degree() < 4:
            p = p * UniPoly.make([rng.randint(-3, 3) for _ in range(4 - p.degree())] + [1])
        roots, cofactor = rational_roots(p)
        # the rational roots are those of the linear factors over Q
        _, factors = sympy.factor_list(sympy.Poly(list(reversed(p.coeffs)), T))
        expected = sorted(
            Fraction(-int(f.nth(0)), int(f.nth(1)))
            for f, mult in factors
            if f.degree() == 1
            for _ in range(mult)
        )
        assert roots == expected, p
        product = cofactor
        for r in roots:
            product = product * UniPoly.make([-r, 1])
        assert product == p


def _compose(coeffs, direction, offset: int = 0):
    """q(v . z + offset) expanded by sympy, for q with the given
    coefficients, constant first."""
    k = len(direction)
    t = sympy.Poly(sum(x * z for x, z in zip(direction, GENS)) + offset, *GENS[:k])
    return sum((sympy.Rational(c) * t**n for n, c in enumerate(coeffs)), sympy.Poly(0, *GENS[:k]))


def _partials_rank(p) -> int:
    """The rank of the coefficient matrix of the partials of p."""
    rows = [p.diff(z).as_dict() for z in p.gens]
    monos = sorted({m for row in rows for m in row})
    return sympy.Matrix([[row.get(m, 0) for m in monos] for row in rows]).rank()


def test_detect_simple_matches_sympy():
    rng = random.Random(17)
    outcomes = {True: 0, False: 0}
    for _ in range(200):
        k = rng.randint(1, 3)
        v = [0] * k
        while not any(v):
            v = [rng.randint(-3, 3) for _ in range(k)]
        # planted q(v . z + c), q of degree 1..4
        q = [Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(rng.randint(1, 4))]
        q.append(Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)))
        planted = _compose(q, v, rng.randint(-3, 3))
        got = detect_simple(_from_sympy(planted, k))
        assert got is not None, planted
        assert (_compose(got[1].coeffs, got[0]) - planted).is_zero, planted
        # perturbed: simple exactly when the partials span at most a line
        perturbed = planted + _to_sympy(_random_poly(rng, k, rng.randint(0, 3)))
        if perturbed.is_zero:
            continue
        got = detect_simple(_from_sympy(perturbed, k))
        assert (got is None) == (_partials_rank(perturbed) >= 2), perturbed
        if got is not None:
            assert (_compose(got[1].coeffs, got[0]) - perturbed).is_zero, perturbed
        outcomes[got is None] += 1
    # both outcomes occur among the perturbed polynomials
    assert min(outcomes.values()) >= 20, outcomes
