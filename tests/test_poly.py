import itertools
import math
import random
from fractions import Fraction

import pytest

from conftest import random_form
from hyperterm import poly
from hyperterm._frozen import FrozenInstanceError, replace
from hyperterm.oresato import ratio_from_form
from hyperterm.errors import DimensionError, PreconditionError
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import (
    MultiPoly,
    UniPoly,
    coprime_base,
    detect_simple,
    exact_div,
    expand,
    find_nonzero_in_box,
    gcd,
    integer_roots,
    primitive_vector,
    rational_roots,
)


def P(text, k):
    return parse_multipoly(text, k)


def random_poly(rng, arity, degree, n_terms=4):
    d = {}
    for _ in range(n_terms):
        mono = [0] * arity
        budget = rng.randint(0, degree)
        for _ in range(budget):
            mono[rng.randrange(arity)] += 1
        d[tuple(mono)] = Fraction(rng.randint(-5, 5))
    return MultiPoly.from_dict(arity, d)


# -- shift -------------------------------------------------------------------


def test_shift_square():
    p = P("z1^2", 2)
    assert p.shift((1, 0)) == P("z1^2 + 2*z1 + 1", 2)


def test_shift_zero_is_identity():
    p = P("z1^2 - 3*z2 + 1/2", 2)
    assert p.shift((0, 0)) == p


def test_shift_linear():
    p = P("z1 - z2", 2)
    assert p.shift((2, 3)) == P("z1 - z2 - 1", 2)


def test_shift_arity_mismatch():
    with pytest.raises(DimensionError):
        P("z1", 1).shift((1, 2))


def test_shift_composes():
    rng = random.Random(7)
    for _ in range(30):
        k = rng.randint(1, 3)
        p = random_poly(rng, k, 4)
        u = tuple(rng.randint(-3, 3) for _ in range(k))
        w = tuple(rng.randint(-3, 3) for _ in range(k))
        uw = tuple(a + b for a, b in zip(u, w))
        assert p.shift(u).shift(w) == p.shift(uw)
        # spot check against direct evaluation
        z = tuple(rng.randint(-4, 4) for _ in range(k))
        zu = tuple(a + b for a, b in zip(z, u))
        assert p.shift(u).evaluate(z) == p.evaluate(zu)


def reference_shift(p, v):
    """p(z + v) by substituting z_i + v_i into every monomial and
    multiplying out with polynomial arithmetic."""
    k = p.arity
    out = MultiPoly.constant(k, 0)
    for mono, c in p.terms:
        term = MultiPoly.constant(k, c)
        for i, e in enumerate(mono):
            term = term * (MultiPoly.variable(k, i) + MultiPoly.constant(k, v[i])) ** e
        out = out + term
    return out


def test_shift_matches_substitution():
    rng = random.Random(23)
    for _ in range(100):
        k = rng.randint(1, 3)
        p = random_poly(rng, k, 4)
        v = tuple(rng.randint(-4, 4) for _ in range(k))
        assert p.shift(v) == reference_shift(p, v)
        if any(v):
            # memoized by value: an equal polynomial and an equal vector,
            # given as a list, get the same instance back
            assert MultiPoly(k, p.terms).shift(list(v)) is p.shift(v)


def test_shift_by_zero_is_the_polynomial_itself():
    rng = random.Random(29)
    for k in (1, 2, 3):
        p = random_poly(rng, k, 3)
        assert p.shift((0,) * k) is p


def test_shift_vector_follows_the_integer_rule():
    p = P("z1^2 + z2", 2)
    assert p.shift((2.0, Fraction(-2, 2))) == p.shift((2, -1)) == P("z1^2 + 4*z1 + z2 + 3", 2)
    for bad in [(1.5, 0), (True, 0), (Fraction(1, 2), 0), ("1", 0)]:
        with pytest.raises(TypeError):
            p.shift(bad)


# -- hashing -------------------------------------------------------------------


def test_equal_polynomials_hash_equal_whatever_their_route():
    text = "z1^2 + 2*z1*z2 + z2^2 - 1"
    first = P(text, 2)
    routes = [
        first,
        P("z1 + z2 + 1", 2) * P("z1 + z2 - 1", 2),
        MultiPoly.from_dict(2, {(0, 2): 1, (1, 1): 2, (2, 0): 1, (0, 0): Fraction(-2, 2)}),
        P(text, 2).shift((3, -2)).shift((-3, 2)),
        MultiPoly(2, first.terms),
    ]
    for p in routes:
        assert p == first
        # the hash and repr of the fields, as before it was kept
        assert hash(p) == hash(first) == hash((2, first.terms))
        assert repr(p) == f"MultiPoly(arity=2, terms={first.terms!r})"
    assert len(set(routes)) == 1
    assert first != P("z1^2 + 2*z1*z2 + z2^2 + 1", 2)
    assert first != P(text, 3)


def test_fields_stay_frozen_after_hashing():
    p = P("z1 + 1", 1)
    hash(p)
    for name, value in [("arity", 2), ("terms", ()), ("_hash", 0)]:
        with pytest.raises(FrozenInstanceError):
            setattr(p, name, value)
    assert p == P("z1 + 1", 1) and hash(p) == hash((1, p.terms))


# -- products of powers --------------------------------------------------------


def test_expand_starts_each_side_from_its_first_base():
    a, b = P("z1 + z2 + 1", 2), P("z1 - 2", 2)
    one = MultiPoly.constant(2, 1)
    assert expand(one, [(a, 1)])[0] is a
    assert expand(one, []) == expand(one, [(a, 0)]) == (one, one)
    assert expand(one, [(a, 2), (b, -3), (a, 1)]) == (a * a * a, b * b * b)
    t = parse_unipoly("t + 1")
    assert expand(UniPoly.constant(1), [(t, -2)]) == (UniPoly.constant(1), t * t)
    with pytest.raises(PreconditionError):
        a ** -1


def test_power_matches_the_multinomial_coefficients():
    # (z1 + z2 + 1)^n has coefficient n! / (i! j! (n - i - j)!) at z1^i z2^j
    base = P("z1 + z2 + 1", 2)
    for n in [0, 1, 2, 3, 7, 20]:
        expected = {
            (i, j): math.factorial(n) // (math.factorial(i) * math.factorial(j) * math.factorial(n - i - j))
            for i in range(n + 1)
            for j in range(n + 1 - i)
        }
        assert base**n == MultiPoly.from_dict(2, expected)


# -- integer evaluation -------------------------------------------------------


def _term_sum(p, z):
    """p(z) summed term by term in Fraction arithmetic: the reference for
    the one evaluation loop, over the cleared form, behind both
    ``evaluate_cleared`` and ``evaluate``."""
    return sum(
        (c * math.prod(Fraction(x) ** e for x, e in zip(z, mono)) for mono, c in p.terms),
        Fraction(0),
    )


def test_evaluate_cleared_matches_evaluate_random():
    # rational coefficients; each polynomial carries a linear factor with a
    # known integer root, and half the points are moved onto that root
    rng = random.Random(73)
    roots_hit = 0
    for _ in range(60):
        k = rng.randint(1, 3)
        q = MultiPoly.from_dict(
            k,
            {
                tuple(rng.randint(0, 2) for _ in range(k)): Fraction(
                    rng.randint(-9, 9), rng.randint(1, 12)
                )
                for _ in range(rng.randint(1, 4))
            },
        )
        axis, root = rng.randrange(k), rng.randint(-4, 4)
        linear = MultiPoly.linear(
            [rng.randint(1, 3) if i == axis else 0 for i in range(k)]
        )
        shift = linear.evaluate([root if i == axis else 0 for i in range(k)])
        p = q * (linear - MultiPoly.constant(k, shift))
        d, terms = p.cleared
        assert d == math.lcm(*(c.denominator for _, c in p.terms))
        for (mono, coeff), (c, variables) in zip(p.terms, terms):
            assert c == coeff * d
            assert sorted(variables) == [i for i, e in enumerate(mono) for _ in range(e)]
        for _ in range(10):
            z = [rng.randint(-6, 6) for _ in range(k)]
            if rng.random() < 0.5:
                z[axis] = root
            z = tuple(z)
            value = p.evaluate_cleared(z)
            assert isinstance(value, int)
            assert value == d * _term_sum(p, z) == d * p.evaluate(z)
            if z[axis] == root:
                assert value == 0
                roots_hit += 1
        # evaluate also takes rational coordinates and gives a Fraction
        z = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(k))
        value = p.evaluate(z)
        assert type(value) is Fraction and value == _term_sum(p, z)
    assert roots_hit > 100


def test_evaluate_cleared_is_kept_on_the_polynomial():
    p = P("1/6*z1^2 - 3/4*z2 + 1/2", 2)
    assert p.cleared is p.cleared
    assert p.cleared[0] == 12
    assert p.evaluate_cleared((3, -2)) == 12 * p.evaluate((3, -2))
    assert MultiPoly(2, ()).evaluate_cleared((5, 5)) == 0


def test_unipoly_evaluate_cleared_matches_evaluate_random():
    # rational coefficients, the zero polynomial among them, at negative,
    # zero and positive arguments
    rng = random.Random(74)
    polys = [UniPoly.make([]), UniPoly.constant(Fraction(-3, 4))]
    for _ in range(40):
        polys.append(
            UniPoly.make(
                Fraction(rng.randint(-9, 9), rng.randint(1, 12))
                for _ in range(rng.randint(0, 5))
            )
        )
    assert any(p.is_zero for p in polys)
    for p in polys:
        d, coeffs = p.cleared
        assert d == math.lcm(*(c.denominator for c in p.coeffs))
        assert coeffs == tuple(c * d for c in p.coeffs)
        for x in range(-7, 8):
            value = p.evaluate_cleared(x)
            assert isinstance(value, int)
            reference = sum((c * Fraction(x) ** i for i, c in enumerate(p.coeffs)), Fraction(0))
            assert value == d * reference == d * p.evaluate(x)
        x = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        value = p.evaluate(x)
        assert type(value) is Fraction
        assert value == sum((c * x**i for i, c in enumerate(p.coeffs)), Fraction(0))


def test_unipoly_evaluate_cleared_is_kept_on_the_polynomial():
    p = parse_unipoly("1/6*t^2 - 3/4*t + 1/2")
    assert p.cleared is p.cleared
    assert p.cleared == (12, (6, -9, 2))
    assert p.evaluate_cleared(-2) == 12 * p.evaluate(-2)
    assert p.evaluate_cleared(0) == 6
    assert UniPoly.make([]).cleared == (1, ())
    assert UniPoly.make([]).evaluate_cleared(5) == 0


def _shift_arg_horner(p, c):
    """p(t + c) by Horner's rule over UniPoly products: the reference for the
    Taylor shift of ``UniPoly.shift_arg``."""
    result = UniPoly(())
    linear = UniPoly.make([c, 1])
    for coeff in reversed(p.coeffs):
        result = result * linear + UniPoly.constant(coeff)
    return result


def test_unipoly_shift_arg_matches_horner_random():
    rng = random.Random(29)

    def number():
        if rng.random() < 0.5:
            return rng.randint(-9, 9)
        return Fraction(rng.randint(-9, 9), rng.randint(1, 6))

    for _ in range(400):
        p = UniPoly.make([number() for _ in range(rng.randint(0, 7))])
        c = number()
        got, expected = p.shift_arg(c), _shift_arg_horner(p, c)
        assert got == expected
        assert [type(x) for x in got.coeffs] == [type(x) for x in expected.coeffs]
        reflected = p.reflect(c)
        assert all(reflected.evaluate(t) == p.evaluate(c - t) for t in (-2, 0, 3))
    assert UniPoly.make([1, 2, 1]).shift_arg(-1) == UniPoly.make([0, 0, 1])
    with pytest.raises(TypeError):
        UniPoly.make([1, 1]).shift_arg(0.5)


# -- gcd and division ---------------------------------------------------------


def test_gcd_monomials():
    assert gcd(P("z1*z2", 2), P("z1*z2 + z1", 2)) == P("z1", 2)


def test_gcd_coprime():
    assert gcd(P("z1 + 1", 2), P("z2 + 1", 2)) == P("1", 2)


def test_gcd_repeated_factor():
    # oracle: divide both arguments by the reported gcd, check cofactors coprime
    a = P("(z1 - z2)^2 * (z1 + 1)", 2)
    b = P("(z1 - z2) * (z2 + 3)", 2)
    g = gcd(a, b)
    assert g == P("z1 - z2", 2)
    ca = exact_div(a, g)
    cb = exact_div(b, g)
    assert ca is not None and cb is not None
    assert gcd(ca, cb).is_constant


def test_gcd_with_zero():
    z = MultiPoly(2, ())
    p = P("-2*z1 + 4", 2)
    assert gcd(p, z) == P("z1 - 2", 2)
    assert gcd(z, z).is_zero


def test_gcd_divides_and_cofactors_coprime():
    rng = random.Random(11)
    for _ in range(25):
        k = rng.randint(1, 3)
        a = random_poly(rng, k, 2, 3)
        b = random_poly(rng, k, 2, 3)
        c = random_poly(rng, k, 2, 2)
        p, q = a * c, b * c
        g = gcd(p, q)
        if p.is_zero and q.is_zero:
            assert g.is_zero
            continue
        cp = exact_div(p, g)
        cq = exact_div(q, g)
        assert cp is not None and cq is not None
        if not p.is_zero and not q.is_zero:
            assert gcd(cp, cq).is_constant
            # c divides the gcd
            assert c.is_zero or exact_div(g, gcd(g, c.normalized()[1])) is not None


def test_gcd_cache_ignores_argument_order():
    p = P("(z1*z2 + 7)*(z1 - 5*z2 + 3)", 2)
    q = P("(z1*z2 + 7)*(z1^2 + 11)", 2)
    g = gcd(p, q)
    misses = poly._gcd.cache_info().misses
    assert gcd(q, p) == g == P("z1*z2 + 7", 2)
    assert poly._gcd.cache_info().misses == misses


def test_exact_div_rational_quotient():
    # integer arguments, rational quotient
    assert exact_div(P("2*z1^2 + 2*z1", 1), P("3*z1", 1)) == P("2/3*z1 + 2/3", 1)
    assert exact_div(P("2*z1 + 1", 1), P("2*z1 + 1", 1)) == P("1", 1)


def test_exact_div_failure():
    assert exact_div(P("z1 + 1", 1), P("z1", 1)) is None


def random_gcd_pair(rng):
    """(p, q) nonconstant, of arity 1..4 and total degree <= 6, sharing a
    planted factor: a product of random factors, sometimes a repeated
    one or a monomial; some inputs are scaled by a Fraction."""
    k = rng.randint(1, 4)
    shared = MultiPoly.constant(k, 1)
    for _ in range(rng.randint(0, 2)):
        kind = rng.random()
        if kind < 0.2:
            factor = MultiPoly.variable(k, rng.randrange(k))
        elif kind < 0.4:
            factor = random_poly(rng, k, 1, 2) ** 2
        else:
            factor = random_poly(rng, k, 2, rng.randint(2, 4))
        if not factor.is_zero and shared.total_degree() + factor.total_degree() <= 4:
            shared = shared * factor
    out = []
    while len(out) < 2:
        room = 6 - shared.total_degree()
        p = random_poly(rng, k, rng.randint(1, room), rng.randint(1, 5)) * shared
        if p.is_constant:
            continue
        if rng.random() < 0.3:
            p = p.scale(Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 9)))
        out.append(p)
    return tuple(out)


def test_gcdheu_matches_prs():
    rng = random.Random(23)
    answered = 0
    for _ in range(320):
        p, q = random_gcd_pair(rng)
        heuristic = poly._gcdheu(p, q)
        prs = poly._prs_gcd(p, q)
        if heuristic is not None:
            answered += 1
            assert heuristic == prs, (p, q)
        assert gcd(p, q) == prs == gcd(q, p), (p, q)
    # the PRS is the fallback, not the rule
    assert answered >= 300


def test_gcd_prs_fallback(monkeypatch):
    # with the heuristic answering None everywhere, the PRS alone (its
    # content gcds included) gives the gcds the heuristic gave
    rng = random.Random(29)
    pairs = [random_gcd_pair(rng) for _ in range(60)]
    pairs.append((P("(z1 - z2)^2 * (z1 + 1)", 2), P("(z1 - z2) * (z1*z2 + 3)", 2)))
    expected = [gcd(p, q) for p, q in pairs]
    assert expected[-1] == P("z1 - z2", 2)
    monkeypatch.setattr(poly, "_gcdheu", lambda p, q: None)
    poly._gcd.cache_clear()
    try:
        assert [gcd(p, q) for p, q in pairs] == expected
    finally:
        poly._gcd.cache_clear()


def reference_exact_div(p, q):
    """The division loop exact_div had before its in-place remainder: the
    remainder is a MultiPoly, reduced by a product of MultiPolys per step."""
    if q.is_zero:
        return None
    if p.is_zero:
        return p
    lq_mono, lq_coeff = q.leading()
    quotient = {}
    rem = p
    while not rem.is_zero:
        lr_mono, lr_coeff = rem.leading()
        m = poly._mono_div(lr_mono, lq_mono)
        if m is None:
            return None
        if type(lr_coeff) is int and type(lq_coeff) is int:
            c, r = divmod(lr_coeff, lq_coeff)
            if r:
                c = Fraction(lr_coeff, lq_coeff)
        else:
            c = Fraction(lr_coeff, lq_coeff)
        quotient[m] = quotient.get(m, 0) + c
        rem = rem - MultiPoly.from_dict(p.arity, {m: c}) * q
    return MultiPoly.from_dict(p.arity, quotient)


def test_exact_div_matches_reference():
    rng = random.Random(31)
    tested = failed = 0
    for _ in range(340):
        k = rng.randint(1, 3)
        a = random_poly(rng, k, rng.randint(0, 3), rng.randint(1, 4))
        b = random_poly(rng, k, rng.randint(0, 3), rng.randint(1, 4))
        if b.is_zero:
            continue
        if rng.random() < 0.3:
            a = a.scale(Fraction(rng.randint(1, 7), rng.randint(2, 7)))
        if rng.random() < 0.3:
            b = b.scale(Fraction(rng.randint(1, 7), rng.randint(2, 7)))
        assert exact_div(a * b, b) == a, (a, b)
        r = random_poly(rng, k, rng.randint(0, 4), rng.randint(1, 3))
        expected = reference_exact_div(a * b + r, b)
        tested += 1
        failed += expected is None
        assert exact_div(a * b + r, b) == expected, (a, b, r)
    # both outcomes are exercised
    assert tested >= 300 and 50 <= failed <= tested - 50


# -- coprime base -------------------------------------------------------------

ATOMS = ["z1", "z1 + 1", "z2 - 1", "z1 + z2", "z1*z2 + 1", "2*z1 - 3"]


def random_pool(rng, width):
    """Two to four normalized products of one to three atoms, each with an
    exponent vector of the given width (all-zero vectors included)."""
    pool = []
    for _ in range(rng.randint(2, 4)):
        p = P("1", 2)
        for _ in range(rng.randint(1, 3)):
            p = p * P(rng.choice(ATOMS), 2)
        pool.append((p.normalized()[1], tuple(rng.randint(-2, 2) for _ in range(width))))
    return pool


def power_product(pairs, coord):
    """prod base ** exponent in one exponent coordinate, as (num, den)."""
    num = den = P("1", 2)
    for base, exps in pairs:
        if exps[coord] > 0:
            num = num * base ** exps[coord]
        else:
            den = den * base ** -exps[coord]
    return num, den


def test_coprime_base_random_pools():
    rng = random.Random(5)
    for _ in range(150):
        width = rng.randint(1, 3)
        pool = random_pool(rng, width)
        base = coprime_base([pair] for pair in pool)
        for b, exps in base:
            assert not b.is_constant and b.normalized()[1] == b and any(exps)
        for (b1, _), (b2, _) in itertools.combinations(base, 2):
            assert gcd(b1, b2).is_constant
        for coord in range(width):
            num_in, den_in = power_product(pool, coord)
            num_out, den_out = power_product(base, coord)
            assert num_in * den_out == num_out * den_in
        for perm in itertools.permutations(pool):
            assert coprime_base([pair] for pair in perm) == base


def test_coprime_base_splits_before_dropping():
    # z1*(z1 + 1) cancels exactly, yet it still splits z1*(z2 - 1)
    pool = [
        (P("z1^2 + z1", 2), (1,)),
        (P("z1*z2 - z1", 2), (1,)),
        (P("z1^2 + z1", 2), (-1,)),
    ]
    assert coprime_base([pair] for pair in pool) == [(P("z2 - 1", 2), (1,)), (P("z1", 2), (1,))]


def all_pairs_coprime_base(pairs):
    """Factor refinement that takes a gcd between every incoming polynomial
    and every base element, with no shortcut and no runs: the reference for
    ``coprime_base``."""
    base = {}
    work = [(p, tuple(e)) for p, e in pairs]
    while work:
        p, e = work.pop()
        if p in base:
            base[p] = tuple(x + y for x, y in zip(base[p], e))
            continue
        for b in base:
            g = gcd(p, b)
            if not g.is_constant:
                f = base.pop(b)
                work.append((g, tuple(x + y for x, y in zip(e, f))))
                for rest, exps in ((exact_div(b, g), f), (exact_div(p, g), e)):
                    if not rest.is_constant:
                        work.append((rest, exps))
                break
        else:
            base[p] = e
    return sorted(
        ((b, e) for b, e in base.items() if any(e)),
        key=lambda t: (t[0].total_degree(), t[0].terms),
    )


def random_run(rng, width):
    """A coprime run: the coprime base of a random pool, each base with a
    random exponent vector.  Its bases are products of atoms, so a base of
    another run may equal one of them, or share a factor with it and split."""
    refined = all_pairs_coprime_base((p, (1,)) for p, _ in random_pool(rng, 1))
    return [(b, tuple(rng.randint(-2, 2) for _ in range(width))) for b, _ in refined]


def test_coprime_base_runs_match_all_pairs():
    rng = random.Random(17)
    shared = split = 0
    for _ in range(300):
        width = rng.randint(1, 3)
        runs = [random_run(rng, width) for _ in range(rng.randint(2, 4))]
        flat = [pair for run in runs for pair in run]
        expected = all_pairs_coprime_base(flat)
        assert coprime_base(runs) == expected, runs
        assert coprime_base([pair] for pair in flat) == expected, runs
        pairs = [
            (b1, b2)
            for run1, run2 in itertools.combinations(runs, 2)
            for (b1, _), (b2, _) in itertools.product(run1, run2)
        ]
        shared += any(b1 == b2 for b1, b2 in pairs)
        split += any(b1 != b2 and not gcd(b1, b2).is_constant for b1, b2 in pairs)
    # runs that share a base, and runs whose bases split against each other
    assert shared >= 100 and split >= 100


# -- detect_simple -------------------------------------------------------------


def test_detect_simple_linear():
    got = detect_simple(P("z1 - z2 + 3", 2))
    assert got is not None
    v, q = got
    assert v == (1, -1)
    assert q == parse_unipoly("t + 3")


def test_detect_simple_rejects_product():
    assert detect_simple(P("z1*z2", 2)) is None


def test_detect_simple_quadratic():
    # oracle: expand q(v . z) and compare term by term, plus random points
    p = P("4*z1^2 + 16*z1*z2 + 16*z2^2 + 1", 2)
    got = detect_simple(p)
    assert got is not None
    v, q = got
    assert v == (1, 2)
    assert q == parse_unipoly("4*t^2 + 1")
    assert q.as_multipoly(v) == p
    rng = random.Random(3)
    for _ in range(50):
        z = tuple(rng.randint(-10, 10) for _ in range(2))
        t = sum(a * b for a, b in zip(v, z))
        assert q.evaluate(t) == p.evaluate(z)


def test_detect_simple_constant():
    got = detect_simple(P("5/3", 2))
    assert got == ((0, 0), UniPoly.make([Fraction(5, 3)]))


def test_detect_simple_single_variable():
    got = detect_simple(P("z2^3 - z2", 3))
    assert got is not None
    v, q = got
    assert v == (0, 1, 0)
    assert q == parse_unipoly("t^3 - t")


def test_detect_simple_round_trip_random():
    rng = random.Random(5)
    for _ in range(30):
        k = rng.randint(2, 3)
        v = tuple(rng.randint(-2, 2) for _ in range(k))
        if all(x == 0 for x in v):
            continue
        q = UniPoly.make([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
        if q.is_zero:
            continue
        p = q.as_multipoly(v)
        if p.is_zero:
            continue
        got = detect_simple(p)
        assert got is not None
        vv, qq = got
        assert qq.as_multipoly(vv) == p


def test_detect_simple_is_none_or_round_trips_random():
    # detect_simple reads q off an axis and does not expand q(v . z) again
    # (its docstring proves it need not): planted q(v . z + c), v not
    # necessarily primitive, are found, and with one random term added the
    # answer is None or a (v, q) that still gives the polynomial back
    rng = random.Random(36)
    found = refused = 0
    for _ in range(300):
        k = rng.randint(1, 3)
        v = tuple(rng.randint(-3, 3) for _ in range(k))
        if not any(v):
            continue
        q = UniPoly.make(
            Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(rng.randint(2, 5))
        )
        if q.is_constant:
            continue
        planted = q.as_multipoly(v, rng.randint(-3, 3))
        mono = tuple(rng.randint(0, 2) for _ in range(k))
        perturbed = planted + MultiPoly.from_dict(k, {mono: rng.choice([-2, -1, 1, 3])})
        for p in (planted, perturbed):
            if p.is_zero:
                continue
            got = detect_simple(p)
            if got is None:
                assert p is perturbed
                refused += 1
                continue
            vv, qq = got
            assert qq.as_multipoly(vv) == p
            found += 1
    assert found > 300 and refused > 100


# -- find_nonzero_in_box --------------------------------------------------------


def test_box_search_constant():
    assert find_nonzero_in_box(P("1", 2), (0, 0), 2) == (0, 0)


def test_box_search_skips_zero():
    assert find_nonzero_in_box(P("z1", 1), (0,), 1) == (1,)


def test_box_search_corner():
    assert find_nonzero_in_box(P("(z1 - 1)*(z2 - 1)", 2), (0, 0), 2) == (0, 0)


def test_box_search_zero_polynomial():
    assert find_nonzero_in_box(MultiPoly(2, ()), (0, 0), 3) is None


def test_box_search_small_box_rejected():
    with pytest.raises(PreconditionError):
        find_nonzero_in_box(P("z1^2", 1), (0,), 1)


def test_box_search_random():
    # a nonzero polynomial of total degree n has a nonzero point in any box of size n
    rng = random.Random(13)
    for _ in range(40):
        k = rng.randint(1, 3)
        p = random_poly(rng, k, 3)
        if p.is_zero:
            continue
        n = p.total_degree()
        corner = tuple(rng.randint(-5, 5) for _ in range(k))
        z = find_nonzero_in_box(p, corner, n)
        assert z is not None
        assert p.evaluate(z) != 0
        assert all(c <= x <= c + n for x, c in zip(z, corner))


# -- roots ----------------------------------------------------------------------


def test_rational_roots_half():
    roots, cof = rational_roots(parse_unipoly("2*t + 1"))
    assert roots == [Fraction(-1, 2)]
    assert cof.is_constant
    assert integer_roots(parse_unipoly("2*t + 1")) == []


def test_integer_roots_quadratic():
    assert integer_roots(parse_unipoly("t^2 - 3*t + 2")) == [1, 2]


def test_roots_with_cofactor():
    p = parse_unipoly("(t^2 + 1)*(t - 4)")
    roots, cof = rational_roots(p)
    assert roots == [Fraction(4)]
    assert cof == parse_unipoly("t^2 + 1")
    assert integer_roots(p) == [4]


def test_roots_multiplicity():
    roots, cof = rational_roots(parse_unipoly("(t - 2)^2 * t"))
    assert roots == [0, 2, 2]
    assert cof.is_constant


def test_roots_zero_poly_rejected():
    with pytest.raises(PreconditionError):
        rational_roots(UniPoly(()))


def reference_rational_roots(p):
    """rational_roots by the candidate scan alone: every root, linear
    factors included, among the a/b of the rational root theorem."""
    roots = []
    work = p
    while not work.is_constant and work.coeffs[0] == 0:
        roots.append(0)
        work = UniPoly(work.coeffs[1:])
    if work.is_constant:
        return sorted(roots), work
    _, prim = work.normalized()
    trailing = prim.coeffs[0].numerator
    lead = prim.coeffs[-1].numerator
    candidates = sorted(
        {
            poly._coeff(Fraction(sign * a, b))
            for a in poly._divisors(trailing)
            for b in poly._divisors(lead)
            for sign in (1, -1)
        }
    )
    for cand in candidates:
        while work.degree() >= 1 and work.evaluate(cand) == 0:
            work, rem = work.divmod_linear(cand)
            assert rem == 0
            roots.append(cand)
    return sorted(roots), work


def test_rational_roots_match_candidate_scan():
    # degree 1-4 with planted rational roots, zero roots, repeated roots,
    # irreducible quadratic factors and Fraction coefficients: the direct
    # root of a linear remainder gives the scan's roots, in its order and
    # with its types, and its cofactor
    rng = random.Random(71)
    met = set()
    for _ in range(400):
        degree = rng.randint(1, 4)
        p = UniPoly.make([Fraction(rng.randint(1, 6), rng.randint(1, 4)) * rng.choice([1, -1])])
        while p.degree() < degree:
            kind = rng.choice(["int", "rational", "zero", "quadratic"])
            if kind == "quadratic":
                if p.degree() + 2 > degree:
                    continue
                # t^2 + b t + c with b^2 < 4c has no real root
                factor = UniPoly.make([rng.randint(2, 5), rng.randint(-2, 2), 1])
            elif kind == "zero":
                factor = UniPoly.make([0, 1])
            else:
                root = rng.randint(-6, 6) if kind == "int" else Fraction(rng.randint(-6, 6), rng.randint(2, 5))
                factor = UniPoly.make([-root, 1]).scale(rng.randint(1, 3))
            p = p * factor
            met.add(kind)
        roots, cofactor = rational_roots(p)
        expected_roots, expected_cofactor = reference_rational_roots(p)
        assert roots == expected_roots, p
        assert [type(r) for r in roots] == [type(r) for r in expected_roots], p
        assert cofactor == expected_cofactor and cofactor.coeffs == expected_cofactor.coeffs, p
        product = cofactor
        for r in roots:
            product = product * UniPoly.make([-r, 1])
        assert product == p
        met.add(("degree", p.degree(), len(roots)))
    assert {"int", "rational", "zero", "quadratic"} <= met
    for degree in range(1, 5):
        assert ("degree", degree, degree) in met, degree
    assert ("degree", 4, 2) in met and ("degree", 2, 0) in met


# -- simple-polynomial zero structure -------------------------------------------


def test_simple_zeros_lie_on_hyperplanes():
    # every zero of q(v . z) in a window lies on a hyperplane v . z = r
    # for an integer root r of q
    cases = [
        ("z1 - z2", 2),
        ("2*z1 + 2*z2 + 2", 2),
        ("z1^2 - 4*z1*z2 + 4*z2^2 - 1", 2),
    ]
    for text, k in cases:
        p = P(text, k)
        got = detect_simple(p)
        assert got is not None
        v, q = got
        roots = set(integer_roots(q))
        for z1 in range(-10, 11):
            for z2 in range(-10, 11):
                z = (z1, z2)
                if p.evaluate(z) == 0:
                    assert sum(a * b for a, b in zip(v, z)) in roots


# -- shift equivalence ------------------------------------------------------------
#
# p and q are shifts of each other exactly when their orbit anchors are equal,
# and then the shift between them is the difference of their offsets; the
# offset of the anchor shifted by t is t, canonical modulo the translations
# that fix the anchor


def _shift_between(p, q):
    """u with p(z + u) = q(z) by ``orbit_anchor``, or None when the
    anchors differ."""
    (a, u), (b, v) = poly.orbit_anchor(p), poly.orbit_anchor(q)
    return tuple(y - x for x, y in zip(u, v)) if a == b else None


def test_shift_between_generic():
    p = P("z1*z2 + 1", 2)
    q = p.shift((3, -2))
    assert _shift_between(p, q) == (3, -2)


def test_shift_between_degenerate_top():
    p = P("z1^2 + z2", 2)
    q = p.shift((1, 5))
    assert _shift_between(p, q) == (1, 5)


def test_shift_between_none():
    assert _shift_between(P("z1*z2 + 1", 2), P("z1*z2 + z1", 2)) is None


# degenerate top forms: the degree d - 1 coefficients leave a shift direction
# free; the last two are also fixed by a line of translations (e1, e1 - e2)
DEGENERATE = [
    ("z1^2 + z2", 2),
    ("(z1 + z2)^2 + z1", 2),
    ("z1*z2 + z3", 3),
    ("z2*z3 + 1", 3),
    ("(z1 + z2)*z3 + 1", 3),
]


# fixed by the lines through (2,1,1) and (-3,2,0): the first gives a Hermite
# form with a diagonal entry 2 on the quotient, the second offsets whose
# second coordinate is 0 or 1
INVARIANT = [("(z1 - 2*z2)*(z2 - z3) + 1", 3), ("(2*z1 + 3*z2)*z3 + 1", 3)]


@pytest.mark.parametrize(
    "text,k", DEGENERATE + INVARIANT + [("z1*(z2 - z3)^2 + z2", 3), ("7", 2)]
)
def test_orbit_anchor_is_shift_invariant(text, k):
    rng = random.Random(text)
    p = P(text, k)
    anchor, offset = poly.orbit_anchor(p)
    assert anchor.shift(offset) == p
    assert poly.orbit_anchor(anchor) == (anchor, (0,) * k)
    for _ in range(25):
        t = tuple(rng.randint(-50, 50) for _ in range(k))
        q = p.shift(t)
        other, shifted = poly.orbit_anchor(q)
        assert other == anchor
        assert anchor.shift(shifted) == q


def _offset_of_shifted_anchor(text, k, t):
    anchor, _ = poly.orbit_anchor(P(text, k))
    other, offset = poly.orbit_anchor(anchor.shift(t))
    assert other == anchor
    return offset


def test_shift_between_offsets_are_canonical():
    # a translation-invariant factor has one offset per shift, not a line
    assert _offset_of_shifted_anchor("z2*z3 + 1", 3, (5, 1, 0)) == (0, 1, 0)
    assert _offset_of_shifted_anchor("z2*z3 + 1", 3, (-16, 0, 1)) == (0, 0, 1)
    assert _offset_of_shifted_anchor("(z1 + z2)*z3 + 1", 3, (3, -2, 4)) == (1, 0, 4)
    assert _offset_of_shifted_anchor("(z1 + z2)*z3 + 1", 3, (-7, 7, 0)) == (0, 0, 0)
    assert _offset_of_shifted_anchor("(2*z1 + 3*z2)*z3 + 1", 3, (7, -5, 0)) == (-2, 1, 0)
    p = P("(2*z1 + 3*z2)*z3 + 1", 3)
    rng = random.Random(73)
    for _ in range(20):
        q = p.shift(tuple(rng.randint(-9, 9) for _ in range(3)))
        anchor, offset = poly.orbit_anchor(q)
        assert offset[1] in (0, 1) and anchor.shift(offset) == q


@pytest.mark.parametrize("text,k,t", [
    ("(z1 + z2)^2 + z1", 2, (10**6, -10**6)),
    ("(z1 + z2)^2 + z1", 2, (-(10**6) + 3, 10**6)),
    ("z1*z2 + z3", 3, (0, 0, 10**6)),
    ("z1^2 + z2", 2, (7, -(10**6))),
    ("(z1 + z2)*z3 + 1", 3, (10**6, 0, -(10**6))),
])
def test_shift_between_far_along_degenerate_directions(text, k, t):
    # t is the canonical offset: the translations that fix the last form
    # move only the first two coordinates, and t[1] is 0
    assert _offset_of_shifted_anchor(text, k, t) == t
    assert _shift_between(P(text, k), P(text, k).shift(t)) == t


def test_shift_between_matches_brute_force():
    rng = random.Random(71)
    w = 5
    for _ in range(30):
        text, k = rng.choice(DEGENERATE)
        p = P(text, k)
        q = p.shift(tuple(rng.randint(-2, 2) for _ in range(k)))
        # perturbed, q may be another shift of p or none at all
        q = q + MultiPoly.constant(k, rng.choice([0, 0, 1, -2])) + MultiPoly.variable(
            k, rng.randrange(k)
        ).scale(rng.choice([0, 0, 0, 1]))
        found = {
            u for u in itertools.product(range(-w, w + 1), repeat=k) if p.shift(u) == q
        }
        u = _shift_between(p, q)
        if u is None:
            assert not found
        else:
            assert found and p.shift(u) == q


def test_as_multipoly_memo_and_integer_rule():
    q = UniPoly.make([1, 2, 3])
    first = q.as_multipoly((1, -2), 3)
    assert UniPoly.make([1, 2, 3]).as_multipoly([1, -2], 3) is first
    assert q.as_multipoly([1.0, -2], Fraction(3)) is first
    bad = [((1.5, 2), 0), ((Fraction(1, 2), 1), 0), ((True, 1), 0), ((1, 2), 0.5)]
    for direction, offset in bad:
        with pytest.raises(TypeError):
            q.as_multipoly(direction, offset)


# -- misc -------------------------------------------------------------------------


def test_primitive_vector():
    assert primitive_vector([Fraction(-2), Fraction(4)]) == (1, -2)
    assert primitive_vector([Fraction(0), Fraction(0)]) is None
    assert primitive_vector([Fraction(1, 2), Fraction(1, 3)]) == (3, 2)
    assert primitive_vector([0, Fraction(-3), 6]) == (0, 1, -2)
    # already primitive: integral Fractions come back as ints
    v = primitive_vector([Fraction(2), Fraction(3)])
    assert v == (2, 3) and all(type(x) is int for x in v)


def _dot(row, x):
    return sum(a * b for a, b in zip(row, x))


def test_solve_linear_solves_the_first_basis_of_its_rows():
    # the second row is twice the first, with a right-hand side that does
    # not fit; it is dropped, so x + y = 2, x - y = 0 decides
    assert poly._solve_linear([[1, 1], [2, 2], [1, -1]], [2, 5, 0]) == ([1, 1], [])
    # random independent rows in row order, with rows in the span of those
    # before them put in between, their right-hand sides consistent or not:
    # the answer is exactly that of the independent rows alone
    rng = random.Random(43)
    for _ in range(300):
        n = rng.randint(1, 5)
        m = rng.randint(1, n)
        # echelon rows at random pivot columns, mixed by a unit lower
        # triangular matrix: m independent rows
        pivots = sorted(rng.sample(range(n), m))
        echelon = [
            [0] * p + [rng.choice([-2, -1, 1, 3])] + [rng.randint(-3, 3) for _ in range(n - p - 1)]
            for p in pivots
        ]
        basis = []
        for i, row in enumerate(echelon):
            for e in echelon[:i]:
                f = rng.randint(-2, 2)
                row = [x + f * y for x, y in zip(row, e)]
            basis.append(row)
        basis_rhs = [Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in basis]
        rows, rhs = [], []
        for i in range(m + 1):
            for _ in range(rng.randint(0, 2)):
                # a combination of the rows so far; the zero row before any
                rows.append([0] * n)
                for e in basis[:i]:
                    f = rng.randint(-2, 2)
                    rows[-1] = [x + f * y for x, y in zip(rows[-1], e)]
                rhs.append(Fraction(rng.randint(-5, 5)))
            if i < m:
                rows.append(basis[i])
                rhs.append(basis_rhs[i])
        particular, null = poly._solve_linear(rows, rhs)
        assert (particular, null) == poly._solve_linear(basis, basis_rhs)
        assert [_dot(row, particular) for row in basis] == basis_rhs
        assert len(null) == n - m
        assert all(_dot(row, v) == 0 for row in rows for v in null)


def test_normalized():
    scalar, prim = P("-2*z1 + 4", 1).normalized()
    assert prim == P("z1 - 2", 1)
    assert scalar == -2
    assert prim.scale(scalar) == P("-2*z1 + 4", 1)
    assert P("-2*z1", 1).normalized() == (-2, P("z1", 1))


def _direct_normal_form(p):
    """(scalar, primitive part) of p from ``poly._primitive``, computed anew."""
    if p.is_zero:
        return 1, p
    scalar, prim = poly._primitive([c for _, c in p.terms], p.terms[0][1])
    if prim is None:
        return 1, p
    return scalar, MultiPoly(p.arity, tuple(zip((m for m, _ in p.terms), prim)))


def _normal_form_samples():
    """The polynomials of ``conftest.random_form`` forms (C, D, the chain
    sides along their directions and the factors of the ratios), each also
    scaled by a negative fraction, and the zero, constant, negative-leading
    and fractional cases."""
    rng = random.Random(41)
    samples = [
        MultiPoly(2, ()),
        MultiPoly.constant(2, 5),
        MultiPoly.constant(1, Fraction(-3, 4)),
        MultiPoly.constant(1, 1),
        P("-z1 + z2", 2),
        P("-6*z1*z2 + 4*z1 - 2", 2),
        P("1/2*z1^2 - 1/3*z2 + 5/6", 2),
        P("-3/4*z1 + 9/8", 1),
        P("z1 + 2*z2 - 1", 2),
    ]
    for _ in range(40):
        k = rng.randint(1, 3)
        form = random_form(rng, k)
        polys = [form.c_poly, form.d_poly]
        for chain in form.chains:
            for side in (chain.num, chain.den):
                polys.append(side.as_multipoly(chain.direction, rng.randint(-3, 3)))
        w = tuple(rng.randint(-2, 2) for _ in range(k))
        polys += [base for base, _ in ratio_from_form(form, w).factors]
        for p in polys:
            samples += [p, p.scale(Fraction(-rng.randint(1, 6), rng.randint(1, 6)))]
    return samples


def test_normal_form_is_computed_once_and_kept_out_of_the_fields():
    for p in _normal_form_samples():
        # a fresh copy, so that nothing has normalized it yet
        p = MultiPoly(p.arity, p.terms)
        before = (repr(p), hash(p), replace(p))
        first = p.normalized()
        assert first == _direct_normal_form(p)
        scalar, prim = first
        assert prim.scale(scalar) == p
        assert all(type(c) is int for _, c in prim.terms)
        assert prim.is_zero or (prim.terms[0][1] > 0 and math.gcd(*(c for _, c in prim.terms)) == 1)
        assert p.normalized() is first
        assert prim.normalized() == (1, prim)
        assert (repr(p), hash(p), replace(p)) == before
        assert p == MultiPoly(p.arity, p.terms) == before[2]
        assert "_normal" not in vars(replace(p))
