import functools
import itertools
import operator
import random
from fractions import Fraction

import pytest

from hyperterm.errors import CocycleError, DimensionError, PreconditionError
from hyperterm.geometry import HalfSpace, Hyperplane, MeasureZeroSet, PolyhedralRegion
from hyperterm.parsing import parse_multipoly
from hyperterm.poly import MultiPoly
from hyperterm.termratio import (
    FactoredRational,
    Generator,
    TermSpec,
    _cancel,
    _refine,
    check_compatibility,
    compose_direction,
    extend_by_zero,
    zero_divisor_spec,
)


def P(text, k):
    return parse_multipoly(text, k)


def binomial_spec(seed=True):
    gens = [
        (P("z1 + 1", 2), P("z1 + 1 - z2", 2)),
        (P("z1 - z2", 2), P("z2 + 1", 2)),
    ]
    s = ((0, 0), Fraction(1)) if seed else None
    return TermSpec.make(2, gens, seed=s)


def odd_product_spec():
    return TermSpec.make(1, [(P("2*z1 + 1", 1), P("1", 1))], seed=((0,), Fraction(1)))


def test_seed_takes_integral_coordinates_only():
    spec = binomial_spec()
    for point in [(0.9, True), (0, 0.5), (False, 0)]:
        with pytest.raises(TypeError, match="must be an integer"):
            spec.with_seed(point, 1)
        with pytest.raises(TypeError, match="must be an integer"):
            TermSpec.make(2, [(g.num, g.den) for g in spec.generators], seed=(point, 1))
    assert spec.with_seed((2.0, 1), 3).seed == ((2, 1), Fraction(3))


def test_arity_takes_integral_numbers_only():
    from hyperterm.jsonio import spec_from_json, spec_to_json

    for arity in [True, 1.5]:
        with pytest.raises(TypeError, match="arity must be an integer"):
            TermSpec.make(arity, [(P("z1 + 1", 1), P("1", 1))], seed=((0,), 1))
    gens = [(g.num, g.den) for g in binomial_spec().generators]
    spec = TermSpec.make(2.0, gens, seed=((0, 0), 1))
    assert type(spec.arity) is int and spec == binomial_spec()
    assert spec_to_json(spec)["k"] == 2
    assert spec_from_json(spec_to_json(spec)) == spec


# -- FactoredRational -----------------------------------------------------------


def test_factored_reduction():
    fr = FactoredRational.make(
        1, 2, [(P("z1^2 - 1", 1), 1), (P("z1 - 1", 1), -1)]
    )
    assert fr.eq_rational(FactoredRational.make(1, 2, [(P("z1 + 1", 1), 1)]))
    # gcd-splitting makes the stored bases coprime
    for (b1, _), (b2, _) in itertools.combinations(fr.factors, 2):
        from hyperterm.poly import gcd

        assert gcd(b1, b2).is_constant


def _cross_multiplied_eq(a, b):
    """Reference equality: multiply numerators and denominators out."""
    return a.numerator() * b.denominator() == b.numerator() * a.denominator()


def test_eq_rational_matches_cross_multiplication():
    from conftest import random_form, spec_from_form
    from hyperterm.oresato import ratio_from_form

    rng = random.Random(59)
    pool = ["z1 + 1", "z1 + 2", "z1^2 + 3*z1 + 2", "2*z1 + 1"]
    for trial in range(30):
        k = 1 + trial % 3
        form = random_form(rng, k)
        spec = spec_from_form(form)
        w = tuple(rng.randint(-2, 2) for _ in range(k))
        lhs = ratio_from_form(form, w)
        rhs = compose_direction(spec, w)
        extra = FactoredRational.from_poly(P(rng.choice(pool), k))
        num, _ = lhs.split()
        cases = [
            (lhs, rhs, True),
            (lhs * extra, rhs, False),
            (lhs, rhs * FactoredRational.make(k, 2), False),
            (FactoredRational.from_poly(num.numerator()), num, True),
            (
                FactoredRational.make(k, 1, [(lhs.numerator(), 1), (lhs.denominator(), -1)]),
                lhs,
                True,
            ),
        ]
        for a, b, expected in cases:
            assert _cross_multiplied_eq(a, b) == expected
            assert a.eq_rational(b) == expected
            assert b.eq_rational(a) == expected


def test_factored_make_ignores_factor_order():
    # the last factor is (2*z1 - 3)*(z2 - 1) expanded; 2*z1 - 3 cancels
    # between the first two, and must still split the last one
    factors = [
        (P("2*z1^4 + z1^3 - 4*z1^2 - 3*z1", 2), -1),
        (P("2*z1 - 3", 2), 1),
        (P("2*z1*z2 - 2*z1 - 3*z2 + 3", 2), -2),
    ]
    expected = (
        (P("z2 - 1", 2), -2),
        (P("2*z1 - 3", 2), -2),
        (P("z1^3 + 2*z1^2 + z1", 2), -1),
    )
    for perm in itertools.permutations(factors):
        fr = FactoredRational.make(2, 1, perm)
        assert fr.scalar == 1 and fr.factors == expected


# atoms of the random factored rationals: products of them make bases that
# two operands share, or that split against each other
FACTOR_ATOMS = {
    1: ["z1", "z1 + 1", "z1 + 2", "2*z1 - 3", "z1^2 + 1"],
    2: ["z1", "z1 + 1", "z2 - 1", "z1 + z2", "z1*z2 + 1", "2*z1 - 3"],
    3: ["z1 + z2", "z3 - 1", "z1*z2 + z3", "z1 + z2 + z3", "z2*z3 + 1"],
}


def random_factored(rng, k):
    """make on zero to three random products of one or two atoms, each
    scaled and raised to a random exponent, with a random scalar."""
    factors = []
    for _ in range(rng.randint(0, 3)):
        p = P("1", k)
        for _ in range(rng.randint(1, 2)):
            p = p * P(rng.choice(FACTOR_ATOMS[k]), k)
        scale = rng.choice([1, -1, 2, Fraction(1, 3)])
        factors.append((p.scale(scale), rng.choice([-2, -1, 1, 2])))
    scalar = Fraction(rng.choice([-4, -1, 1, 2, 3]), rng.randint(1, 3))
    return FactoredRational.make(k, scalar, factors)


def test_product_equals_make_on_both_factor_lists():
    # a * b refines across its operands only; make re-normalizes and
    # refines every pair of the concatenated factors
    rng = random.Random(31)
    for trial in range(300):
        k = 1 + trial % 3
        a = random_factored(rng, k)
        b = random_factored(rng, k)
        if trial % 4 == 2:
            b = a.inv()
        elif trial % 4 == 3:
            b = a.shift(tuple(rng.randint(-1, 1) for _ in range(k))).inv()
        product = a * b
        expected = FactoredRational.make(k, a.scalar * b.scalar, a.factors + b.factors)
        assert product == expected, (a, b)
        assert type(product.scalar) is type(expected.scalar)


def random_operands(rng, k):
    """Factor lists of a product whose constancy is in question: random
    factored rationals with shifts and inverses of each other (repeated
    bases across operands), raw products of atoms as runs of one (bases that
    share factors), and the compatibility quotient of a random spec,
    sometimes perturbed by a factor no other operand balances."""
    from conftest import random_form, spec_from_form

    kind = rng.randrange(3)
    if kind == 0:
        a = random_factored(rng, k)
        ops = [a, random_factored(rng, k), a.shift(tuple(rng.randint(-1, 1) for _ in range(k)))]
        ops += [rng.choice(ops).inv() for _ in range(rng.randint(1, 3))]
        runs = [op.factors for op in ops]
    elif kind == 1:
        runs = []
        for _ in range(rng.randint(1, 4)):
            atoms = [P(rng.choice(FACTOR_ATOMS[k]), k) for _ in range(rng.randint(1, 3))]
            p = functools.reduce(operator.mul, atoms)
            e = rng.choice([-2, -1, 1, 2])
            runs.append([(p.normalized()[1], e)])
            choice = rng.random()
            if choice < 0.3:
                # the same base again, or its inverse, in another run
                runs.append([(p.normalized()[1], rng.choice([-1, 1]) * e)])
            elif choice < 0.6:
                # its atoms, each a run, inverse: nothing merges, all cancels
                runs += [[(atom.normalized()[1], -e)] for atom in atoms]
    else:
        k = max(k, 2)
        ratios = spec_from_form(random_form(rng, k)).ratios()
        i, j = rng.sample(range(k), 2)
        ei, ej = tuple(int(x == i) for x in range(k)), tuple(int(x == j) for x in range(k))
        if rng.random() < 0.5:
            extra = P(rng.choice(FACTOR_ATOMS[k]), k)
            ratios[i] = ratios[i] * FactoredRational.make(k, 1, [(extra, rng.choice([-1, 1]))])
        ops = [ratios[i], ratios[j].shift(ei), ratios[j].inv(), ratios[i].shift(ej).inv()]
        runs = [op.factors for op in ops]
    return k, runs


def _product(k, factors):
    return FactoredRational(k, 1, tuple(factors))


def test_cancel_agrees_with_full_refinement():
    # merging equal bases before refining changes neither the verdict nor
    # the product: _cancel is empty exactly when the full refinement is, and
    # otherwise both are the same rational function
    rng = random.Random(71)
    empty = nonempty = 0
    for trial in range(300):
        k, runs = random_operands(rng, 1 + trial % 3)
        full = _refine(runs)
        rest = _cancel(runs)
        assert (not rest) == (not full), runs
        if rest:
            assert _cross_multiplied_eq(_product(k, rest), _product(k, full)), runs
            nonempty += 1
        else:
            empty += 1
    assert empty >= 40 and nonempty >= 40


def test_eq_rational_agrees_with_unit_quotient():
    # cancellation decides equality as the refined quotient did, also on
    # pairs that differ in the scalar only
    rng = random.Random(73)
    verdicts = {True: 0, False: 0}
    for trial in range(300):
        k = 1 + trial % 3
        a = random_factored(rng, k)
        num, den = a.numerator(), a.denominator()
        candidates = [
            a,
            random_factored(rng, k),
            FactoredRational.make(k, 1, [(num, 1), (den, -1)]),
            FactoredRational.make(k, a.scalar * rng.choice([-1, 2, Fraction(1, 3)]), a.factors),
            a * random_factored(rng, k),
            a.shift(tuple(rng.randint(-1, 1) for _ in range(k))),
        ]
        for b in candidates:
            verdict = a.eq_rational(b)
            assert verdict == (a * b.inv() == FactoredRational.one(k)) == b.eq_rational(a), (a, b)
            verdicts[verdict] += 1
    assert verdicts[True] >= 300 and verdicts[False] >= 300


def test_factored_constant_folding():
    fr = FactoredRational.make(1, 1, [(P("-2*z1 + 4", 1), 2)])
    assert fr.scalar == 4
    assert fr.factors[0][0] == P("z1 - 2", 1)


def test_factored_evaluate():
    fr = FactoredRational.make(1, 1, [(P("z1", 1), 1), (P("z1 + 1", 1), -1)])
    assert fr.evaluate((2,)) == Fraction(2, 3)
    assert fr.evaluate((0,)) == 0
    assert fr.evaluate((-1,)) is None


def test_factored_zero_rejected():
    with pytest.raises(PreconditionError):
        FactoredRational.make(1, 0)
    with pytest.raises(PreconditionError):
        FactoredRational.make(1, 1, [(MultiPoly(1, ()), 1)])


def test_generator_sides_reject_negative_exponents():
    # each side of A(z) f(z) = B(z) f(z + e_i) is a polynomial, whether it
    # arrives as a FactoredRational or as a list of (base, exponent) pairs
    pole = [(P("z1 + 3", 1), -1)]
    plain = [(P("z1 + 1", 1), 1)]
    for gen in [(pole, plain), (plain, pole), (FactoredRational.make(1, 1, pole), plain)]:
        with pytest.raises(PreconditionError):
            TermSpec.make(1, [gen], seed=((0,), 1))
    # exponents that merge to a polynomial are fine
    merged = [(P("z1 + 3", 1), 2), (P("z1 + 3", 1), -1)]
    spec = TermSpec.make(1, [(merged, plain)], seed=((0,), 1))
    assert spec.generators[0].num.factors == ((P("z1 + 3", 1), 1),)


def test_make_rejects_exceptions_and_witness_of_another_arity():
    gens = [(P("z1 + 1", 2), P("z1 + 1 - z2", 2)), (P("z1 - z2", 2), P("z2 + 1", 2))]
    for v in [(1,), (1, 0, 0)]:
        planes = MeasureZeroSet.make([Hyperplane.make((0, 1), 0), Hyperplane.make(v, 0)])
        with pytest.raises(DimensionError, match="exception hyperplane arity mismatch"):
            TermSpec.make(2, gens, exceptions=planes)
    for witness in [P("z1", 1), P("z1", 3)]:
        with pytest.raises(DimensionError, match="zero-divisor witness arity mismatch"):
            TermSpec.make(2, gens, zero_divisor_witness=witness)
    planes = MeasureZeroSet.make([Hyperplane.make((1, -1), 2)])
    spec = TermSpec.make(2, gens, exceptions=planes, zero_divisor_witness=P("z1", 2))
    assert spec.exceptions == planes and spec.zero_divisor_witness == P("z1", 2)


# -- compatibility ----------------------------------------------------------------


def test_binomial_compatible():
    assert check_compatibility(binomial_spec())


def test_separated_variables_compatible():
    spec = TermSpec.make(2, [(P("z1", 2), P("1", 2)), (P("z2", 2), P("1", 2))])
    assert check_compatibility(spec)


def test_incompatible_pair():
    spec = TermSpec.make(2, [(P("z2", 2), P("1", 2)), (P("1", 2), P("1", 2))])
    assert not check_compatibility(spec)


def compatible_by_three_products(spec):
    """The compatibility condition as it reads: both sides of every pair as
    products, then their equality; three refinements per pair."""
    ratios = spec.ratios()
    k = spec.arity
    for i, j in itertools.combinations(range(k), 2):
        ei = tuple(int(x == i) for x in range(k))
        ej = tuple(int(x == j) for x in range(k))
        lhs = ratios[i] * ratios[j].shift(ei)
        rhs = ratios[j] * ratios[i].shift(ej)
        if not lhs.eq_rational(rhs):
            return False
    return True


def test_check_compatibility_matches_three_products():
    from conftest import random_form, spec_from_form

    rng = random.Random(37)
    verdicts = {}
    for trial in range(240):
        k = 1 + trial % 3
        if trial % 2:
            spec = spec_from_form(random_form(rng, k))
        else:
            # C(z + e_i) / C(z) with C one composite factor: such bases stay
            # composite in R_i, and split against the bases of other quotients
            c = P(rng.choice(FACTOR_ATOMS[k]), k) * P(rng.choice(FACTOR_ATOMS[k]), k)
            units = [tuple(int(x == i) for x in range(k)) for i in range(k)]
            ratios = [FactoredRational.make(k, 2, [(c.shift(e), 1), (c, -1)]) for e in units]
            spec = TermSpec.from_ratios(k, ratios)
        if k > 1 and rng.random() < 0.6:
            # a factor in one quotient that, as a rule, no other balances
            ratios = spec.ratios()
            i = rng.randrange(k)
            extra = P(rng.choice(FACTOR_ATOMS[k]), k)
            ratios[i] = ratios[i] * FactoredRational.make(k, 1, [(extra, rng.choice([-1, 1]))])
            spec = TermSpec.from_ratios(k, ratios)
        verdict = check_compatibility(spec)
        assert verdict == compatible_by_three_products(spec), spec
        verdicts[k, verdict] = verdicts.get((k, verdict), 0) + 1
    assert sum(n for (_, v), n in verdicts.items() if v) >= 50
    assert sum(n for (_, v), n in verdicts.items() if not v) >= 50
    assert verdicts[3, False] >= 20


def test_ratios_are_kept_and_returned_as_a_fresh_list():
    spec = binomial_spec()
    expected = [g.ratio() for g in spec.generators]
    got = spec.ratios()
    assert got == expected
    got.reverse()
    got[0] = FactoredRational.one(2)
    got.append(FactoredRational.one(2))
    assert spec.ratios() == expected
    assert spec.ratios() is not spec.ratios()
    assert all(a is b for a, b in zip(spec.ratios(), spec.ratios()))
    # the kept ratios are no field: equality and hash see the generators
    assert spec == binomial_spec() and hash(spec) == hash(binomial_spec())


def test_from_ratios_keeps_the_given_quotients(monkeypatch):
    """A spec built from reduced quotients returns them as its ratios, with
    the factors in the order ``g.ratio()`` gives, and never rebuilds them
    from the generator sides."""
    from conftest import random_form, spec_from_form

    rng = random.Random(139)
    specs = [spec_from_form(random_form(rng, 1 + trial % 3)) for trial in range(400)]
    # given out of (total degree, terms) order
    unsorted = FactoredRational(1, Fraction(1, 2), ((P("z1^2 + 1", 1), 1), (P("z1 + 2", 1), -1)))
    specs.append(TermSpec.from_ratios(1, [unsorted]))
    with monkeypatch.context() as m:
        m.setattr(Generator, "ratio", lambda self: pytest.fail("ratio rebuilt"))
        kept = [spec.ratios() for spec in specs]
    for spec, ratios in zip(specs, kept):
        assert ratios == [g.ratio() for g in spec.generators]
    assert kept[-1][0].factors == unsorted.factors[::-1]


# -- composition --------------------------------------------------------------------


def test_compose_binomial_diagonal():
    # oracle: symbolic product R_{e1} * shift(R_{e2}, e1), reduced
    spec = binomial_spec()
    got = compose_direction(spec, (1, 1))
    expected = FactoredRational.make(
        2, 1, [(P("z1 + 1", 2), 1), (P("z2 + 1", 2), -1)]
    )
    assert got.eq_rational(expected)


def test_compose_zero_direction():
    spec = binomial_spec()
    assert compose_direction(spec, (0, 0)) == FactoredRational.one(2)


def test_compose_two_steps():
    spec = odd_product_spec()
    got = compose_direction(spec, (2,))
    expected = FactoredRational.make(
        1, 1, [(P("2*z1 + 1", 1), 1), (P("2*z1 + 3", 1), 1)]
    )
    assert got.eq_rational(expected)


def test_compose_negative_direction_inverts():
    spec = binomial_spec()
    for w in [(1, 0), (0, 1), (2, -1), (-1, -2)]:
        fw = compose_direction(spec, w)
        back = compose_direction(spec, tuple(-x for x in w))
        assert back.eq_rational(fw.shift(tuple(-x for x in w)).inv())


def test_compose_incompatible_raises():
    spec = TermSpec.make(2, [(P("z2", 2), P("1", 2)), (P("1", 2), P("1", 2))])
    with pytest.raises(CocycleError):
        compose_direction(spec, (1, 1))


def test_compose_additivity_random():
    rng = random.Random(41)
    spec = binomial_spec()
    for _ in range(30):
        u = tuple(rng.randint(-3, 3) for _ in range(2))
        w = tuple(rng.randint(-3, 3) for _ in range(2))
        uw = tuple(a + b for a, b in zip(u, w))
        lhs = compose_direction(spec, uw)
        rhs = compose_direction(spec, u) * compose_direction(spec, w).shift(u)
        assert lhs.eq_rational(rhs)


def test_compose_path_independence():
    # route through axis 2 first must agree with the canonical axis-1 route
    spec = binomial_spec()
    for w in [(2, 1), (1, -2), (-1, 1), (3, 3)]:
        canonical = compose_direction(spec, w)
        other = compose_direction(spec, (0, w[1])) * compose_direction(
            spec, (w[0], 0)
        ).shift((0, w[1]))
        assert canonical.eq_rational(other)
        # equality even holds for the canonical reduced representations
        assert canonical == other


def test_zero_divisor_cocycle_form():
    # the certificate construction A = p, B = p shifted satisfies the
    # compatibility identity for arbitrary p
    rng = random.Random(43)
    for _ in range(10):
        d = {}
        for _ in range(3):
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            d[mono] = Fraction(rng.randint(-3, 3))
        p = MultiPoly.from_dict(2, d)
        if p.is_zero:
            continue
        spec = zero_divisor_spec(p)
        assert check_compatibility(spec)


def test_zero_divisor_identity_arbitrary_directions():
    # R_v = p / (p shifted by v) satisfies R_v * shift(R_w, v) = R_w * shift(R_v, w)
    # for arbitrary integer directions, not just unit steps
    rng = random.Random(47)
    for _ in range(10):
        d = {}
        for _ in range(3):
            mono = (rng.randint(0, 2), rng.randint(0, 2))
            d[mono] = Fraction(rng.randint(-3, 3))
        p = MultiPoly.from_dict(2, d)
        if p.is_zero:
            continue
        for _ in range(5):
            v = tuple(rng.randint(-3, 3) for _ in range(2))
            w = tuple(rng.randint(-3, 3) for _ in range(2))
            rv = FactoredRational.make(2, 1, [(p, 1), (p.shift(v), -1)])
            rw = FactoredRational.make(2, 1, [(p, 1), (p.shift(w), -1)])
            lhs = rv * rw.shift(v)
            rhs = rw * rv.shift(w)
            assert lhs.eq_rational(rhs)


# -- extend by zero --------------------------------------------------------------------


def test_extend_whole_space_is_identity():
    spec = binomial_spec()
    ext = extend_by_zero(spec, PolyhedralRegion.whole(2))
    assert ext.generators == spec.generators


def test_extend_halfline():
    # constant term on {z1 > 0}: generators become A = B = z1
    spec = TermSpec.make(1, [(P("1", 1), P("1", 1))], seed=((1,), Fraction(1)))
    support = PolyhedralRegion.make(1, [HalfSpace.make((1,), 0)])
    ext = extend_by_zero(spec, support)
    g = ext.generators[0]
    assert g.num.numerator() == P("z1", 1)
    assert g.den.numerator() == P("z1", 1)
    assert any(h.v == (1,) and h.n == 0 for h in ext.exceptions.hyperplanes)
    # exhaustive identity check: g is 1 on support, 0 elsewhere
    def gval(z):
        return Fraction(1) if z > 0 else Fraction(0)

    for z in range(-4, 5):
        a = g.num.evaluate((z,))
        b = g.den.evaluate((z,))
        assert a * gval(z) == b * gval(z + 1)


def test_extend_binomial_wedge():
    spec = binomial_spec()
    support = PolyhedralRegion.make(
        2,
        [
            HalfSpace.make((1, 0), -1),
            HalfSpace.make((0, 1), -1),
            HalfSpace.make((1, -1), -1),
        ],
    )
    ext = extend_by_zero(spec, support)
    # oracle-evaluated g: binomial coefficients inside the wedge, 0 outside
    import math

    def gval(z1, z2):
        if z1 >= 0 and z2 >= 0 and z1 - z2 >= 0:
            return Fraction(math.comb(z1, z2))
        return Fraction(0)

    for i, gen in enumerate(ext.generators):
        e = (1, 0) if i == 0 else (0, 1)
        for z1 in range(-3, 7):
            for z2 in range(-3, 7):
                z = (z1, z2)
                zp = (z1 + e[0], z2 + e[1])
                a = gen.num.evaluate(z)
                b = gen.den.evaluate(z)
                assert a * gval(*z) == b * gval(*zp)
