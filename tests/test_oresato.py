import hashlib
import json
import random
from fractions import Fraction

import pytest

from conftest import random_form, spec_from_form
from hyperterm._frozen import replace
from hyperterm.errors import CocycleError, PreconditionError, StructureError, ZeroTermError
from hyperterm.jsonio import form_to_json
from hyperterm.oresato import (
    Chain,
    OreSatoForm,
    _joint_refine,
    _split_simple_base,
    decompose,
    gp_eval,
    ratio_from_form,
)
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import MultiPoly, UniPoly, coprime_base, gcd
from hyperterm.termratio import (
    FactoredRational,
    TermSpec,
    check_compatibility,
    compose_direction,
)


def P(text, k):
    return parse_multipoly(text, k)


def U(text):
    return parse_unipoly(text)


def binomial_spec():
    return TermSpec.make(
        2,
        [
            (P("z1 + 1", 2), P("z1 + 1 - z2", 2)),
            (P("z1 - z2", 2), P("z2 + 1", 2)),
        ],
        seed=((0, 0), Fraction(1)),
    )


def odd_product_spec():
    return TermSpec.make(1, [(P("2*z1 + 1", 1), P("1", 1))], seed=((0,), Fraction(1)))


def constant_spec():
    return TermSpec.make(1, [(P("1", 1), P("1", 1))], seed=((0,), Fraction(1)))


# -- gp ------------------------------------------------------------------------


def test_gp_forward():
    assert gp_eval(2, 5, lambda j: Fraction(j)) == 24


def test_gp_reciprocal():
    assert gp_eval(5, 2, lambda j: Fraction(j)) == Fraction(1, 24)


def test_gp_empty():
    assert gp_eval(3, 3, lambda j: Fraction(0)) == 1


def test_gp_odd_product_negative():
    # the two-case value: the product over [0, -2) is 1/((1-2)(1-4)) = 1/3
    assert gp_eval(0, -2, lambda j: Fraction(2 * j + 1)) == Fraction(1, 3)


def test_gp_zero_term():
    with pytest.raises(ZeroTermError) as info:
        gp_eval(0, 3, lambda j: Fraction(j - 1))
    assert info.value.index == 1


def test_gp_composition_random():
    rng = random.Random(47)
    for _ in range(60):
        a, b, c = (rng.randint(-6, 6) for _ in range(3))
        values = {}

        def term(j):
            if j not in values:
                values[j] = Fraction(rng.choice([1, 2, 3, -1, -2, 5]), rng.choice([1, 2, 3]))
            return values[j]

        assert gp_eval(a, b, term) * gp_eval(b, c, term) == gp_eval(a, c, term)


# -- decompose: examples ------------------------------------------------------------


def test_decompose_odd_product():
    form = decompose(odd_product_spec())
    assert form.c_poly.is_constant and form.d_poly.is_constant
    assert len(form.chains) == 1
    chain = form.chains[0]
    assert chain.direction == (1,)
    assert chain.num == U("2*t + 1")
    assert chain.den.is_constant
    assert form.gamma == (Fraction(1),)
    # identity: gp over [0,1) of a(z1 + j) reproduces the generator
    got = ratio_from_form(form, (1,))
    assert got.eq_rational(FactoredRational.from_poly(P("2*z1 + 1", 1)))


def test_decompose_constant():
    form = decompose(constant_spec())
    assert form.c_poly.is_constant and form.d_poly.is_constant
    assert form.chains == ()
    assert form.gamma == (Fraction(1),)


def test_decompose_binomial():
    form = decompose(binomial_spec())
    assert form.c_poly.is_constant and form.d_poly.is_constant
    chains = {c.direction: c for c in form.chains}
    assert set(chains) == {(1, 0), (0, 1), (1, -1)}
    assert chains[(1, 0)].num == U("t + 1")
    assert chains[(1, 0)].den.is_constant
    assert chains[(0, 1)].den == U("t + 1")
    assert chains[(0, 1)].num.is_constant
    assert chains[(1, -1)].den == U("t + 1")
    assert chains[(1, -1)].num.is_constant


def test_decompose_pure_scalar():
    spec = TermSpec.make(1, [(P("3", 1), P("2", 1))])
    form = decompose(spec)
    assert form.gamma == (Fraction(3, 2),)
    assert form.chains == ()


def test_decompose_telescoping_quotient():
    # R = (z1+1)/z1 comes from C = z1 with no chain at all
    spec = TermSpec.make(1, [(P("z1 + 1", 1), P("z1", 1))])
    form = decompose(spec)
    assert form.chains == ()
    assert form.c_poly == P("z1", 1)
    assert form.d_poly.is_constant


def test_decompose_long_telescope():
    # R = (z1+5)/(z1+1) telescopes over four consecutive shifts
    spec = TermSpec.make(1, [(P("z1 + 5", 1), P("z1 + 1", 1))])
    form = decompose(spec)
    assert form.chains == ()
    assert form.c_poly == P("(z1 + 1)*(z1 + 2)*(z1 + 3)*(z1 + 4)", 1)
    assert form.d_poly.is_constant
    assert ratio_from_form(form, (1,)).eq_rational(spec.ratios()[0])


def test_decompose_repeated_chain_factor():
    # R = (z1+1)^2 gives a squared chain polynomial
    spec = TermSpec.make(1, [(P("(z1 + 1)^2", 1), P("1", 1))])
    form = decompose(spec)
    assert form.c_poly.is_constant and form.d_poly.is_constant
    assert len(form.chains) == 1
    assert form.chains[0].num == U("t^2 + 2*t + 1")
    assert ratio_from_form(form, (2,)).eq_rational(compose_direction(spec, (2,)))


def test_decompose_direction_with_step_two():
    # a chain along (2, 1): the unit step e1 advances the chain argument by
    # two, so recovery works per residue class
    form = OreSatoForm(
        2,
        P("1", 2),
        P("1", 2),
        (Fraction(1), Fraction(1)),
        (Chain((2, 1), U("t + 1"), UniPoly.constant(1)),),
    )
    ratios = [ratio_from_form(form, e) for e in [(1, 0), (0, 1)]]
    assert ratios[0].eq_rational(
        FactoredRational.make(
            2, 1, [(P("2*z1 + z2 + 1", 2), 1), (P("2*z1 + z2 + 2", 2), 1)]
        )
    )
    spec = TermSpec.from_ratios(2, ratios)
    recovered = decompose(spec)
    assert len(recovered.chains) == 1
    chain = recovered.chains[0]
    assert chain.direction == (2, 1)
    assert chain.num == U("t + 1")
    assert chain.den.is_constant
    rng = random.Random(83)
    for _ in range(20):
        w = (rng.randint(-3, 3), rng.randint(-3, 3))
        assert ratio_from_form(recovered, w).eq_rational(compose_direction(spec, w))


def test_decompose_nonsimple_quotient():
    # R_i = C(z+e_i)/C(z) for the non-simple C = z1*z2 + 1
    c = P("z1*z2 + 1", 2)
    gens = []
    for e in [(1, 0), (0, 1)]:
        gens.append((c.shift(e), c))
    spec = TermSpec.make(2, gens)
    form = decompose(spec)
    assert form.c_poly == c
    assert form.d_poly.is_constant
    assert form.chains == ()


def test_decompose_mixed():
    # D = z1*z2 + 1 in the denominator plus a chain in direction (1, 0)
    d = P("z1*z2 + 1", 2)
    r1 = FactoredRational.make(
        2, 1, [(d, 1), (d.shift((1, 0)), -1), (P("z1 + 3", 2), 1)]
    )
    r2 = FactoredRational.make(2, 1, [(d, 1), (d.shift((0, 1)), -1)])
    spec = TermSpec.from_ratios(2, [r1, r2])
    form = decompose(spec)
    assert form.d_poly == d
    assert form.c_poly.is_constant
    assert len(form.chains) == 1
    assert form.chains[0].direction == (1, 0)


def test_decompose_rejects_zero_divisor_spec():
    from hyperterm.termratio import zero_divisor_spec

    spec = zero_divisor_spec(P("z1", 2))
    with pytest.raises(PreconditionError):
        decompose(spec)


def test_decompose_opaque_product_is_structure_error():
    # the same expanded two-factor product in every generator: gcd-splitting
    # cannot recover the factors, so the C/D pair solved from the first
    # generator does not reproduce the second.  The residue pass finds that,
    # and since the generators are compatible its error is StructureError
    c = P("(z1 + z2 + 1)*(z1*z2 + 1)", 2)
    spec = TermSpec.make(2, [(c.shift((1, 0)), c), (c.shift((0, 1)), c)])
    with pytest.raises(StructureError):
        decompose(spec)


def test_decompose_incompatible_is_cocycle_error():
    # R_1 times (z2 + 1), which no second generator balances
    spec = binomial_spec()
    r1, r2 = spec.ratios()
    extra = FactoredRational.from_poly(P("z2 + 1", 2))
    with pytest.raises(CocycleError):
        decompose(TermSpec.from_ratios(2, [r1 * extra, r2]))


def test_decompose_does_not_consult_compatibility_on_success(monkeypatch):
    # the residue pass is the verification: check_compatibility only names
    # the error after a residue fails, so a successful decompose never calls it
    rng = random.Random(61)
    specs = [binomial_spec(), odd_product_spec(), constant_spec()]
    specs += [spec_from_form(random_form(rng, rng.choice([1, 2, 3]))) for _ in range(10)]
    expected = [decompose(spec) for spec in specs]

    def refuse(spec):
        raise AssertionError("check_compatibility called")

    monkeypatch.setattr("hyperterm.oresato.check_compatibility", refuse)
    for spec, form in zip(specs, expected):
        assert decompose(spec) == form


def test_decompose_round_trip_generators():
    for spec in [odd_product_spec(), constant_spec(), binomial_spec()]:
        form = decompose(spec)
        k = spec.arity
        for i in range(k):
            e = tuple(1 if j == i else 0 for j in range(k))
            assert ratio_from_form(form, e).eq_rational(spec.ratios()[i])


def test_decompose_coprime_cd():
    d = P("z1*z2 + 1", 2)
    c = P("z1 + z2", 2)
    ratios = [
        FactoredRational.make(2, 1, [(c.shift(e), 1), (c, -1), (d, 1), (d.shift(e), -1)])
        for e in [(1, 0), (0, 1)]
    ]
    spec = TermSpec.from_ratios(2, ratios)
    form = decompose(spec)
    assert gcd(form.c_poly, form.d_poly).is_constant
    assert form.c_poly == c or form.c_poly == c.normalized()[1]
    assert form.d_poly == d


# -- the checks can say no -----------------------------------------------------------
# the compatibility check, the residue pass and eq_rational decide whether a
# product of factors is constant by cancellation; each must reject input that
# is wrong in one place


def _units(k):
    return [tuple(int(j == i) for j in range(k)) for i in range(k)]


def test_unbalanced_factor_is_rejected():
    # R_i times a factor that depends on some z_j with j != i: the cocycle
    # identity of the pair (i, j) would need it to be invariant under e_j
    rng = random.Random(79)
    pool = {2: ["z2 + 3", "z1*z2 + 1", "z1 + z2"], 3: ["z3 - 1", "z1*z2 + z3", "z2 + z3"]}
    specs = [binomial_spec()]
    specs += [spec_from_form(random_form(rng, rng.choice([2, 3]))) for _ in range(30)]
    for spec in specs:
        k = spec.arity
        ratios = spec.ratios()
        i = rng.randrange(k)
        polys = [P(text, k) for text in pool[k]]
        extra = rng.choice([p for p in polys if any(p.degree_in(j) for j in range(k) if j != i)])
        ratios[i] = ratios[i] * FactoredRational.make(k, 1, [(extra, rng.choice([-1, 1]))])
        bad = TermSpec.from_ratios(k, ratios)
        assert not check_compatibility(bad), (spec, i, extra)
        with pytest.raises(CocycleError):
            decompose(bad)


def _mutants(form):
    """(name, mutated form, directions whose ratio the mutation changes)."""
    k = form.arity
    units = _units(k)
    for i in range(k):
        gamma = list(form.gamma)
        gamma[i] *= 2
        yield "gamma", replace(form, gamma=tuple(gamma)), [units[i]]
    for n, chain in enumerate(form.chains):
        if chain.num.is_constant:
            continue
        chains = list(form.chains)
        chains[n] = replace(chain, num=chain.num.shift_arg(1))
        moved = [e for e, vi in zip(units, chain.direction) if vi]
        yield "chain", replace(form, chains=tuple(chains)), moved
    if not form.c_poly.is_constant:
        for i in range(k):
            # C(z + e_i) over C(z) changes under z -> z + e_i unless C is
            # invariant along e_i
            e = units[i]
            if form.c_poly.shift(e) != form.c_poly:
                yield "C", replace(form, c_poly=form.c_poly.shift(e)), [e]


def test_mutated_form_is_not_equal():
    # a decomposition with one field changed no longer reproduces the
    # generators: its ratio in a direction the field enters differs from R_i
    rng = random.Random(83)
    specs = [binomial_spec(), odd_product_spec()]
    specs += [spec_from_form(random_form(rng, rng.choice([1, 2, 3]))) for _ in range(40)]
    seen = {}
    for spec in specs:
        form = decompose(spec)
        ratios = spec.ratios()
        for name, mutant, moved in _mutants(form):
            for e in moved:
                assert not ratio_from_form(mutant, e).eq_rational(ratios[e.index(1)]), (
                    name,
                    form,
                    e,
                )
            seen[name] = seen.get(name, 0) + 1
    assert seen["gamma"] >= 40 and seen["chain"] >= 15 and seen["C"] >= 10, seen


def _displayed_pieces(form):
    """The pieces a form reads from its displayed fields, one each."""
    return (
        ((form.c_poly, 1), (form.d_poly, -1)),
        tuple(((c.num, 1), (c.den, -1)) for c in form.chains),
    )


def test_replaced_form_reads_its_displayed_fields():
    # a mutant made by replace keeps none of decompose's pieces, so a
    # mutated C is never checked against the pieces of the C it replaced
    rng = random.Random(83)
    specs = [binomial_spec(), odd_product_spec()]
    specs += [spec_from_form(random_form(rng, rng.choice([1, 2, 3]))) for _ in range(40)]
    seen = 0
    for spec in specs:
        form = decompose(spec)
        for _, mutant, _ in _mutants(form):
            assert mutant._pieces == _displayed_pieces(mutant)
            seen += 1
        assert replace(form)._pieces == _displayed_pieces(form)
    assert seen >= 65, seen


def _telescoping_forms():
    """Forms whose chains telescope in part, so that decompose folds the
    telescoped factors into C or D."""
    return [
        # seed-1 decompose_batch spec 97: (1, -1): t/(t + 3) becomes
        # D = (z1 - z2)(z1 - z2 + 1)(z1 - z2 + 2)(z1^2 + z2^2 + 1)
        OreSatoForm(
            2,
            P("z1 + z2", 2),
            P("z1^2 + z2^2 + 1", 2),
            (3, -2),
            (Chain((1, -1), U("t"), U("t + 3")), Chain((2, 1), U("1"), U("t + 3"))),
        ),
        OreSatoForm(1, P("1", 1), P("1", 1), (2,), (Chain((1,), U("t"), U("t + 2")),)),
        OreSatoForm(2, P("z1*z2 + 1", 2), P("1", 2), (1, 3), (Chain((1, 1), U("t + 3"), U("t")),)),
        OreSatoForm(
            3,
            P("z1*z2 + z3", 3),
            P("1", 3),
            (1, 2, -2),
            (Chain((1, 0, 1), U("2*t + 1"), U("2*t + 5")), Chain((0, 1, 0), U("t + 1"), U("1"))),
        ),
    ]


def _multiplied_out(one, pieces):
    num = den = one
    for piece, mult in pieces:
        for _ in range(abs(mult)):
            if mult > 0:
                num = num * piece
            else:
                den = den * piece
    return num, den


def test_form_pieces_multiply_back_to_the_fields():
    rng = random.Random(89)
    forms = [random_form(rng, rng.choice([1, 2, 3])) for _ in range(300)]
    forms += _telescoping_forms()
    several = 0
    for form in (decompose(spec_from_form(f)) for f in forms):
        k = form.arity
        cd, sides = form._pieces
        assert len(sides) == len(form.chains)
        expected = [(cd, MultiPoly.constant(k, 1), (form.c_poly, form.d_poly))]
        expected += [(side, UniPoly.constant(1), (c.num, c.den)) for side, c in zip(sides, form.chains)]
        for pieces, one, sides_of_field in expected:
            for piece, mult in pieces:
                assert mult != 0 and not piece.is_constant, form
                assert piece.normalized() == (1, piece), form
            assert _multiplied_out(one, pieces) == sides_of_field, form
        # C or D made of two pieces or more
        several += any(sum(1 for _, m in cd if m * sign > 0) >= 2 for sign in (1, -1))
        plain = OreSatoForm(*(getattr(form, name) for name in form.__match_args__))
        assert plain == form and plain._pieces == _displayed_pieces(form)
        directions = _units(k) + [tuple(range(1, k + 1)), tuple(-2 + 3 * (i % 2) for i in range(k))]
        for w in directions:
            assert ratio_from_form(form, w).eq_rational(ratio_from_form(plain, w)), (form, w)
    assert several >= 10, several


def test_gamma_with_normalization_scalars():
    # chain sides along (2, 1) as a user may write them: a = 2*t + 2 and
    # b = -3*t + 1 give a(t) = 2*(2*z1 + z2 + 1) and b(t) = -(6*z1 + 3*z2 - 1),
    # so each factor carries a scalar that ratio_from_form must keep
    a0, a1 = P("2*z1 + z2 + 1", 2), P("2*z1 + z2 + 2", 2)
    b0, b1 = P("6*z1 + 3*z2 - 1", 2), P("6*z1 + 3*z2 + 2", 2)
    chain = Chain((2, 1), U("2*t + 2"), U("-3*t + 1"))
    form = OreSatoForm(2, P("1", 2), P("1", 2), (5, Fraction(1, 2)), (chain,))
    r1 = ratio_from_form(form, (1, 0))
    r2 = ratio_from_form(form, (0, 1))
    # R_1 = 5 * a(t) a(t + 1) / (b(t) b(t + 1)) and R_2 = 1/2 * a(t) / b(t)
    assert r1 == FactoredRational(2, 20, ((a0, 1), (a1, 1), (b0, -1), (b1, -1)))
    assert r2 == FactoredRational(2, -1, ((a0, 1), (b0, -1)))
    # decompose writes the chain sides normalized, so gamma takes the scalars
    assert decompose(TermSpec.from_ratios(2, [r1, r2])).gamma == (20, -1)
    # chain sides 2*t + 1 and 3*t - 1 along (2, 1), gamma = (3, -2)
    a0, a1 = P("4*z1 + 2*z2 + 1", 2), P("4*z1 + 2*z2 + 3", 2)
    spec = TermSpec.from_ratios(
        2,
        [
            FactoredRational.make(2, 3, [(a0, 1), (a1, 1), (b0, -1), (b1, -1)]),
            FactoredRational.make(2, -2, [(a0, 1), (b0, -1)]),
        ],
    )
    assert decompose(spec).gamma == (3, -2)


# -- ratio_from_form -----------------------------------------------------------------


def test_ratio_from_form_zero_direction():
    form = decompose(binomial_spec())
    assert ratio_from_form(form, (0, 0)) == FactoredRational.one(2)


def test_ratio_from_form_direction_follows_the_integer_rule():
    form = decompose(binomial_spec())
    assert ratio_from_form(form, (2.0, 0)) == ratio_from_form(form, (2, 0))
    for w in [(1.5, 0), (True, 0)]:
        with pytest.raises(TypeError, match="coordinate of the point"):
            ratio_from_form(form, w)


def test_ratio_from_form_telescoping():
    form = OreSatoForm(
        2,
        P("z1*z2", 2),
        P("1", 2),
        (Fraction(1), Fraction(1)),
        (),
    )
    got = ratio_from_form(form, (1, 1))
    expected = FactoredRational.make(
        2, 1, [(P("z1 + 1", 2), 1), (P("z2 + 1", 2), 1), (P("z1", 2), -1), (P("z2", 2), -1)]
    )
    assert got.eq_rational(expected)


def test_ratio_from_form_matches_compose_random():
    rng = random.Random(53)
    for spec in [odd_product_spec(), binomial_spec()]:
        form = decompose(spec)
        k = spec.arity
        for _ in range(50):
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            assert ratio_from_form(form, w).eq_rational(compose_direction(spec, w))


def test_chain_factors_are_simple():
    from hyperterm.poly import detect_simple

    form = decompose(binomial_spec())
    for chain in form.chains:
        for poly, j in [(chain.num, 0), (chain.den, 1)]:
            if poly.is_constant:
                continue
            expanded = poly.as_multipoly(chain.direction, j)
            info = detect_simple(expanded)
            assert info is not None
            assert info[0] == chain.direction


# -- random round trips ----------------------------------------------------------------


def test_random_forms_round_trip():
    rng = random.Random(59)
    done = 0
    while done < 20:
        k = rng.choice([1, 2, 2])
        form = random_form(rng, k)
        spec = spec_from_form(form)
        from hyperterm.termratio import check_compatibility

        assert check_compatibility(spec)
        recovered = decompose(spec)
        for i in range(k):
            e = tuple(1 if j == i else 0 for j in range(k))
            assert ratio_from_form(recovered, e).eq_rational(spec.ratios()[i])
        for _ in range(5):
            w = tuple(rng.randint(-3, 3) for _ in range(k))
            assert ratio_from_form(recovered, w).eq_rational(compose_direction(spec, w))
        done += 1


# -- exact shift equivalence -----------------------------------------------------
# orbits are routed by an exact anchor and the offsets of a
# translation-invariant factor are canonical, so these forms decompose
# however far apart their factors lie


def _round_trip(form):
    spec = spec_from_form(form)
    decomposed = decompose(spec)
    for i, r in enumerate(spec.ratios()):
        e = tuple(1 if j == i else 0 for j in range(form.arity))
        assert ratio_from_form(decomposed, e).eq_rational(r)


def _shifted_pair_form(s):
    p = P("(z1 + z2)^2 + z1", 2)
    return OreSatoForm(2, p, p.shift((s, -s)), (1, 1), ())


@pytest.mark.parametrize("s", [10, 16, 17, 1000])
def test_decompose_shifted_pair(s):
    _round_trip(_shifted_pair_form(s))


@pytest.mark.parametrize(
    "c",
    [
        "z2*z3 + 1",
        "(z1 + z2)*z3 + 1",
        "(2*z1 + 3*z2)*z3 + 1",
        "(z1 - 2*z2)*(z2 - z3) + 1",
        "z1*(z2 - z3)^2 + z2",
    ],
)
def test_decompose_translation_invariant_factor(c):
    _round_trip(OreSatoForm(3, P(c, 3), P("1", 3), (1, 1, 1), ()))


def test_decompose_random_forms_digest():
    # pins the forms decompose returns, byte for byte, on 200 random specs;
    # a change to factor refinement or to the gcd that alters any of them
    # must say why and update the digest
    rng = random.Random(67)
    forms = []
    for _ in range(200):
        spec = spec_from_form(random_form(rng, rng.choice([1, 2, 3])))
        forms.append(form_to_json(decompose(spec)))
    text = json.dumps(forms, sort_keys=True)
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "89154ae41f71f6e13a72328104207dcb0fb1d5ef6db2b0537d7845971ae00ba9"
    )


def test_joint_refine_runs_give_the_singleton_refinement():
    """Each ratio's split bases go to ``coprime_base`` as one coprime run;
    the result is the refinement of every piece in a run of its own, on
    random forms and on quotients of C(z + e_i) / C(z) for C a polynomial in
    one direction with rational roots, whose single base splits, and on
    composite bases of different ratios that share a factor."""
    rng = random.Random(149)
    cases = []
    for trial in range(120):
        k = 1 + trial % 3
        cases.append(spec_from_form(random_form(rng, k)).ratios())
        v = [rng.randint(-1, 2) for _ in range(k)]
        v[0] = v[0] or 1
        line = " + ".join(f"{a}*z{j + 1}" for j, a in enumerate(v))
        # two linear factors, and every other time a cofactor without roots
        cofactor = f"*(({line})^2 + {rng.randint(1, 3)})" if trial % 2 else ""
        c = P(f"({line} + {rng.randint(-2, 2)})*({line} + {rng.randint(3, 6)}){cofactor}", k)
        units = [tuple(int(x == i) for x in range(k)) for i in range(k)]
        cases.append([FactoredRational.make(k, 2, [(c.shift(e), 1), (c, -1)]) for e in units])
        if k > 1:
            # composite bases of different ratios that share a factor
            atoms = rng.sample([P(t, k) for t in ["z1*z2 + 1", "z1^2 + z2", "z1*z2 + z2^2 + 3"]], 3)
            bases = [atoms[0] * atoms[1 + i % 2] for i in range(k)]
            cases.append([FactoredRational.make(k, 1, [(b, rng.choice([-1, 1]))]) for b in bases])
    split = 0
    for ratios in cases:
        n = len(ratios)
        singletons = []
        for i, fr in enumerate(ratios):
            for base, exp in fr.factors:
                pieces = _split_simple_base(base)
                split += len(pieces) > 1
                unit = tuple(int(j == i) for j in range(n))
                singletons += [[(p, tuple(m * exp * u for u in unit))] for p, m in pieces]
        refined = coprime_base(singletons)
        expected = [
            FactoredRational(fr.arity, fr.scalar, tuple((b, e[i]) for b, e in refined if e[i]))
            for i, fr in enumerate(ratios)
        ]
        assert _joint_refine(ratios) == expected
    assert split > 300
