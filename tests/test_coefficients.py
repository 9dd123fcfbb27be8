"""The coefficient rule: every coefficient and scalar the pipeline produces
is an int when integral and a Fraction otherwise, never a float."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import SPEC_FILES, random_form, spec_from_form
from hyperterm.geometry import PolyhedralRegion
from hyperterm.jsonio import spec_from_json
from hyperterm.oresato import decompose
from hyperterm.parsing import parse_multipoly, parse_unipoly
from hyperterm.poly import MultiPoly, UniPoly, rational_roots
from hyperterm.structure import (
    FactorialChain,
    FactorialForm,
    build_structure,
    factorial_eval,
    pochhammer_eval,
    split_factorial,
    to_pochhammer,
)

REPO = Path(__file__).resolve().parent.parent


def _exact(x, where):
    assert type(x) is int or (type(x) is Fraction and x.denominator != 1), (where, x)


def _poly(p, where):
    if isinstance(p, MultiPoly):
        for _, c in p.terms:
            _exact(c, where)
    else:
        for c in p.coeffs:
            _exact(c, where)


def _factored(fr, where):
    _exact(fr.scalar, where)
    for base, _ in fr.factors:
        _poly(base, where)


def _form(form):
    _poly(form.c_poly, "C")
    _poly(form.d_poly, "D")
    for g in form.gamma:
        _exact(g, "gamma")
    for chain in form.chains:
        _poly(chain.num, "chain")
        _poly(chain.den, "chain")


def _walk(spec, build=True):
    """Check the generators and ratios of one spec and everything
    decompose, build_structure, split_factorial and to_pochhammer make of
    it; the structure only when ``build`` is set and the spec has a seed."""
    for gen in spec.generators:
        _factored(gen.num, "generator")
        _factored(gen.den, "generator")
    for r in spec.ratios():
        _factored(r, "ratio")
    if spec.zero_divisor_witness is None:
        _form(decompose(spec))
    if not build or spec.seed is None:
        return
    ps = build_structure(spec)
    _form(ps.form)
    for ff in split_factorial(ps):
        for g in ff.gamma:
            _exact(g, "factorial gamma")
        _exact(ff.scalar, "factorial scalar")
        for chain in ff.chains:
            _poly(chain.num, "factorial chain")
            _poly(chain.den, "factorial chain")
        pf = to_pochhammer(ff)
        for g in pf.gamma:
            _exact(g, "pochhammer gamma")
        _exact(pf.scalar, "pochhammer scalar")
        _poly(pf.c_poly, "pochhammer C")
        _poly(pf.d_poly, "pochhammer D")
        for entry in pf.numerator + pf.denominator:
            _exact(entry.base, "pochhammer base")


def test_spec_files_are_float_free():
    paths = sorted(REPO.glob("specs/*.json")) + sorted(REPO.glob("perfbench/specs/*.json"))
    assert paths
    for path in paths + [SPEC_FILES["constant"], SPEC_FILES["annihilated"]]:
        _walk(spec_from_json(json.loads(path.read_text(encoding="utf-8"))))


def test_random_forms_are_float_free():
    # every spec is decomposed; the structure is built for all k = 1 specs
    # and the first 20 others, which keeps the test to a few seconds
    rng = random.Random(211)
    built = 0
    for _ in range(200):
        k = rng.choice([1, 2, 2, 3])
        spec = spec_from_form(random_form(rng, k), seed=((0,) * k, Fraction(1)))
        build = k == 1 or built < 20
        if build and k > 1:
            built += 1
        _walk(spec, build)


def test_constructors_apply_the_coefficient_rule():
    p = MultiPoly.from_dict(2, {(1, 0): Fraction(4, 2), (0, 1): Fraction(1, 2)})
    assert [type(c) for _, c in p.terms] == [int, Fraction]
    assert type(p.scale(2).terms[1][1]) is int
    u = UniPoly.make([Fraction(3, 3), Fraction(1, 3)])
    assert [type(c) for c in u.coeffs] == [int, Fraction]
    assert type(u.scale(3).coeffs[1]) is int
    # normalized polynomials have int coefficients only
    _, q = parse_multipoly("1/2*z1 + 3/4*z2", 2).normalized()
    assert q == parse_multipoly("2*z1 + 3*z2", 2)
    assert all(type(c) is int for _, c in q.terms)


@pytest.mark.parametrize(
    "make",
    [
        lambda: MultiPoly.from_dict(1, {(1,): 0.5}),
        lambda: MultiPoly.constant(1, 2.0),
        lambda: MultiPoly.linear([1, 0], 1.0),
        lambda: parse_multipoly("z1 + 1", 1).scale(0.5),
        lambda: UniPoly.make([1, 1.0]),
        lambda: parse_unipoly("t + 1").scale(2.0),
    ],
)
def test_float_coefficient_is_a_type_error(make):
    with pytest.raises(TypeError):
        make()


def test_rational_roots_are_int_when_integral():
    roots, cofactor = rational_roots(parse_unipoly("2*t^3 - 3*t^2 - 2*t"))
    assert roots == [Fraction(-1, 2), 0, 2]
    assert [type(r) for r in roots] == [Fraction, int, int]
    assert cofactor == UniPoly.make([2])


def test_to_pochhammer_negative_power_of_integer_alpha():
    # the denominator chain 2j + 2 = 2 (j + 1) has the integer alpha = 2,
    # which enters gamma and the scalar with negative exponents -1 and -3
    chain = FactorialChain((1,), UniPoly.make([1]), UniPoly.make([2, 2]), 3)
    one = MultiPoly.constant(1, 1)
    ff = FactorialForm(PolyhedralRegion.whole(1), (1,), 1, one, one, (chain,))
    pf = to_pochhammer(ff)
    assert pf.gamma == (Fraction(1, 2),) and type(pf.gamma[0]) is Fraction
    assert pf.scalar == Fraction(1, 8) and type(pf.scalar) is Fraction
    assert [(e.base, e.offset) for e in pf.denominator] == [(2, 3)]
    for z in range(-3, 6):
        value = pochhammer_eval(pf, (z,))
        assert type(value) is Fraction
        assert value == factorial_eval(ff, (z,))
