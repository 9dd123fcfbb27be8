import time
from fractions import Fraction

import pytest

from hyperterm.errors import LimitError, ParseError
from hyperterm.parsing import parse_factored, parse_multipoly, parse_unipoly
from hyperterm.poly import MultiPoly
from hyperterm.termratio import FactoredRational


def test_parse_basic():
    p = parse_multipoly("3*z1^2*z2 - 7/2*z1 + 1", 2)
    assert p.coefficient((2, 1)) == 3
    assert p.coefficient((1, 0)) == Fraction(-7, 2)
    assert p.coefficient((0, 0)) == 1


def test_parse_parens_and_unary_minus():
    p = parse_multipoly("-(z1 - z2)^2", 2)
    q = parse_multipoly("-z1^2 + 2*z1*z2 - z2^2", 2)
    assert p == q


def test_parse_rational_literal():
    assert parse_multipoly("-7/2", 1) == MultiPoly.constant(1, Fraction(-7, 2))


@pytest.mark.parametrize(
    "text, position",
    [
        ("z1 + \u00b2", 5),  # superscript two: str.isdigit holds, int() refuses it
        ("z1 + \u0663", 5),  # Arabic-Indic three: int() reads it as 3
        ("\uff11/2", 0),  # fullwidth one
        ("1/\u0662", 2),
        ("z1^\u00b2", 3),
        ("12\u0663", 2),
    ],
)
def test_literals_are_ascii_digits(text, position):
    with pytest.raises(ParseError) as err:
        parse_multipoly(text, 1)
    assert err.value.position == position
    assert repr(text[position]) in str(err.value)


def test_whitespace_insignificant():
    assert parse_multipoly(" z1 +  2 ", 1) == parse_multipoly("z1+2", 1)


def test_no_implicit_multiplication():
    with pytest.raises(ParseError):
        parse_multipoly("2 z1", 1)


def test_unknown_variable():
    with pytest.raises(ParseError):
        parse_multipoly("z3 + 1", 2)
    with pytest.raises(ParseError):
        parse_multipoly("x + 1", 2)


def test_bad_exponent():
    with pytest.raises(ParseError):
        parse_multipoly("z1^(2)", 1)


def test_round_trip_multipoly():
    for text, k in [
        ("z1^2 - 7/2*z2 + 1", 2),
        ("0", 3),
        ("-z1*z2*z3", 3),
        ("2/3", 1),
        ("z1^4 - z1^2 + 5", 1),
    ]:
        p = parse_multipoly(text, k)
        assert parse_multipoly(str(p), k) == p


def test_round_trip_unipoly():
    for text in ["2*t + 1", "t^3 - t", "-1/2", "0", "t^2 - 3*t + 2"]:
        q = parse_unipoly(text)
        assert parse_unipoly(str(q)) == q


# text, arity, the same polynomial written without a leading unary minus
FACTORED_CASES = [
    ("-z1 + z2", 2, "z2 - z1"),
    ("-z1 + 5", 1, "5 - z1"),
    ("-(z1+1)^2 + z2", 2, "z2 - z1^2 - 2*z1 - 1"),
    ("(-z1 + z2)*z1", 2, "z1*z2 - z1^2"),
    ("2*-z1^2", 1, "2*z1^2"),
]


def test_factored_product_is_the_expanded_polynomial():
    # a unary minus binds to the first term only, in both parsers
    for text, k, plain in FACTORED_CASES:
        expected = parse_multipoly(plain, k)
        assert parse_multipoly(text, k) == expected, text
        product = MultiPoly.constant(k, 1)
        for base, exp in parse_factored(text, k):
            product = product * base**exp
        assert product == expected, text


def test_parenthesized_product_keeps_its_factors():
    text = "(-z1 + z2) * (z1*(z1 + z2))^2 * 3"
    fr = FactoredRational.make(2, 1, parse_factored(text, 2))
    assert fr.scalar == -3
    assert dict(fr.factors) == {
        parse_multipoly("z1 - z2", 2): 1,
        parse_multipoly("z1", 2): 2,
        parse_multipoly("z1 + z2", 2): 2,
    }


def test_total_degree_past_the_limit_is_refused_before_it_is_expanded():
    # the degree is exponent times base degree, summed over the factors
    assert parse_factored("(z1 + z2)^50 * z1^50", 2)[0][1] == 50
    assert parse_multipoly("z1^100", 1).total_degree() == 100
    for text, degree in [
        ("z1^101", 101),
        ("(z1 + z2)^50 * z1^51", 101),
        ("((z1*z2 + 1)^10)^10", 200),
        # a power is refused before it is multiplied out, also in a sum
        ("(z1 + z2 + 1)^101 + z1^200", 101),
        # a sum of powers under the limit is refused by the degree of the sum
        ("1 + z1 * (z1^2 + 2)^50", 101),
    ]:
        with pytest.raises(LimitError, match=f"^total degree {degree} is more than DEGREE_LIMIT = 100$"):
            parse_factored(text, 2)
    with pytest.raises(LimitError):
        parse_unipoly("(t + 1)^101")


def test_term_count_and_constant_power_past_their_limits_are_refused_before_they_are_expanded():
    # the bound is each power's multinomial count C(n + e - 1, e), n the
    # terms of its base, times the other factors', and C(k + D, k), the
    # monomials of total degree at most D, when that product passes the limit
    four = "(z1 + z2 + z3 + 1)"
    for text, terms in [
        (f"{four}^60 + 1", 39711),
        # refused also where the loader keeps it factored
        (f"{four}^60", 39711),
        (f"{four}^20 * {four}^20 + 1", 12341),
        ("*".join([four] * 30) + " + 1", 5456),
    ]:
        with pytest.raises(LimitError, match=f"^an expansion of up to {terms} terms is more than TERM_LIMIT = 5000$"):
            parse_factored(text, 3)
    # sparse powers load: a monomial has one term, a univariate power k = 1
    assert parse_multipoly("(z1*z2*z3)^30 + 1", 3) == parse_multipoly("z1^30*z2^30*z3^30 + 1", 3)
    assert len(parse_multipoly("(z1 + 1)^100", 1).terms) == 101
    assert len(parse_multipoly(f"{four}^12 + 1", 3).terms) == 455
    # a constant power's bits, floor(e log2 |c|) + 1, summed over the
    # constant powers of a product, the larger of numerator and denominator
    for text, bits in [
        ("3^200000 * (z1 + 1)", 316993),
        ("(2/3)^700 * z1", 1110),
        ("2^500 * z1 * 2^500 + 1", 1001),
    ]:
        with pytest.raises(
            LimitError, match=f"^a constant power of {bits} bits is more than CONSTANT_BITS_LIMIT = 1000$"
        ):
            parse_factored(text, 1)
    with pytest.raises(LimitError, match="CONSTANT_BITS_LIMIT"):
        parse_unipoly("3^1000 * t")
    assert parse_multipoly("2^999 * z1", 1) == MultiPoly.variable(1, 0) * MultiPoly.constant(1, 2**999)
    assert parse_multipoly("1^100000 * (-1)^100001 * z1", 1) == parse_multipoly("-z1", 1)


def test_the_densest_power_inside_the_limits_multiplies_out_in_time():
    # 4,950 terms, just inside TERM_LIMIT, the densest power the limits let
    # through: repeated products with the base take about 0.4 s
    start = time.perf_counter()
    p = parse_multipoly("(z1 + z2 + 1)^98 + 1", 2)
    assert time.perf_counter() - start < 1.5
    assert len(p.terms) == 4950


def test_the_expansions_of_one_text_share_one_term_budget():
    # each summand below is inside the limits and took about 0.4 s; the
    # budget refuses the sum before any summand is multiplied out
    four = " + ".join(f"(z1 + z2 + {c})^98" for c in range(1, 5))
    start = time.perf_counter()
    with pytest.raises(LimitError, match="^expansions of up to 19800 terms in one text are more than TERM_LIMIT = 5000$"):
        parse_factored(four, 2)
    assert time.perf_counter() - start < 0.1
    # 1,275 terms for the inner power, then C(2 + 98, 2) = 4,950 for the
    # square multiplied out, in a sum or by parse_multipoly; the loader
    # keeps the square factored
    for text in ["((z1 + z2 + 1)^49 + 1)^2 + 1", "z1 + ((z1 + z2 + 1)^49 + 1)^2"]:
        with pytest.raises(LimitError, match="up to 6225 terms in one text"):
            parse_factored(text, 2)
    with pytest.raises(LimitError, match="up to 6225 terms in one text"):
        parse_multipoly("((z1 + z2 + 1)^49 + 1)^2", 2)
    assert parse_factored("((z1 + z2 + 1)^49 + 1)^2", 2)[0][1] == 2
    # (t + 1)^99 expands to 100 terms
    with pytest.raises(LimitError, match="up to 5100 terms in one text"):
        parse_unipoly(" + ".join(["(t + 1)^99"] * 51))
    # a lone base of exponent 1 is not multiplied out: a sum in parentheses
    # costs nothing more, and neither does parse_multipoly of a sum, so the
    # 2,556 terms of this power are charged once
    assert len(parse_multipoly("((z1 + z2 + 1)^70 + 1) + z1", 2).terms) == 2556
    # the worst load inside the limits, two dense sums multiplied out:
    # 820 + 861 + C(2 + 79, 2) = 4,921 terms charged
    p = parse_multipoly("((z1 + z2 + 1)^39 + 1) * ((z1 + z2 + 2)^40 + 1) + 1", 2)
    assert len(p.terms) == 3240


def test_a_power_of_a_constant_is_taken_on_its_coefficient():
    # the limits let (-1)^n through at any n, and n - 1 products with the
    # base would take seconds
    start = time.perf_counter()
    assert parse_multipoly("(-1)^1000001 * z1 + 1^1000000", 1) == parse_multipoly("1 - z1", 1)
    assert parse_unipoly("(-1)^1000001 * t") == parse_unipoly("-t")
    assert time.perf_counter() - start < 1
