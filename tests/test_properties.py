"""Property tests drawn by hypothesis: the piecewise closed form against the
propagation oracle on random decomposition forms, and the factored parse of
random polynomial text against the expanded one.

hypothesis is a test-only dependency; without it these tests skip."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_form, spec_from_form  # noqa: E402
from hyperterm.errors import ParseError  # noqa: E402
from hyperterm.geometry import LatticeBox  # noqa: E402
from hyperterm.oracle import grid_compare  # noqa: E402
from hyperterm.parsing import parse_factored, parse_multipoly  # noqa: E402
from hyperterm.poly import MultiPoly  # noqa: E402
from hyperterm.structure import build_structure  # noqa: E402

# window size per arity: 13, 7^2 and 4^3 points
WINDOW_SIZE = {1: 12, 2: 6, 3: 3}


# derandomized, so every run draws the same examples, and no example database
@settings(max_examples=40, deadline=2000, derandomize=True, database=None)
@given(
    rng=st.randoms(use_true_random=False),
    k=st.sampled_from([1, 2, 3]),
    seed_point=st.lists(st.integers(-3, 3), min_size=3, max_size=3),
    seed_value=st.sampled_from([1, -2, Fraction(3, 5)]),
)
def test_closed_form_matches_oracle(rng, k, seed_point, seed_value):
    form = random_form(rng, k)
    seed = tuple(seed_point[:k])
    spec = spec_from_form(form, seed=(seed, Fraction(seed_value)))
    ps = build_structure(spec)
    window = LatticeBox(tuple(x - WINDOW_SIZE[k] // 2 for x in seed), WINDOW_SIZE[k])
    report = grid_compare(ps, spec, window)
    assert report.mismatches == (), (form, report.mismatches)
    assert report.equal == report.checked
    counted = report.checked + report.on_h + report.d_zero + report.blocked + report.value_unknown
    assert counted == (WINDOW_SIZE[k] + 1) ** k


# polynomial text in z1, z2: literals, sums, products, unary minus, nested
# parentheses and powers; p/0 and power chains such as z1^2^2 are malformed
_LEAVES = st.one_of(
    st.sampled_from(["z1", "z2"]),
    st.integers(0, 9).map(str),
    st.tuples(st.integers(0, 9), st.integers(0, 4)).map(lambda t: f"{t[0]}/{t[1]}"),
)
_EXPRESSIONS = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.tuples(inner, st.sampled_from([" + ", " - ", "*"]), inner).map("".join),
        inner.map(lambda s: f"-{s}"),
        inner.map(lambda s: f"({s})"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"({t[0]})^{t[1]}"),
        st.tuples(inner, st.integers(0, 3)).map(lambda t: f"{t[0]}^{t[1]}"),
    ),
    max_leaves=10,
)


@st.composite
def _polynomial_text(draw):
    """An expression, sometimes with one character inserted or deleted."""
    text = draw(_EXPRESSIONS)
    if draw(st.booleans()):
        i = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:i] + draw(st.sampled_from(list("+-*^()/ x1"))) + text[i:]
        else:
            text = text[:i] + text[i + 1 :]
    return text


def _outcome(parse, text):
    try:
        return parse(text, 2)
    except ParseError as exc:
        return str(exc)


@settings(max_examples=400, deadline=2000, derandomize=True, database=None)
@given(text=_polynomial_text())
def test_factored_parse_multiplies_out_to_the_expanded_parse(text):
    expanded = _outcome(parse_multipoly, text)
    factors = _outcome(parse_factored, text)
    if isinstance(expanded, str):
        assert factors == expanded, text
        return
    product = MultiPoly.constant(2, 1)
    for base, exp in factors:
        product = product * base**exp
    assert product == expanded, text
