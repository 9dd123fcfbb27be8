"""Property tests drawn by hypothesis: the piecewise closed form against the
propagation oracle on random decomposition forms.

hypothesis is a test-only dependency; without it these tests skip."""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from conftest import random_form, spec_from_form  # noqa: E402
from hyperterm.geometry import LatticeBox  # noqa: E402
from hyperterm.oracle import grid_compare  # noqa: E402
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
